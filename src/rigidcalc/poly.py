"""Polynomial arithmetic on coefficient lists, constant term first.

Coefficients may be ints, Fractions or CycNumbers.  Zero tests use
truthiness and the leading coefficient is inverted as ``1 / lead``, so one
routine serves every coefficient type.  Division by a non-monic integer
polynomial would produce floats: use pseudo_divmod, which stays in Z[X], or
pseudo_rem, which stays in the ring of the coefficients.
"""
from __future__ import annotations


def trim(p: list) -> list:
    """p without its zero leading coefficients; [] is the zero polynomial."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def sub(a: list, b: list) -> list:
    zero = next(iter(a + b), 0) * 0
    a = a + [zero] * (len(b) - len(a))
    b = b + [zero] * (len(a) - len(b))
    return [x - y for x, y in zip(a, b)]


def derivative(p: list) -> list:
    return [c * k for k, c in enumerate(p)][1:]


def divmod(num: list, den: list) -> tuple[list, list]:
    """(quotient, remainder) with num = quotient * den + remainder.

    The remainder is trimmed and has degree below that of den.
    """
    den = trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    deg = len(den) - 1
    inv = None if den[-1] == 1 else 1 / den[-1]
    quo = []
    for k in range(len(rem) - 1, deg - 1, -1):
        c = rem[k] if inv is None else rem[k] * inv
        quo.append(c)
        if c:
            for j in range(deg):
                rem[k - deg + j] -= c * den[j]
    quo.reverse()
    return quo, trim(rem[:deg])


def pseudo_divmod(num: list[int], den: list[int]) -> tuple[int, list[int], list[int]]:
    """(scale, quotient, remainder) over Z with scale * num = quotient * den +
    remainder; scale is a power of den's leading coefficient.

    The remainder is trimmed and has degree below that of den.
    """
    lead, deg = den[-1], len(den) - 1
    scale, quo, rem = 1, [0] * max(len(num) - deg, 0), list(num)
    for k in range(len(num) - 1, deg - 1, -1):
        c = rem[k]
        if c:
            scale *= lead
            quo = [lead * t for t in quo]
            quo[k - deg] += c
            rem = [lead * t for t in rem]
            for j, t in enumerate(den):
                rem[k - deg + j] -= c * t
    return scale, quo, trim(rem[:deg])


def pseudo_rem(num: list, den: list) -> list:
    """lead^e * num mod den, trimmed, for lead the leading coefficient of
    den and e = deg num - deg den + 1 rounded up to even (0 when deg num <
    deg den).

    No inverse is taken, so the remainder stays in the ring the coefficients
    generate.  An even e keeps lead^e positive under every real embedding,
    as Sturm chains need.  A monic den is divided without rescaling.
    """
    den = trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead, deg = den[-1], len(den) - 1
    scale = lead != 1
    rem = trim(num)
    if scale and max(len(rem) - deg, 0) % 2:
        rem = [lead * c for c in rem]
    for k in range(len(rem) - 1, deg - 1, -1):
        c = rem.pop()
        if scale:
            rem = [lead * t for t in rem]
        for j in range(deg):
            rem[k - deg + j] -= c * den[j]
    return trim(rem)


def from_roots(roots: list) -> list:
    """prod(T - root) over the roots."""
    out = [1]
    for root in roots:
        out = mul(out, [-root, 1])
    return out
