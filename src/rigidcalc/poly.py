"""Polynomial arithmetic on coefficient lists, constant term first.

Coefficients may be ints, Fractions or CycNumbers.  Zero tests use
truthiness and the leading coefficient is inverted as ``1 / lead``, so one
routine serves every coefficient type.  Division by a non-monic integer
polynomial would produce floats: pseudo_divmod, the one pseudo-division,
takes no inverse and stays in the ring of the coefficients.
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


def pseudo_divmod(num: list, den: list) -> tuple[int, list, list]:
    """(e, quotient, remainder) with lead^e * num = quotient * den +
    remainder, for lead the leading coefficient of den and e = deg num -
    deg den + 1 rounded up to even, or 0 when deg num < deg den or den is
    monic.

    No inverse is taken, so quotient and remainder stay in the ring the
    coefficients generate.  An even e keeps lead^e positive under every real
    embedding, as Sturm chains need.  The remainder is trimmed and has
    degree below that of den.
    """
    den = trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead, deg = den[-1], len(den) - 1
    rem = trim(num)
    steps = max(len(rem) - deg, 0)
    e = 0 if lead == 1 else steps + steps % 2
    if e > steps:  # an odd step count: one factor lead up front
        rem = [lead * c for c in rem]
    quo = []
    for k in range(len(rem) - 1, deg - 1, -1):
        c = rem.pop()
        if e:
            rem = [lead * t for t in rem]
            quo = [lead * t for t in quo]
        quo.append(c)
        for j in range(deg):
            rem[k - deg + j] -= c * den[j]
    quo.reverse()
    return e, quo, trim(rem)


def from_roots(roots: list) -> list:
    """prod(T - root) over the roots."""
    out = [1]
    for root in roots:
        out = mul(out, [-root, 1])
    return out
