"""Independent oracles for the benchmark's checks.

Nothing here imports rigidcalc: every expected value comes from a brute-force
count, a closed formula, or a construction, so a wrong answer from the
program cannot also be the expected answer.
"""
from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction


# -- point counts and Frobenius traces ---------------------------------------

def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def is_elliptic(a: int, b: int, p: int) -> bool:
    """y^2 = x^3 + ax + b is smooth over F_p, for a prime p > 3."""
    return (4 * a ** 3 + 27 * b ** 2) % p != 0


def trace_fp(a: int, b: int, p: int) -> int:
    """a_p = p + 1 - #E(F_p), counting points one x at a time."""
    points = 1 + sum(1 + legendre(x ** 3 + a * x + b, p) for x in range(p))
    return p + 1 - points


def _non_residue(p: int) -> int:
    return next(d for d in range(2, p) if legendre(d, p) == -1)


def trace_fp2(a: int, b: int, p: int) -> int:
    """a_{p^2} = p^2 + 1 - #E(F_{p^2}), counted over F_p[s]/(s^2 - d).

    An element u + vs of F_{p^2} is a nonzero square iff its norm u^2 - dv^2
    is a nonzero square in F_p, so the quadratic character is the Legendre
    symbol of the norm.
    """
    d = _non_residue(p)
    points = 1
    for u in range(p):
        for v in range(p):
            # (u + vs)^2 = u^2 + d v^2 + 2uv s
            x2u, x2v = (u * u + d * v * v) % p, (2 * u * v) % p
            # x^3 = x^2 * x
            x3u = (x2u * u + d * x2v * v) % p
            x3v = (x2u * v + x2v * u) % p
            ru, rv = (x3u + a * u + b) % p, (x3v + a * v) % p
            points += 1 + legendre(ru * ru - d * rv * rv, p)
    return p * p + 1 - points


def poly_mul_int(f: list[int], g: list[int]) -> list[int]:
    """Product of integer polynomials, constant term first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def functional_equation_holds_int(coeffs: list[int], q: int, w: int) -> bool:
    """conj(Q)(X) = X^n Q(q^w/X)/Q(0) for a real polynomial Q: c_k c_0 = c_{n-k} q^{w(n-k)}."""
    n = len(coeffs) - 1
    return all(
        coeffs[k] * coeffs[0] == coeffs[n - k] * q ** (w * (n - k)) for k in range(n + 1)
    )


# -- Jacobi sums ----------------------------------------------------------------

def primitive_root(p: int) -> int:
    order = p - 1
    factors = [f for f in range(2, order + 1) if order % f == 0 and all(f % g for g in range(2, f))]
    return next(g for g in range(2, p) if all(pow(g, order // f, p) != 1 for f in factors))


def jacobi_sum_raw(p: int, n: int, a: int, b: int) -> list[int]:
    """J(chi^a, chi^b) = sum_x chi^a(x) chi^b(1 - x) in Z[zeta_n], as the
    coefficient vector on zeta_n^0 .. zeta_n^(n-1), where chi(g^k) = zeta_n^k
    for a primitive root g mod p.  Needs n | p - 1.
    """
    if (p - 1) % n:
        raise ValueError(f"{n} does not divide {p} - 1")
    g = primitive_root(p)
    log = {}
    x = 1
    for k in range(p - 1):
        log[x] = k
        x = x * g % p
    raw = [0] * n
    for x in range(2, p):
        raw[(a * log[x] + b * log[(1 - x) % p]) % n] += 1
    return raw


def group_ring_mul(f: list[int], g: list[int], n: int) -> list[int]:
    """Product in Z[C_n] = Z[x]/(x^n - 1)."""
    out = [0] * n
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                if y:
                    out[(i + j) % n] += x * y
    return out


def times_x_minus(poly: list[list[int]], root: list[int], n: int) -> list[list[int]]:
    """poly(X) * (X - root) with coefficients in Z[C_n], constant term first."""
    out = [[0] * n for _ in range(len(poly) + 1)]
    for k, c in enumerate(poly):
        out[k + 1] = [x + y for x, y in zip(out[k + 1], c)]
        out[k] = [x - y for x, y in zip(out[k], group_ring_mul(root, c, n))]
    return out


def embed_raw(raw, n: int, a: int = 1) -> complex:
    """sum_k raw[k] exp(2 pi i a k / n) in double precision."""
    return sum(float(c) * cmath.exp(2j * math.pi * a * k / n) for k, c in enumerate(raw))


def units(n: int) -> list[int]:
    return [a for a in range(1, n + 1) if math.gcd(a, n) == 1]


# -- roots of unity and Jordan types ------------------------------------------------

def decode_root_of_unity(order: int, coeffs) -> Fraction:
    """The f in [0, 1) with value = exp(2 pi i f), for a root of unity given
    by its power-basis coefficients in Q(zeta_order).

    Evaluated in double precision and matched to the nearest fraction with
    denominator dividing 2 * order; raises if the value is no such root.
    """
    value = sum(
        float(Fraction(c)) * cmath.exp(2j * math.pi * k / order) for k, c in enumerate(coeffs)
    )
    if abs(abs(value) - 1) > 1e-9:
        raise ValueError(f"{value} is not a root of unity")
    denominator = 2 * order
    f = Fraction(round(cmath.phase(value) / (2 * math.pi) * denominator), denominator) % 1
    if abs(cmath.exp(2j * math.pi * float(f)) - value) > 1e-9:
        raise ValueError(f"{value} is not a root of unity of order dividing {denominator}")
    return f


def jordan_key(blocks) -> list[tuple[Fraction, int]]:
    """Sorted (eigenvalue exponent, block size) pairs, one per block."""
    return sorted((Fraction(e) % 1, int(s)) for e, s in blocks)


def table1_jordan(i: int) -> dict[str, list[tuple[Fraction, int]]]:
    """Local monodromy of the i-th member of the recursive family, from the
    paper's table (eigenvalue exponent 0 is 1, exponent 1/2 is -1).

        i mod 4  at 0                     at 1                                  at inf
        0        1^(i/2) + (-1)^(i/2+1)   (-1) + U(2)^(i/2)                     U(i+1)
        1        U(2)^((i+1)/2)           (-1)(x)U(2) + (-1)^((i-1)/2) + 1^((i-1)/2)  U(i+1)
        2        1^(i/2) + (-1)^(i/2+1)   U(3) + U(2)^((i-2)/2)                 U(i+1)
        3        U(2)^((i+1)/2)           U(2) + 1^((i-3)/2) + (-1)^((i+1)/2)   U(i+1)
    """
    one, minus = Fraction(0), Fraction(1, 2)
    r = i % 4
    if r in (0, 2):
        at0 = [(one, 1)] * (i // 2) + [(minus, 1)] * (i // 2 + 1)
    else:
        at0 = [(one, 2)] * ((i + 1) // 2)
    if r == 0:
        at1 = [(minus, 1)] + [(one, 2)] * (i // 2)
    elif r == 1:
        at1 = [(minus, 2)] + [(minus, 1)] * ((i - 1) // 2) + [(one, 1)] * ((i - 1) // 2)
    elif r == 2:
        at1 = [(one, 3)] + [(one, 2)] * ((i - 2) // 2)
    else:
        at1 = [(one, 2)] + [(one, 1)] * ((i - 3) // 2) + [(minus, 1)] * ((i + 1) // 2)
    return {"0": jordan_key(at0), "1": jordan_key(at1), "inf": [(one, i + 1)]}


def centralizer_dim_from_jordan(blocks) -> int:
    """dim Z(A) = sum over eigenvalues of sum_k (lambda'_k)^2, where lambda'
    is the conjugate of the partition formed by that eigenvalue's block sizes."""
    sizes: dict[Fraction, list[int]] = {}
    for e, s in blocks:
        sizes.setdefault(e, []).append(s)
    total = 0
    for parts in sizes.values():
        for k in range(1, max(parts) + 1):
            total += sum(1 for s in parts if s >= k) ** 2
    return total


def rigidity_from_jordan(rank: int, local_types) -> int:
    """(2 - r') n^2 + sum of centralizer dimensions over the r' punctures."""
    return (2 - len(local_types)) * rank * rank + sum(
        centralizer_dim_from_jordan(b) for b in local_types
    )


def single_block_witness(local_types: dict) -> str | None:
    """First of inf, 0, 1 (the program's documented scan order) whose local
    monodromy is one Jordan block, or None."""
    for point in ("inf", "0", "1"):
        if len(local_types[point]) == 1:
            return point
    return None


def hypergeometric_jordan(a_exps, b_exps, n_order: int) -> dict[str, list[tuple[Fraction, int]]]:
    """Local data of the hypergeometric tuple with disjoint parameters
    a_j = zeta^a_exps[j], b_j = zeta^b_exps[j] (zeta = zeta_n_order).

    By construction: at infinity one block per distinct a of size its
    multiplicity; at 0 one block per distinct b at b^-1; at 1 a
    pseudo-reflection with special eigenvalue prod(b)/prod(a), so
    1^(n-1) + (delta) when delta != 1 and 1^(n-2) + U(2) otherwise.
    """
    n = len(a_exps)

    def blocks(exps, sign):
        counts: dict[Fraction, int] = {}
        for k in exps:
            e = Fraction(sign * k, n_order) % 1
            counts[e] = counts.get(e, 0) + 1
        return [(e, m) for e, m in counts.items()]

    delta = Fraction(sum(b_exps) - sum(a_exps), n_order) % 1
    if delta:
        at1 = [(Fraction(0), 1)] * (n - 1) + [(delta, 1)]
    else:
        at1 = [(Fraction(0), 1)] * (n - 2) + [(Fraction(0), 2)]
    return {
        "0": jordan_key(blocks(b_exps, -1)),
        "1": jordan_key(at1),
        "inf": jordan_key(blocks(a_exps, 1)),
    }


def ranks_strictly_decrease_to_one(start: int, ranks) -> bool:
    """Katz reduction: each step lowers the rank, and the last rank is 1."""
    if start == 1:
        return list(ranks) == []
    chain = [start] + list(ranks)
    return bool(ranks) and ranks[-1] == 1 and all(x > y for x, y in zip(chain, chain[1:]))


def canonical_json(document) -> str:
    """Sorted keys, compact separators: the documented canonical form."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))
