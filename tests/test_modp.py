"""The F_p layer (rigidcalc.modp) against brute force at small primes.

Every function takes p, so the primes here are 5, 7 and 11, small enough to
enumerate a row space outright: p^rank must be its size, and p^n exactly
when chi-bar(0), the constant term of the characteristic polynomial, is not
0.  Matrices are seeded products of an m x k and a k x c matrix, so their
rank is at most k <= 4 and often short.  Coprimality is compared with sympy's gcd over
F_p.  The characteristic polynomial (Hessenberg reduction) is compared
instead with the residues of ExactMatrix.charpoly (Faddeev-LeVerrier) at the
prime of residue_prime(N).
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from rigidcalc import CycNumber, ExactMatrix, modp, poly
from rigidcalc.cyclotomic import residue_prime

from helpers import jordan_matrix, random_invertible

PRIMES = (5, 7, 11)


def span(vectors, p: int) -> set[tuple[int, ...]]:
    """Every F_p combination of the vectors, built one vector at a time."""
    width = len(vectors[0]) if vectors else 0
    out = {(0,) * width}
    for v in vectors:
        out = {tuple((a + c * b) % p for a, b in zip(s, v)) for s in out for c in range(p)}
    return out


def brute_rank(rows, p: int) -> int:
    size = len(span(rows, p))
    return next(r for r in range(len(rows) + 1) if p**r == size)


def naive_mul(a, b, p: int) -> list[list[int]]:
    out = [[0] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for j in range(len(b[0])):
            for k in range(len(b)):
                out[i][j] += a[i][k] * b[k][j]
            out[i][j] %= p
    return out


def naive_poly_mul(a, b, p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
        out[i + j] = (out[i + j] + x * y) % p
    return out


def random_matrix(rng, p: int, m: int, c: int) -> list[list[int]]:
    # An m x k times a k x c matrix, k <= min(m, 4): rank at most k.
    k = rng.randint(0, min(m, 4))
    left = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
    right = [[rng.randrange(p) for _ in range(c)] for _ in range(k)]
    if k == 0:
        return [[0] * c for _ in range(m)]
    return naive_mul(left, right, p)


def matrices(rng, p: int, count: int = 25):
    for _ in range(count):
        yield random_matrix(rng, p, rng.randint(1, 4), rng.randint(1, 5))


@pytest.mark.parametrize("p", PRIMES)
def test_charpoly_at_zero_certifies_exactly_the_full_row_spaces(rng, p):
    # chi-bar(0) = (-1)^n det, so it is nonzero iff the rows span F_p^n.
    verdicts = set()
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, p, n, n)
        full = len(span(rows, p)) == p**n
        assert (modp.charpoly(rows, p)[0] != 0) == full, rows
        verdicts.add(full)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", PRIMES)
def test_left_kernel_has_full_size_and_kills_the_rows(rng, p):
    for rows in matrices(rng, p):
        kernel = modp.left_kernel(rows, p)
        assert len(kernel) == len(rows) - brute_rank(rows, p)
        assert brute_rank(kernel, p) == len(kernel)  # independent
        for w in kernel:
            assert all(v == 0 for v in naive_mul([w], rows, p)[0])


@pytest.mark.parametrize("p", PRIMES)
def test_mul_matches_the_triple_loop(rng, p):
    for _ in range(25):
        m, k, c = (rng.randint(1, 4) for _ in range(3))
        a = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
        b = [[rng.randrange(p) for _ in range(c)] for _ in range(k)]
        assert modp.mul(a, zip(*b), p) == naive_mul(a, b, p)
        v = [rng.randrange(p) for _ in range(c)]  # B v
        assert modp.mul([v], b, p)[0] == [row[0] for row in naive_mul(b, [[x] for x in v], p)]


@pytest.mark.parametrize("p", PRIMES)
def test_shift_subtracts_from_the_diagonal(rng, p):
    rows = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
    z = rng.randrange(p)
    expected = [[(a - z * (i == j)) % p for j, a in enumerate(row)] for i, row in enumerate(rows)]
    assert modp.shift(rows, z, p) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_insert_refuses_exactly_the_span(rng, p):
    for _ in range(10):
        width = rng.randint(1, 4)
        basis, inserted, spanned = modp.EchelonBasis(p), [], {(0,) * width}
        for _ in range(8):
            if inserted and rng.random() < 0.5:  # a combination of earlier vectors
                v = [sum(rng.randrange(p) * u[i] for u in inserted) % p for i in range(width)]
            else:
                v = [rng.randrange(p) for _ in range(width)]
            before = len(basis)
            added = basis.insert(v)
            assert added == (tuple(v) not in spanned)
            assert len(basis) == before + added
            if added:
                inserted.append(v)
                spanned = span(inserted, p)


def test_residues_are_none_when_p_divides_a_denominator():
    p, _ = residue_prime(1)
    values = [CycNumber.coerce(3), CycNumber.coerce(Fraction(-1, 2))]
    assert modp.residues(values) == [3, (p - 1) * pow(2, -1, p) % p]
    assert modp.residues(values + [CycNumber.coerce(Fraction(1, p))]) is None


@pytest.mark.parametrize("p", PRIMES)
def test_coprime_matches_sympy_gcd(rng, p):
    # Pairs with a random common factor or none, leading zeros, zero
    # polynomials and coefficients outside [0, p).
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("X")

    def random_poly(degree):
        return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]

    def lifted(f):  # the same residues, some shifted by +-p, and maybe a leading p
        return [c + p * rng.randint(-1, 1) for c in f] + [p] * rng.randint(0, 1)

    cases = [([], []), ([], [3]), ([p], [1]), ([1, 1], []), ([0, 1], [0, 0, 1])]
    for _ in range(40):
        common = random_poly(rng.randint(0, 2))
        a = naive_poly_mul(common, random_poly(rng.randint(0, 3)), p)
        b = naive_poly_mul(common, random_poly(rng.randint(0, 3)), p)
        cases.append((lifted(a), lifted(b)))
    verdicts = set()
    for a, b in cases:
        pa, pb = (sympy.Poly(list(reversed(f)) or [0], x, modulus=p) for f in (a, b))
        expected = sympy.gcd(pa, pb).degree() == 0
        assert modp.coprime(a, b, p) == expected, (a, b)
        assert modp.coprime(b, a, p) == expected, (a, b)
        verdicts.add(expected)
    assert verdicts == {True, False}


def charpoly_cases(rng, order: int):
    """Seeded n x n matrices over Q(zeta_order), n <= 6: dense ones, sparse
    ones (many zero subdiagonal entries, so the Hessenberg reduction must
    swap), and derogatory P J P^-1 with a repeated eigenvalue in two
    blocks, conjugated by a dense P and by a permutation."""
    zetas = [CycNumber.zeta(order, k) for k in range(order)]
    for _ in range(6):
        n = rng.randint(1, 6)
        yield ExactMatrix.from_rows(
            [[rng.choice(zetas) * rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], order=order
        )
        yield ExactMatrix.from_rows(
            [[rng.choice(zetas) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)],
            order=order,
        )
        eig = rng.choice(zetas)
        blocks = [(eig, rng.randint(1, 2)), (eig, 1), (rng.choice(zetas), rng.randint(1, 2))]
        j = jordan_matrix(blocks, order)
        n = j.rows
        p = random_invertible(rng, n, order)
        yield p * j * p.inverse()
        perm = list(range(n))
        rng.shuffle(perm)
        q = ExactMatrix.from_rows([[int(perm[i] == k) for k in range(n)] for i in range(n)], order=order)
        yield q * j * q.inverse()


@pytest.mark.parametrize("order", [1, 3, 4, 12])
def test_charpoly_is_the_residue_of_faddeev_leverrier(rng, order):
    p, _ = residue_prime(order)
    for m in charpoly_cases(rng, order):
        rows = modp.rows(m)
        assert modp.charpoly(rows, p) == modp.residues(m.charpoly()), rows
        assert modp.rows(m) == rows  # the input is not reduced in place


@pytest.mark.parametrize("p", PRIMES)
def test_multiplicity_counts_the_roots_of_a_product(rng, p):
    # X^2 - c with c no square mod p has no root, so it hides none.
    c = next(c for c in range(2, p) if all(x * x % p != c for x in range(p)))
    for _ in range(40):
        roots = [rng.randrange(p) for _ in range(rng.randint(0, 6))]
        factors = poly.from_roots(roots)
        if rng.random() < 0.5:
            factors = poly.mul(factors, [-c, 0, 1])
        lead = rng.randrange(1, p)
        coeffs = [lead * a % p for a in factors]
        for z in range(p):
            assert modp.multiplicity(coeffs, z, p) == roots.count(z), (roots, z)
