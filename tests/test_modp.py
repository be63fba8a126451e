"""The F_p layer (rigidcalc.modp) against brute force at small primes.

Every function takes p, so the primes here are 5, 7 and 11, small enough to
enumerate a row space outright: p^rank must be its size.  Matrices are
seeded products of an m x k and a k x c matrix, so their rank is at most
k <= 4 and often short.  Squarefreeness is compared with sympy's
square-free factorization over F_p: a polynomial is squarefree iff every
multiplicity in ``Poly(..., modulus=p).sqf_list()`` is 1.  (sympy 1.14's
``Poly.is_sqf`` calls X^p - 1 squarefree mod p, whose derivative vanishes,
although its own sqf_list gives (X - 1)^p.)
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from rigidcalc import CycNumber, modp
from rigidcalc.cyclotomic import residue_prime

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
def test_rank_is_the_log_of_the_row_space_size(rng, p):
    for rows in matrices(rng, p):
        assert modp.rank(rows, p) == brute_rank(rows, p), rows


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
def test_is_squarefree_matches_sympy(rng, p):
    sympy = pytest.importorskip("sympy")
    cases = [
        [0, p - 1] + [0] * (p - 2) + [1],  # X^p - X: every element of F_p, once
        [p - 1] + [0] * (p - 1) + [1],  # (X - 1)^p = X^p - 1 over F_p
    ]
    for _ in range(40):
        factor = [rng.randrange(p) for _ in range(rng.randint(0, 3))] + [1]
        rest = [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [rng.randrange(1, p)]
        square = naive_poly_mul(factor, factor, p) if rng.random() < 0.5 else factor
        cases.append(naive_poly_mul(square, rest, p))
    verdicts = set()
    for a in cases:
        _, factors = sympy.Poly(list(reversed(a)), sympy.Symbol("X"), modulus=p).sqf_list()
        expected = all(k == 1 for _, k in factors)
        assert modp.is_squarefree(a, p) == expected, a
        verdicts.add(expected)
    assert verdicts == {True, False}

