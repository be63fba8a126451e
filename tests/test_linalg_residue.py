"""ExactMatrix products, determinants, ranks and inverses over Q(zeta_N) with
phi(N) >= 4, checked through the residue map.

With (p, r) = residue_prime(N), zeta -> r is a ring homomorphism from
Z_(p)[zeta] onto F_p (see CycNumber.residue).  It commutes with sums and
products, so the residue of A * B is the product of the residue matrices
and the residue of det A is the determinant of the residue matrix; a minor
that is nonzero mod p is nonzero, so rank A is at least the rank mod p.
The products, determinants and ranks mod p below are computed on plain ints
in this file, so no elimination of rigidcalc takes part on that side.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from rigidcalc import CycNumber, ExactMatrix, euler_phi
from rigidcalc.cyclotomic import residue_prime

ORDERS = (5, 7, 8, 12)


def random_entry(rng, order: int) -> CycNumber:
    # Denominators up to 6 in every coefficient, and zeros now and then.
    if rng.random() < 0.2:
        return CycNumber.zero(order)
    return CycNumber(
        order, [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(euler_phi(order))]
    )


def random_matrix(rng, order: int, rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix(rows, cols, [random_entry(rng, order) for _ in range(rows * cols)], order)


def random_square(rng, order: int, n: int) -> ExactMatrix:
    """An n x n matrix of rank at most k, k drawn from 0..n: n x k times k x n."""
    k = rng.randint(0, n)
    if k == 0:
        return ExactMatrix.zeros(n, n, order)
    return random_matrix(rng, order, n, k) * random_matrix(rng, order, k, n)


def residues(m: ExactMatrix) -> list[list[int]]:
    out = [[e.residue() for e in m.row(i)] for i in range(m.rows)]
    assert all(v is not None for row in out for v in row)  # p > 2^30 divides no denominator
    return out


def matmul_mod(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def echelon_mod(rows: list[list[int]], p: int) -> tuple[int, int]:
    """(rank, determinant when square) by Gaussian elimination over F_p."""
    rows = [list(r) for r in rows]
    det, rank = 1, 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        inv = pow(rows[rank][c], -1, p)
        det = det * rows[rank][c] % p
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank, det % p


@pytest.mark.parametrize("order", ORDERS)
def test_product_commutes_with_residues(rng, order):
    p, _ = residue_prime(order)
    for _ in range(10):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = random_matrix(rng, order, n, k), random_matrix(rng, order, k, m)
        assert residues(a * b) == matmul_mod(residues(a), residues(b), p)


@pytest.mark.parametrize("order", ORDERS)
def test_det_and_rank_against_residues(rng, order):
    p, _ = residue_prime(order)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = random_square(rng, order, n) if rng.random() < 0.5 else random_matrix(rng, order, n, n)
        rank_p, det_p = echelon_mod(residues(a), p)
        assert a.det().residue() == det_p
        assert a.rank() >= rank_p
        assert (a.rank() == n) == (not a.det().is_zero())


@pytest.mark.parametrize("order", ORDERS)
def test_inverse_times_matrix_is_identity(rng, order):
    done = 0
    while done < 6:
        n = rng.randint(1, 5)
        a = random_matrix(rng, order, n, n)
        if a.det().is_zero():
            continue
        identity = ExactMatrix.identity(n, order)
        inverse = a.inverse()
        assert inverse * a == identity and a * inverse == identity
        done += 1
