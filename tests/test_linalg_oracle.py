"""ExactMatrix rank, det, charpoly and Jordan type against sympy.

Small seeded random matrices over Q and Q(i) = Q(zeta_4).  sympy computes
rank, determinant and characteristic polynomial in its own Gaussian-rational
domain (``DomainMatrix`` over ``QQ_I``) and the Jordan form with
``Matrix.jordan_form``, so no elimination of rigidcalc takes part.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from helpers import random_invertible
from rigidcalc import CycNumber, ExactMatrix, JordanType, jordan_type

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

# Q as order 1, Q(i) as order 4: zeta_4 = i, power basis (1, i)
ORDERS = (1, 4)


def as_sympy(x: CycNumber):
    re, im = (sympy.Rational(c.numerator, c.denominator) for c in x.lift(4).coeffs)
    return re + sympy.I * im


def from_sympy(value) -> CycNumber:
    re, im = (sympy.Rational(part) for part in sympy.expand(value).as_real_imag())
    return CycNumber(4, [Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))])


def domain_matrix(m: ExactMatrix) -> DomainMatrix:
    rows = [[QQ_I.from_sympy(as_sympy(m[i, j])) for j in range(m.cols)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), QQ_I)


def random_entry(rng, order: int) -> CycNumber:
    parts = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(1 if order == 1 else 2)]
    return CycNumber(order, parts)


def random_matrix(rng, order: int, n: int) -> ExactMatrix:
    """An n x n matrix of rank drawn from 0..n: a product n x k by k x n."""
    k = rng.randint(0, n)
    left = ExactMatrix(n, k, [random_entry(rng, order) for _ in range(n * k)], order)
    right = ExactMatrix(k, n, [random_entry(rng, order) for _ in range(k * n)], order)
    if k == 0:
        return ExactMatrix.zeros(n, n, order)
    return left * right


@pytest.mark.parametrize("order", ORDERS)
def test_rank_det_charpoly(rng, order):
    for _ in range(12):
        m = random_matrix(rng, order, rng.randint(1, 5))
        oracle = domain_matrix(m)
        assert m.rank() == oracle.rank()
        assert as_sympy(m.det()) == QQ_I.to_sympy(oracle.det())
        expected = [QQ_I.to_sympy(c) for c in oracle.charpoly()][::-1]  # constant term first
        assert [as_sympy(c) for c in m.charpoly()] == expected


def sympy_jordan_type(m: ExactMatrix) -> JordanType:
    # Blocks of sympy's Jordan form: a block continues while the
    # superdiagonal entry is 1.
    _, form = sympy.Matrix(m.rows, m.cols, [as_sympy(e) for e in m.entries]).jordan_form()
    blocks = []
    start = 0
    for i in range(m.rows):
        if i == m.rows - 1 or form[i, i + 1] == 0:
            blocks.append((from_sympy(form[start, start]), i - start + 1))
            start = i + 1
    return JordanType.from_blocks(blocks)


@pytest.mark.parametrize("order", ORDERS)
def test_jordan_type(rng, order):
    # P J P^-1 for a Jordan matrix J with eigenvalues among the roots of
    # unity of the field: +-1 in Q, +-1 and +-i in Q(i)
    roots = [CycNumber.zeta(max(order, 2), k) for k in range(max(order, 2))]
    for _ in range(6):
        n = rng.randint(1, 4)
        entries = [[0] * n for _ in range(n)]
        i = 0
        while i < n:
            size = rng.randint(1, n - i)
            eig = rng.choice(roots)
            for j in range(i, i + size):
                entries[j][j] = eig
                if j + 1 < i + size:
                    entries[j][j + 1] = 1
            i += size
        p = random_invertible(rng, n, order)
        m = p * ExactMatrix.from_rows(entries, order=order) * p.inverse()
        assert jordan_type(m, max(order, 2)) == sympy_jordan_type(m)
