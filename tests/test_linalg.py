from fractions import Fraction

import pytest

from rigidcalc import CycNumber, ExactMatrix
from rigidcalc.errors import DimensionMismatch, SingularMatrix

from helpers import random_cyc, random_invertible


def mat(rows, order=None):
    return ExactMatrix.from_rows(rows, order=order)


class TestRankKernel:
    def test_rank_one_kernel(self):
        rank, basis = mat([[1, 1], [1, 1]]).rank_kernel()
        assert rank == 1
        assert len(basis) == 1
        assert [str(x) for x in basis[0]] == ["1", "-1"]

    def test_identity(self):
        rank, basis = ExactMatrix.identity(3).rank_kernel()
        assert rank == 3 and basis == ()

    def test_nilpotent_block(self):
        rank, basis = mat([[0, 2], [0, 0]]).rank_kernel()
        assert rank == 1
        assert [str(x) for x in basis[0]] == ["1", "0"]

    def test_kernel_vectors_annihilate(self, rng):
        for _ in range(25):
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
            m = mat(rows)
            rank, basis = m.rank_kernel()
            assert rank + len(basis) == 4
            for v in basis:
                assert all(x.is_zero() for x in m.mul_vector(v))

    def test_rank_invariant_under_permutations(self, rng):
        for _ in range(10):
            rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            m = mat(rows)
            r = m.rank()
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert mat(shuffled).rank() == r
            cols = list(range(4))
            rng.shuffle(cols)
            assert mat([[row[c] for c in cols] for row in shuffled]).rank() == r

    def test_rank_over_cyclotomics(self, rng):
        z = CycNumber.zeta(3)
        m = mat([[z, 1], [z * z, z]])  # second row = z * first row
        assert m.rank() == 1
        rank, basis = m.rank_kernel()
        for v in basis:
            assert all(x.is_zero() for x in m.mul_vector(v))

    def test_fast_path_matches_generic(self, rng):
        # M is rational and zeta3 * M is not; both run through the one
        # elimination on CycNumbers.  Scaling by a unit keeps rank and rref,
        # and det picks up zeta3^n.
        z = CycNumber.zeta(3)
        for _ in range(15):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3:
                rows[-1] = [2 * a for a in rows[0]] if n > 1 else [0]  # singular
            m = mat(rows, order=3)
            scaled = m * z
            assert scaled.rank() == m.rank()
            reduced, pivots = m.rref()
            assert reduced.order == 3
            assert scaled.rref() == (reduced, pivots)
            assert scaled.det() == z ** n * m.det()


class TestInverse:
    def test_examples(self):
        assert mat([[-1]]).inverse() == mat([[-1]])
        assert mat([[1, 1], [0, 1]]).inverse() == mat([[1, -1], [0, 1]])
        assert mat([[2, 1], [1, 1]]).inverse() == mat([[1, -1], [-1, 2]])

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            mat([[1, 1], [1, 1]]).inverse()

    def test_round_trip(self, rng):
        for n in (1, 2, 3, 4):
            m = random_invertible(rng, n)
            assert m.inverse() * m == ExactMatrix.identity(n)
            assert m * m.inverse() == ExactMatrix.identity(n)

    def test_cyclotomic_inverse(self, rng):
        z = CycNumber.zeta(12)
        m = mat([[z, 1], [0, z ** -1]])
        assert m * m.inverse() == ExactMatrix.identity(2, order=12)


class TestDeterminant:
    def test_small(self):
        assert mat([[2, 1], [1, 1]]).det() == 1
        assert mat([[1, 2], [3, 4]]).det() == -2
        assert mat([[1, 1], [1, 1]]).det().is_zero()

    def test_multiplicative(self, rng):
        for _ in range(10):
            a = random_invertible(rng, 3)
            b = random_invertible(rng, 3)
            assert (a * b).det() == a.det() * b.det()

    def test_swap_sign(self):
        assert mat([[0, 1], [1, 0]]).det() == -1


class TestCharpoly:
    def test_identity(self):
        coeffs = ExactMatrix.identity(2).charpoly()
        assert [str(c) for c in coeffs] == ["1", "-2", "1"]

    def test_companion_recovers_polynomial(self):
        poly = [2, -3, 1]  # X^2 - 3X + 2
        c = ExactMatrix.companion(poly)
        assert [x.as_rational() for x in c.charpoly()] == [Fraction(2), Fraction(-3), Fraction(1)]

    def test_constant_term_is_signed_det(self, rng):
        for n in (2, 3):
            m = random_invertible(rng, n)
            coeffs = m.charpoly()
            assert coeffs[0] == m.det() * (-1) ** n


class TestStructure:
    def test_companion_shape(self):
        c = ExactMatrix.companion([1, 1, 1])
        assert c == mat([[0, -1], [1, -1]])
        with pytest.raises(ValueError):
            ExactMatrix.companion([1, 2])

    def test_from_blocks(self):
        top = ExactMatrix.identity(2)
        m = ExactMatrix.from_blocks(
            [[top, ExactMatrix.zeros(2, 1)], [ExactMatrix.zeros(1, 2), mat([[5]])]]
        )
        assert m == mat([[1, 0, 0], [0, 1, 0], [0, 0, 5]])

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatch):
            mat([[1, 2], [3]])
        with pytest.raises(DimensionMismatch):
            mat([[1, 2]]) * mat([[1, 2]])
        with pytest.raises(DimensionMismatch):
            mat([[1, 2]]) + mat([[1], [2]])

    def test_pow(self):
        u = mat([[1, 1], [0, 1]])
        assert u ** 3 == mat([[1, 3], [0, 1]])
        assert u ** -2 == mat([[1, -2], [0, 1]])
        assert u ** 0 == ExactMatrix.identity(2)

    def test_transpose_trace(self):
        m = mat([[1, 2], [3, 4]])
        assert m.transpose() == mat([[1, 3], [2, 4]])
        assert m.trace() == 5

    def test_rref_idempotent(self, rng):
        for _ in range(10):
            rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)]
            reduced, pivots = mat(rows).rref()
            again, pivots2 = reduced.rref()
            assert again == reduced and pivots == pivots2

    def test_mixed_order_entries_lift(self):
        m = mat([[CycNumber.zeta(3), CycNumber.zeta(4)]])
        assert m.order == 12
        assert all(e.order == 12 for e in m.entries)

    def test_entries_at_the_order_are_not_coerced(self, monkeypatch, rng):
        calls = []
        coerce = CycNumber.coerce

        def counting(value, order=1):
            calls.append(value)
            return coerce(value, order)

        monkeypatch.setattr(CycNumber, "coerce", staticmethod(counting))
        entries = [random_cyc(rng, 12) for _ in range(9)]
        a = ExactMatrix(3, 3, entries, order=12)
        b = ExactMatrix(3, 3, entries)
        assert a == b and a.order == b.order == 12
        assert a.entries == tuple(entries)
        a * b
        assert calls == []
        # mixed ints, Fractions and lower orders still lift to the lcm
        half, z3, z4 = Fraction(1, 2), CycNumber.zeta(3), CycNumber.zeta(4)
        for order in (None, 3, 6):
            m = ExactMatrix(2, 2, [1, half, z3, z4], order=order)
            assert m.order == 12 and all(e.order == 12 for e in m.entries)
            assert list(m.entries) == [1, half, z3, z4]
            assert m.entries[2].nums == CycNumber.zeta(12, 4).nums
        assert calls
