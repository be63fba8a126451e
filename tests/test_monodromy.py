import copy
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from rigidcalc import modp, monodromy
from rigidcalc import serialization as ser
from rigidcalc import (
    INFINITY,
    CycNumber,
    ExactMatrix,
    JordanType,
    MonodromyTuple,
    Puncture,
    RankOneData,
    build_F,
    centralizer_dim,
    certify_regular,
    is_absolutely_irreducible,
    is_quasi_unipotent,
    is_somewhere_maximal,
    jordan_type,
    make_tuple,
    rank_one_system,
    rigidity_index,
)
from rigidcalc.errors import (
    DimensionMismatch,
    DuplicatePuncture,
    InvalidOrder,
    NotQuasiUnipotent,
    SingularMatrix,
    UnknownPuncture,
)

from rigidcalc.convolution import _blocks, _dominant, _shifted
from rigidcalc.cyclotomic import _unity_order, residue_prime
from rigidcalc.hypergeometric import from_multiplicity_function, hypergeometric_tuple
from rigidcalc.monodromy import (
    _commutation_nullity,
    _norton_mod_p,
    _rank_sequences,
    _spans_all_matrices_mod_p,
)

from helpers import (
    brute_force_irreducible,
    jordan_matrix,
    product_relation,
    random_cyc,
    random_invertible,
    random_multiplicity,
    random_small_invertible,
)


def mat(rows, order=None):
    return ExactMatrix.from_rows(rows, order=order)


def involution_four_puncture_tuple():
    # three involutions conjugate to diag(1, -1) on punctures {0, 1, 2}
    a1 = ExactMatrix.diagonal([1, -1])
    a2 = mat([[0, 1], [1, 0]])
    a3 = mat([[1, -2], [0, -1]])
    return make_tuple(2, ["0", "1", "2"], [a1, a2, a3])


class TestMakeTuple:
    def test_f0(self):
        t = make_tuple(2, ["0", "1"], [mat([[-1]]), mat([[-1]])])
        assert t.rank == 1 and t.order == 2
        assert t.at_infinity == mat([[1]])

    def test_single_puncture(self):
        t = make_tuple(1, ["0"], [mat([[1, 1], [0, 1]])])
        assert t.at_infinity == mat([[1, -1], [0, 1]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_tuple(1, ["0", "1"], [mat([[1]]), mat([[1, 0], [0, 1]])])

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            make_tuple(1, ["0"], [mat([[1, 1], [1, 1]])])

    def test_duplicate_puncture(self):
        with pytest.raises(DuplicatePuncture):
            make_tuple(1, ["0", "0"], [mat([[1]]), mat([[1]])])

    def test_rank_zero_refused(self):
        with pytest.raises(DimensionMismatch):
            make_tuple(1, ["0"], [ExactMatrix(0, 0, [])])
        with pytest.raises(DimensionMismatch):
            make_tuple(2, ["0", "1"], [ExactMatrix(0, 0, []), ExactMatrix(0, 0, [])])

    def test_singular_exactly_when_exact_rank_is_short(self, rng):
        # The mod-p screen may only skip the exact rank on invertible
        # matrices: p and 1/p entries reach the exact rank, and a singular
        # matrix is refused whatever its reduction looks like.
        p, _ = residue_prime(1)
        q = Fraction(1, p)
        invertible = [mat([[p, 0], [0, 1]]), mat([[1, q], [0, 1]]), mat([[1, p], [1, 1]])]
        singular = [mat([[1, q], [p, 1]]), mat([[p, p], [1, 1]]), mat([[0, 0], [0, 1]])]
        for m in invertible:
            assert make_tuple(1, ["0"], [m]).rank == 2
        for m in singular:
            with pytest.raises(SingularMatrix):
                make_tuple(1, ["0"], [m])
        for order in (1, 3, 4, 12):
            for _ in range(10):
                n = rng.randint(1, 3)
                m = ExactMatrix.from_rows(
                    [[_random_entry(rng, order) for _ in range(n)] for _ in range(n)], order=order
                )
                if m.rank() == n:
                    assert make_tuple(order, ["0"], [m]).rank == n
                else:
                    with pytest.raises(SingularMatrix):
                        make_tuple(order, ["0"], [m])

    def test_puncture_parsing(self):
        assert Puncture.parse("inf").is_infinity
        assert Puncture.parse("5/2").label == Fraction(5, 2)
        # an exponent up to the bound is read as Fraction reads it
        assert Puncture.parse("1.5e-2").label == Fraction(3, 200)
        assert Puncture.parse("-2E3").label == -2000
        assert str(Puncture.finite(0)) == "0"
        assert str(INFINITY) == "inf"

    def test_zero_denominator_label_is_a_value_error(self):
        for text in ("1/0", " -3/0 "):
            with pytest.raises(ValueError):
                Puncture.parse(text)
            with pytest.raises(ValueError):
                Puncture.finite(text)


_MINUS_ONE, _ZETA4 = CycNumber.zeta(2), CycNumber.zeta(4)

#: each public entry that takes a cyclotomic order, called at that order
ORDER_ENTRIES = {
    "make_tuple": lambda n: make_tuple(n, ["0"], [mat([[_MINUS_ONE]])]),
    "MonodromyTuple": lambda n: MonodromyTuple(n, ["0"], [mat([[_MINUS_ONE]])]),
    "ExactMatrix": lambda n: ExactMatrix(1, 1, [_MINUS_ONE], order=n),
    "empty ExactMatrix": lambda n: ExactMatrix(0, 0, [], order=n),
    "companion": lambda n: ExactMatrix.companion([_ZETA4, 1], order=n),
    "identity": lambda n: ExactMatrix.identity(2, n),
    "zeros": lambda n: ExactMatrix.zeros(2, 2, n),
    "jordan_type": lambda n: jordan_type(ExactMatrix.identity(2), n),
    "is_quasi_unipotent": lambda n: is_quasi_unipotent(ExactMatrix.identity(2), n),
    "hypergeometric_tuple": lambda n: hypergeometric_tuple([1], [_MINUS_ONE], n),
    "from_multiplicity_function": lambda n: from_multiplicity_function({_MINUS_ONE: 1}, n),
    "rank_one_system": lambda n: rank_one_system(["0"], [_MINUS_ONE], n),
    "RankOneData.of": lambda n: RankOneData.of([_MINUS_ONE], n),
    "coerce": lambda n: CycNumber.coerce(_ZETA4, n),
    "zeta": lambda n: CycNumber.zeta(n),
    "from_rational": lambda n: CycNumber.from_rational(1, n),
}


@pytest.mark.parametrize("order", [0, -3])
@pytest.mark.parametrize("entry", ORDER_ENTRIES)
def test_every_entry_refuses_orders_below_one(entry, order):
    # lcm(2, -3) = 6 would read a negative order as a valid one, and
    # "order or 1" would read 0 as no order at all
    with pytest.raises(InvalidOrder):
        ORDER_ENTRIES[entry](order)


class TestMonodromyAt:
    def test_f0_points(self):
        t = build_F(0)
        assert t.monodromy_at("inf") == mat([[1]])
        assert t.monodromy_at(0) == mat([[-1]])
        assert t.monodromy_at(Fraction(1)) == mat([[-1]])

    def test_unknown(self):
        with pytest.raises(UnknownPuncture):
            build_F(0).monodromy_at(5)

    def test_product_relation(self):
        # A_inf A_r ... A_1 = I; at three punctures the order of the
        # product matters, as A_3 A_2 A_1 != A_1 A_2 A_3 there
        three = involution_four_puncture_tuple()
        a1, a2, a3 = three.matrices
        assert a3 * a2 * a1 != a1 * a2 * a3
        for t in (build_F(3), three):
            assert product_relation(t) == ExactMatrix.identity(t.rank, order=t.order)


class TestQuasiUnipotent:
    def test_examples(self):
        assert is_quasi_unipotent(mat([[1, 1], [0, 1]]), 1)
        assert is_quasi_unipotent(mat([[-1]]), 2)
        assert not is_quasi_unipotent(mat([[2]]), 1)
        assert not is_quasi_unipotent(mat([[2]]), 12)

    def test_cyclotomic_eigenvalue(self):
        # The field is Q(zeta_N), N = lcm(order, matrix.order): a matrix
        # over Q(zeta_3) is read over mu_6 at order 2 as at order 3, while
        # the rational x^2 + x + 1 needs an order that brings in zeta_3.
        z = CycNumber.zeta(3)
        assert is_quasi_unipotent(ExactMatrix.diagonal([z, z * z]), 3)
        assert is_quasi_unipotent(ExactMatrix.diagonal([z, z * z]), 2)
        rotation = ExactMatrix.companion([1, 1, 1])
        assert [is_quasi_unipotent(rotation, n) for n in (1, 2, 3, 6)] == [False, False, True, True]

    @staticmethod
    def by_powers(matrix, order):
        # Reference: (M^e - I)^n = 0, e = lcm(2, N, M.order), iff every
        # eigenvalue lies in mu_e, the roots of unity of Q(zeta_lcm(N, M.order)).
        e = math.lcm(2, order, matrix.order)
        power = matrix ** e - ExactMatrix.identity(matrix.rows, order=matrix.order)
        return (power ** matrix.rows).is_zero()

    @staticmethod
    def jordan_type_returns(matrix, order):
        try:
            jordan_type(matrix, order)
        except NotQuasiUnipotent:
            return False
        return True

    def test_agrees_with_matrix_powers(self, rng):
        # Conjugated Jordan matrices over Q(zeta_K) with eigenvalues in
        # mu_lcm(2, K), some with an extra eigenvalue 2, and generic ones,
        # each compared at every order N = 1..12: True exactly when
        # jordan_type returns, and when the power reference holds.  The
        # matrix at 0 of build_F(2) read at order 1 has the eigenvalue -1,
        # a root of unity of Q outside mu_1.
        rotation = mat([[0, -1], [1, 0]])  # eigenvalues +-i, outside Q
        assert [is_quasi_unipotent(rotation, n) for n in (1, 2, 4)] == [False, False, True]
        text = ser.canonical_dumps(ser.tuple_to_json(build_F(2))).replace('"N":2', '"N":1')
        at_zero = ser.tuple_from_json(json.loads(text)).monodromy_at("0")
        assert at_zero.order == 1 and is_quasi_unipotent(at_zero, 1)
        matrices = [rotation, mat([[2, 1], [0, 1]]), at_zero]
        for field in (1, 3, 4, 12):
            m = math.lcm(2, field)
            roots = [CycNumber.zeta(m, k) for k in range(m)]
            for extra in ([], [(2, 1)]):
                blocks = [(rng.choice(roots), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
                blocks += extra
                p = _conjugator(rng, sum(size for _, size in blocks), field)
                matrices.append(p * jordan_matrix(blocks, field) * p.inverse())
            matrices.append(mat([[random_cyc(rng, field, 2) for _ in range(3)] for _ in range(3)]))
        verdicts = []
        for m in matrices:
            for order in range(1, 13):
                expected = self.by_powers(m, order)
                assert is_quasi_unipotent(m, order) == expected, (m, order)
                assert self.jordan_type_returns(m, order) == expected, (m, order)
                verdicts.append(expected)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("order", [0, -1, -3])
    def test_order_below_one(self, order):
        # math.lcm would make -3 into 3 and 0 into a division by zero
        identity = ExactMatrix.identity(2)
        with pytest.raises(InvalidOrder):
            is_quasi_unipotent(identity, order)
        with pytest.raises(InvalidOrder):
            jordan_type(identity, order)
        assert identity._sequences is None

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            is_quasi_unipotent(mat([[1, 0, 0], [0, 1, 0]]), 2)
        with pytest.raises(DimensionMismatch):
            jordan_type(mat([[1, 0, 0], [0, 1, 0]]), 2)

    def test_jordan_type_reads_the_same_ranks(self, rng, monkeypatch):
        # No matrix power is formed, and the Jordan type at the same order
        # reads the rank sequences the test left on the matrix.
        calls = []
        exact_rank = ExactMatrix.rank
        p = _conjugator(rng, 4, 4)
        blocks = [(CycNumber.zeta(4), 2), (-1, 1), (1, 1)]
        m = p * jordan_matrix(blocks, 4) * p.inverse()
        monkeypatch.setattr(ExactMatrix, "rank", lambda a: calls.append(a) or exact_rank(a))
        monkeypatch.setattr(ExactMatrix, "__pow__", lambda a, e: pytest.fail("matrix power"))
        assert is_quasi_unipotent(m, 4)
        seen = len(calls)
        assert seen > 0
        assert jordan_type(m, 4) == JordanType.from_blocks(blocks)
        assert len(calls) == seen


class TestJordanType:
    def test_identity(self):
        jt = jordan_type(ExactMatrix.identity(3), 1)
        assert jt.blocks == ((CycNumber.one(), 1),) * 3
        assert jt.notation() == "1^{+3}"

    def test_unipotent_block(self):
        jt = jordan_type(mat([[1, 1], [0, 1]]), 1)
        assert jt == JordanType.from_blocks([(1, 2)])
        assert jt.notation() == "U(2)"

    def test_minus_unipotent(self):
        jt = jordan_type(mat([[-3, 2], [-2, 1]]), 2)
        assert jt == JordanType.from_blocks([(-1, 2)])

    def test_not_quasi_unipotent(self):
        with pytest.raises(NotQuasiUnipotent):
            jordan_type(mat([[2]]), 4)

    def test_sizes_sum_to_dimension(self, rng):
        z = CycNumber.zeta(4)
        m = ExactMatrix.from_blocks(
            [
                [mat([[1, 1], [0, 1]]), ExactMatrix.zeros(2, 2)],
                [ExactMatrix.zeros(2, 2), ExactMatrix.diagonal([z, -1])],
            ]
        )
        jt = jordan_type(m, 4)
        assert jt.total_size == 4
        assert jt == JordanType.from_blocks([(1, 2), (z, 1), (-1, 1)])

    def test_conjugation_invariance_spot(self, rng):
        m = mat([[-3, 2], [-2, 1]])
        jt = jordan_type(m, 2)
        for _ in range(20):
            p = random_invertible(rng, 2)
            assert jordan_type(p * m * p.inverse(), 2) == jt

    def test_matches_charpoly_roots(self, rng):
        # eigenvalue multiplicities against direct factorization of the
        # characteristic polynomial by trial division over mu_N
        def divide_linear(coeffs, a):
            # constant-first coefficients; divide by (X - a)
            n = len(coeffs) - 1
            quotient = [CycNumber.zero(a.order)] * n
            carry = coeffs[n]
            for k in range(n - 1, -1, -1):
                quotient[k] = carry
                carry = coeffs[k] + a * carry
            return quotient, carry

        for order, candidates in ((2, [1, -1]), (4, [1, -1, CycNumber.zeta(4), -CycNumber.zeta(4)])):
            candidates = [CycNumber.coerce(c, order) for c in candidates]
            for _ in range(5):
                n = rng.randint(2, 4)
                diagonal = [rng.choice(candidates) for _ in range(n)]
                p = random_invertible(rng, n, order=order)
                m = p * ExactMatrix.diagonal(diagonal, order=order) * p.inverse()
                jt = jordan_type(m, order)
                coeffs = list(m.charpoly())
                factored = {}
                for candidate in candidates:
                    count = 0
                    while len(coeffs) > 1:
                        quotient, remainder = divide_linear(coeffs, candidate)
                        if not remainder.is_zero():
                            break
                        coeffs = quotient
                        count += 1
                    if count:
                        factored[candidate] = count
                assert len(coeffs) == 1  # fully split over mu_N
                assert jt.eigenvalue_multiplicities() == factored


class TestCentralizer:
    def test_identity(self):
        assert centralizer_dim(ExactMatrix.identity(3)) == 9

    def test_regular_unipotent(self):
        assert centralizer_dim(mat([[1, 1], [0, 1]])) == 2

    def test_two_eigenspaces(self):
        assert centralizer_dim(ExactMatrix.diagonal([1, 1, 1, -1, -1, -1, -1])) == 25

    def test_lower_bound(self, rng):
        for n in (1, 2, 3):
            for _ in range(5):
                m = random_invertible(rng, n)
                assert centralizer_dim(m) >= n


def _conjugator(rng, n, order):
    # Unit lower times unit upper triangular, off-diagonal entries random in
    # Q(zeta_N): invertible by construction.
    def triangle(below):
        return ExactMatrix.from_rows(
            [[1 if i == j else (random_cyc(rng, order, 2) if (j < i) == below else 0)
              for j in range(n)] for i in range(n)],
            order=order,
        )

    return triangle(True) * triangle(False)


def _centralizer_from_blocks(blocks):
    # dim of the centralizer of a Jordan matrix: sum over eigenvalues of
    # sum over pairs of its blocks of min(size_a, size_b).
    total = 0
    for eig, size in blocks:
        for other, other_size in blocks:
            if other == eig:
                total += min(size, other_size)
    return total


def _commutation_nullity_sympy(matrix):
    # n^2 - rank(I (x) M - M^T (x) I), the commutation map X -> MX - XM on
    # column-stacked X, built and ranked by sympy over Q.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    n = matrix.rows
    m = sympy.Matrix(n, n, [sympy.Rational(e.as_rational()) for e in matrix.entries])
    eye = sympy.eye(n)
    system = sympy.kronecker_product(eye, m) - sympy.kronecker_product(m.T, eye)
    return n * n - DomainMatrix.from_Matrix(system).convert_to(sympy.QQ).rank()


def _every_power_ranked(matrix):
    # _rank_sequences without the screen mod p, the stop at the multiplicity
    # mod p or the trace: every u of zeta_m^u, m = lcm(2, matrix.order),
    # written at order m, and every power until a repeat or 0.
    n = matrix.rows
    m = math.lcm(2, matrix.order)
    out = {}
    for t in range(m):
        zeta = CycNumber.zeta(m, t)
        shifted = ExactMatrix.from_rows(
            [[matrix[i, j] - (zeta if i == j else 0) for j in range(n)] for i in range(n)],
            order=m,
        )
        power, ranks = shifted, [n]
        while True:
            ranks.append(power.rank())
            if not 0 < ranks[-1] < ranks[-2]:
                break
            power = power * shifted
        if ranks[1] < n:
            out[t] = ranks
    return out


class TestRankSequences:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8, 12])
    def test_constructed_jordan_data(self, rng, order):
        # mu_lcm(2, N), the roots of unity of Q(zeta_N): at odd N, the
        # -zeta_N^k too
        roots = list(dict.fromkeys(s * CycNumber.zeta(order, k) for s in (1, -1) for k in range(order)))
        for _ in range(4):
            eigenvalues = rng.sample(roots, rng.randint(1, min(3, order)))
            count = rng.randint(1, 3)
            blocks = [(rng.choice(eigenvalues), rng.randint(1, 3)) for _ in range(count)]
            p = _conjugator(rng, sum(size for _, size in blocks), order)
            m = p * jordan_matrix(blocks, order) * p.inverse()
            assert jordan_type(m, order) == JordanType.from_blocks(blocks)
            assert centralizer_dim(m) == _centralizer_from_blocks(blocks)

    @pytest.mark.parametrize("order", [1, 3, 4])
    def test_identity_mod_p_is_still_a_unipotent_block(self, order):
        # [[1, p], [0, 1]] reduces to the identity, so the nullity 1 of
        # M - I stays below the multiplicity 2 mod p, and the exact ranks
        # find U(2).
        p, _ = residue_prime(order)
        m = mat([[1, p], [0, 1]], order=order)
        assert modp.rows(m - ExactMatrix.identity(2, order=order)) == [[0, 0], [0, 0]]
        assert jordan_type(m, order) == JordanType.from_blocks([(1, 2)])
        assert centralizer_dim(m) == 2

    def test_eigenvalue_congruent_to_one_is_not_one(self):
        # 1 + p is congruent to 1 but is no root of unity: the exact rank
        # rejects zeta = 1, and the commutation system gives the dimension.
        p, _ = residue_prime(1)
        m = mat([[1 + p]])
        with pytest.raises(NotQuasiUnipotent):
            jordan_type(m, 2)
        assert centralizer_dim(m) == 1

    def test_denominator_divisible_by_p_takes_exact_path(self):
        p, _ = residue_prime(1)
        shear = mat([[1, Fraction(1, p)], [0, 1]])
        split = mat([[-1, Fraction(1, p)], [0, 1]])
        assert modp.rows(shear) is None
        assert jordan_type(shear, 1) == JordanType.from_blocks([(1, 2)])
        assert centralizer_dim(shear) == 2
        assert jordan_type(split, 2) == JordanType.from_blocks([(1, 1), (-1, 1)])
        assert centralizer_dim(split) == 2

    def test_denominator_divisible_by_p_keeps_the_exact_sequences(self, monkeypatch):
        # J with 1/p for each superdiagonal 1 is D J D^-1 for a diagonal D,
        # so it has J's sequences.  It has no residues, so no characteristic
        # polynomial mod p screens it and every t is ranked exactly.
        p, _ = residue_prime(4)
        formed = []
        charpoly = modp.charpoly
        monkeypatch.setattr(modp, "charpoly", lambda rows, q: formed.append(rows) or charpoly(rows, q))
        blocks = [(CycNumber.zeta(4, 1), 2), (CycNumber.zeta(4, 1), 1), (-1, 1), (1, 3)]
        j = jordan_matrix(blocks, 4)
        n = j.rows
        scaled = mat([[j[a, b] * (1 if a == b else Fraction(1, p)) for b in range(n)]
                      for a in range(n)], order=4)
        assert modp.rows(scaled) is None
        expected = {0: [7, 6, 5, 4, 4], 1: [7, 5, 4, 4], 2: [7, 6, 6]}
        assert _rank_sequences(scaled) == expected
        assert formed == []
        assert _rank_sequences(j) == expected
        assert len(formed) == 1
        assert jordan_type(scaled, 4) == JordanType.from_blocks(blocks)

    def test_eigenvalues_outside_the_field_fall_back(self):
        rotation = ExactMatrix.companion([1, 1, 1])  # x^2 + x + 1 over Q
        for order in (1, 2):
            with pytest.raises(NotQuasiUnipotent):
                jordan_type(rotation, order)
        assert centralizer_dim(rotation) == 2
        assert centralizer_dim(ExactMatrix.diagonal([2, 3, 3])) == 5

    def test_agrees_with_commutation_system(self, rng):
        for i in range(7):
            t = build_F(i)
            for m in t.matrices + (t.at_infinity,):
                assert centralizer_dim(m) == _commutation_nullity(m)
        for _ in range(10):  # the seeded tuples of acceptance criterion 4
            mult, order = random_multiplicity(rng, max_rank=5)
            t = from_multiplicity_function(mult, order)
            for m in t.matrices + (t.at_infinity,):
                assert centralizer_dim(m) == _commutation_nullity(m)

    def test_sympy_commutation_nullity(self, rng):
        # Rational quasi-unipotent matrices: blocks with eigenvalue +-1, and
        # the rotations x^2 + 1 and x^2 + x + 1, whose eigenvalues lie
        # outside Q, so both paths of centralizer_dim meet the oracle.
        pieces = [mat([[1]]), mat([[-1]]), mat([[1, 1], [0, 1]]), mat([[-1, 1], [0, -1]]),
                  ExactMatrix.companion([1, 0, 1]), ExactMatrix.companion([1, 1, 1])]
        for _ in range(12):
            chosen = [rng.choice(pieces) for _ in range(rng.randint(1, 3))]
            n = sum(piece.rows for piece in chosen)
            grid = [[piece if a == b else ExactMatrix.zeros(piece.rows, other.rows)
                     for b, other in enumerate(chosen)] for a, piece in enumerate(chosen)]
            p = random_invertible(rng, n)
            m = p * ExactMatrix.from_blocks(grid) * p.inverse()
            assert centralizer_dim(m) == _commutation_nullity_sympy(m)

    def test_stable_rank_read_mod_p(self, rng, monkeypatch):
        # A nullity equal to the multiplicity of the eigenvalue's residue
        # as a root of the characteristic polynomial mod p proves the
        # repeat, so the double eigenvalue 1 costs one exact rank, and the
        # trace names the simple -1 with none.  A single block U(3) needs
        # r_1 and r_2; then one eigenvalue is left, the trace says it is 1,
        # and r_3 = 0 follows.
        calls = []
        exact_rank = ExactMatrix.rank
        monkeypatch.setattr(ExactMatrix, "rank", lambda m: calls.append(m) or exact_rank(m))
        p = random_invertible(rng, 3)
        semisimple = p * ExactMatrix.diagonal([1, 1, -1]) * p.inverse()
        assert _rank_sequences(semisimple) == {0: [3, 1, 1], 1: [3, 2, 2]}
        assert len(calls) == 1
        block = p * jordan_matrix([(1, 3)], 2) * p.inverse()
        assert _rank_sequences(block) == {0: [3, 2, 1, 0]}
        assert len(calls) == 3

    def test_non_roots_take_no_exact_rank(self, rng, monkeypatch):
        # Lifted to order 12, only u = 0 and u = 6 (zeta = 1, -1) are roots
        # of the characteristic polynomial mod p; the other ten u cost no
        # exact elimination, and the trace names -1.
        calls = []
        exact_rank = ExactMatrix.rank
        monkeypatch.setattr(ExactMatrix, "rank", lambda m: calls.append(m) or exact_rank(m))
        p = random_invertible(rng, 3)
        semisimple = p * ExactMatrix.diagonal([1, 1, -1]) * p.inverse()
        assert _rank_sequences(semisimple.lift(12)) == {0: [3, 1, 1], 6: [3, 2, 2]}
        assert len(calls) == 1

    def test_trace_names_the_last_eigenvalue_without_residues(self, monkeypatch):
        # p divides a denominator, so every t of order 4 is a candidate.
        # After r_1 = 1 at zeta = 1, one eigenvalue is left and the trace
        # says it is -1: 1 is simple, i is no eigenvalue, -1 is simple, and
        # t = 3 is never reached.  Ranking every power takes 6 ranks.
        p, _ = residue_prime(4)
        calls = []
        exact_rank = ExactMatrix.rank
        monkeypatch.setattr(ExactMatrix, "rank", lambda m: calls.append(m) or exact_rank(m))
        m = mat([[1, Fraction(1, p)], [0, -1]], order=4)
        assert modp.rows(m) is None
        assert list(_rank_sequences(m).items()) == [(0, [2, 1, 1]), (2, [2, 1, 1])]
        assert len(calls) == 1

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 12])
    def test_matches_ranking_every_power(self, rng, order):
        # Seeded P J P^-1 with eigenvalues in mu_lcm(2, N) and outside the
        # roots of unity, each also as D P J P^-1 D^-1 for D = diag(p^i), so
        # that p divides a denominator; and every 1 x 1 matrix of those
        # eigenvalues.  Each is ranked at its own order N over mu_lcm(2, N),
        # and the dicts must be equal with their keys in u order.
        p, _ = residue_prime(order)
        roots = list(dict.fromkeys(s * CycNumber.zeta(order, k) for s in (1, -1) for k in range(order)))
        others = [CycNumber.from_rational(2), CycNumber.from_rational(Fraction(-1, 3)),
                  2 * CycNumber.zeta(order)]
        cases = [ExactMatrix.from_rows([[e]], order=order) for e in roots + others]
        for _ in range(4):
            pool = rng.sample(roots, min(3, len(roots))) + [rng.choice(others)]
            blocks = [(rng.choice(pool), rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
            n = sum(size for _, size in blocks)
            conjugator = _conjugator(rng, n, order)
            m = conjugator * jordan_matrix(blocks, order) * conjugator.inverse()
            scale = ExactMatrix.diagonal([p ** i for i in range(n)], order=order)
            cases += [m, scale * m * scale.inverse()]
        assert any(modp.rows(m) is None for m in cases)
        for m in cases:
            assert m.order == order
            assert list(_rank_sequences(m).items()) == list(_every_power_ranked(m).items())

    @staticmethod
    def dominant_exponent(matrix, shift=0):
        # Katz's choice for zeta_m^shift * matrix, m = lcm(2, matrix.order)
        m = _unity_order(matrix.order)
        return _dominant(_shifted(_blocks(matrix), shift, m), m)

    def test_katz_eigenvalue_tie_break(self, monkeypatch):
        # exponents u of zeta_2^u over Q: 0 for the eigenvalue 1, 1 for -1
        assert self.dominant_exponent(ExactMatrix.diagonal([1, -1])) == 0
        assert self.dominant_exponent(ExactMatrix.diagonal([-1, -1, 1])) == 1
        # no eigenvalue in mu_2: every eigenspace is 0, and zeta^0 = 1 wins
        assert self.dominant_exponent(ExactMatrix.diagonal([2, 3])) == 0
        # shift 1 scales by zeta_2 = -1: diag(1, -1, -1), where -1 wins
        assert self.dominant_exponent(ExactMatrix.diagonal([-1, 1, 1]), shift=1) == 1
        # At order 3, -zeta3 = zeta6^5, a root of unity of Q(zeta_3)
        # outside mu_3, wins over mu_6, read from the sequences the
        # quasi-unipotence test left; a tie with zeta3 = zeta6^2 goes to
        # zeta3.
        calls = []
        exact_rank = ExactMatrix.rank
        monkeypatch.setattr(ExactMatrix, "rank", lambda m: calls.append(m) or exact_rank(m))
        z = CycNumber.zeta(3)
        m = ExactMatrix.diagonal([z, -z, -z])
        assert is_quasi_unipotent(m, 3)
        seen = len(calls)
        assert self.dominant_exponent(m) == 5
        assert self.dominant_exponent(m, shift=3) == 2  # -m: zeta3 twice
        assert len(calls) == seen
        assert self.dominant_exponent(ExactMatrix.diagonal([-z, z])) == 2


class TestRankSequenceMemo:
    """The rank sequences live on the matrix object: shared by the local
    data of one tuple, recomputed for an equal but distinct one, and
    invisible to equality, hashing, display and JSON."""

    @pytest.fixture
    def rank_calls(self, monkeypatch):
        calls = []
        exact_rank = ExactMatrix.rank

        def counting(self):
            calls.append(self)
            return exact_rank(self)

        monkeypatch.setattr(ExactMatrix, "rank", counting)
        return calls

    @staticmethod
    def reparsed(t):
        return ser.tuple_from_json(json.loads(ser.canonical_dumps(ser.tuple_to_json(t))))

    @staticmethod
    def odd_order_tuple():
        z = CycNumber.zeta(5)
        return from_multiplicity_function({z: 1, z ** 2: 1, z ** 4: 2}, 5)

    def test_shared_within_one_tuple(self, rank_calls):
        # At odd N too, the Jordan types at N and the centralizers over
        # mu_lcm(2, N) read one entry per matrix.
        for t in (self.reparsed(build_F(5)), self.reparsed(self.odd_order_tuple())):
            for point in ("0", "1", "inf"):
                t.jordan_at(point)
            seen = len(rank_calls)
            assert seen > 0
            assert rigidity_index(t) == 2
            assert certify_regular(t).is_regular_via_lemma
            assert len(rank_calls) == seen
        # ranked at the tuple's order 5, never lifted to 10 to reach -1
        t = self.reparsed(self.odd_order_tuple())
        seen = len(rank_calls)
        assert rigidity_index(t) == 2
        assert {m.order for m in rank_calls[seen:]} == {5}

    def test_equal_tuple_recomputes(self, rank_calls):
        t = build_F(5)
        t.jordan_at("inf")
        copy = self.reparsed(t)
        assert copy == t and copy.matrices[0] is not t.matrices[0]
        seen = len(rank_calls)
        assert copy.jordan_at("inf") == t.jordan_at("inf")
        assert len(rank_calls) > seen

    def test_a_larger_field_ranks_a_copy(self, rank_calls):
        # Q(zeta_4) has roots of unity that Q lacks, so jordan_type at
        # order 4 ranks a lifted copy, before and after the matrix keeps
        # its own table over mu_2, and leaves that table as it was.
        m = mat([[1, 1, 0], [0, 1, 0], [0, 0, -1]])
        expected = JordanType.from_blocks([(1, 2), (-1, 1)])
        assert jordan_type(m, 4) == expected
        assert m._sequences is None
        assert jordan_type(m, 1) == expected
        table = m._sequences
        kept = copy.deepcopy(table)
        seen = len(rank_calls)
        assert jordan_type(m, 4) == expected
        assert len(rank_calls) > seen and {a.order for a in rank_calls[seen:]} == {4}
        assert m._sequences is table and table == kept == {0: [3, 2, 1, 1], 1: [3, 2, 2]}

    def test_invisible(self):
        m, twin = (mat([[1, 1, 0], [0, 1, 0], [0, 0, -1]]) for _ in range(2))
        shown = (repr(m), hash(m), ser.canonical_dumps(ser.matrix_to_json(m)))
        assert jordan_type(m, 1) == JordanType.from_blocks([(1, 2), (-1, 1)])
        assert m._sequences and twin._sequences is None
        assert (repr(m), hash(m), ser.canonical_dumps(ser.matrix_to_json(m))) == shown
        assert m == twin and hash(m) == hash(twin)


class TestRigidityIndex:
    def test_rank_one_three_punctures(self):
        t = build_F(0)
        assert rigidity_index(t) == 2

    def test_four_puncture_involutions(self):
        assert rigidity_index(involution_four_puncture_tuple()) == 0

    def test_invariant_under_identity_puncture(self):
        t = build_F(2)
        extended = make_tuple(
            t.order,
            list(t.punctures) + [Puncture.finite(7)],
            list(t.matrices) + [ExactMatrix.identity(t.rank, order=t.order)],
        )
        assert rigidity_index(extended) == rigidity_index(t) == 2

    def test_invariant_under_conjugation(self, rng):
        t = build_F(1)
        p = random_invertible(rng, t.rank, order=t.order)
        assert rigidity_index(t.conjugate_by(p)) == rigidity_index(t)


class TestIrreducibility:
    def test_rank_one(self):
        assert is_absolutely_irreducible(build_F(0))

    def test_common_eigenvectors(self):
        d = ExactMatrix.diagonal([1, -1])
        t = make_tuple(2, ["0", "1"], [d, d])
        assert not is_absolutely_irreducible(t)

    def test_f1(self):
        assert is_absolutely_irreducible(build_F(1))

    def test_triangular_pair_reducible(self):
        t = make_tuple(1, ["0", "1"], [mat([[1, 1], [0, 1]]), mat([[1, 2], [0, 1]])])
        assert not is_absolutely_irreducible(t)

    def test_agrees_with_brute_force(self, rng):
        corpus = [
            build_F(1),
            make_tuple(2, ["0", "1"], [ExactMatrix.diagonal([1, -1])] * 2),
            make_tuple(1, ["0", "1"], [mat([[1, 1], [0, 1]]), mat([[1, 0], [1, 1]])]),
        ]
        for _ in range(6):
            n = rng.choice([2, 3])
            t = make_tuple(
                1, ["0", "1"], [random_small_invertible(rng, n) for _ in range(2)]
            )
            corpus.append(t)
        for t in corpus:
            assert is_absolutely_irreducible(t) == brute_force_irreducible(t)


def _random_entry(rng, order):
    return rng.choice([0, 1, -1] + [CycNumber.zeta(order, k) for k in range(1, order)])


def _random_invertible_over(rng, n, order):
    # Entries 0, +-1 or a root of unity, by rejection.
    while True:
        m = ExactMatrix.from_rows(
            [[_random_entry(rng, order) for _ in range(n)] for _ in range(n)], order=order
        )
        if m.rank() == n:
            return m


def _block_triangular_tuple(rng, n, k, order):
    # Every generator is block upper triangular, so span(e_1..e_k) is
    # invariant; one random conjugation then hides the subspace.
    matrices = []
    for _ in range(2):
        top = _random_invertible_over(rng, k, order)
        bottom = _random_invertible_over(rng, n - k, order)
        rows = [
            [top[i, j] for j in range(k)] + [_random_entry(rng, order) for _ in range(n - k)]
            for i in range(k)
        ] + [[0] * k + [bottom[i, j] for j in range(n - k)] for i in range(n - k)]
        matrices.append(ExactMatrix.from_rows(rows, order=order))
    return make_tuple(order, ["0", "1"], matrices).conjugate_by(random_invertible(rng, n, order))


class TestModularCertificate:
    @pytest.mark.parametrize("order", [3, 4, 5, 8, 12])
    def test_agrees_with_brute_force_over_cyclotomic_fields(self, rng, order):
        corpus = [
            make_tuple(order, ["0", "1"], [_random_invertible_over(rng, n, order) for _ in range(2)])
            for n in (2, 2, 3)
        ]
        corpus.append(_block_triangular_tuple(rng, 3, 1, order))
        verdicts = [is_absolutely_irreducible(t) for t in corpus]
        assert verdicts == [brute_force_irreducible(t) for t in corpus]
        assert verdicts[-1] is False

    @pytest.mark.parametrize("order", [1, 3, 4, 12])
    def test_conjugated_block_triangular_is_reducible(self, rng, order):
        for n, k in ((2, 1), (3, 1), (3, 2), (4, 2)):
            t = _block_triangular_tuple(rng, n, k, order)
            assert not _spans_all_matrices_mod_p(t)
            assert not is_absolutely_irreducible(t)

    def test_denominator_divisible_by_p_takes_exact_path(self):
        p, _ = residue_prime(1)
        shear = mat([[1, Fraction(1, p)], [0, 1]])
        irreducible = make_tuple(1, ["0", "1"], [shear, mat([[1, 0], [1, 1]])])
        reducible = make_tuple(1, ["0", "1"], [shear, mat([[1, 2], [0, 1]])])
        for t, expected in ((irreducible, True), (reducible, False)):
            assert t._reduction is None
            assert _norton_mod_p(t) is None
            assert not _spans_all_matrices_mod_p(t)
            assert is_absolutely_irreducible(t) is expected
            assert brute_force_irreducible(t) is expected

    def test_short_span_mod_p_falls_back_to_exact(self):
        # [[1, p], [0, 1]] is the identity mod p, so the span mod p stops at
        # dimension 2, while over Q the pair generates all of M_2.
        p, _ = residue_prime(1)
        t = make_tuple(1, ["0", "1"], [mat([[1, p], [0, 1]]), mat([[1, 0], [1, 1]])])
        assert not _spans_all_matrices_mod_p(t)
        assert is_absolutely_irreducible(t) and brute_force_irreducible(t)

    def test_modular_closure_certifies_family_and_hypergeometric(self, rng):
        for i in range(9):
            assert _spans_all_matrices_mod_p(build_F(i)), i
        for _ in range(20):  # the seeded tuples of acceptance criterion 4
            m, order = random_multiplicity(rng, max_rank=6)
            assert _spans_all_matrices_mod_p(from_multiplicity_function(m, order))

    def test_rank_thirteen_is_fast(self):
        t = build_F(12)  # rank 13: about a minute with the exact closure alone
        start = time.perf_counter()
        assert is_absolutely_irreducible(t)
        assert time.perf_counter() - start < 2

    def test_rigidity_at_rank_thirteen_is_fast(self):
        t = build_F(12)  # rank 13: 5.7 s through the commutation systems
        start = time.perf_counter()
        assert rigidity_index(t) == 2
        assert time.perf_counter() - start < 2


class TestSomewhereMaximal:
    def test_f6_witness_infinity(self):
        assert is_somewhere_maximal(build_F(6)) == INFINITY

    def test_no_witness(self):
        d = ExactMatrix.diagonal([1, -1])
        t = make_tuple(2, ["0", "1"], [d, d])
        assert is_somewhere_maximal(t) is None
        assert not certify_regular(t).is_regular_via_lemma
        assert str(certify_regular(t)) == "Unknown"

    def test_rank_one_witnessed_at_infinity_first(self):
        # every puncture of a rank-one tuple is a single block; the scan
        # starts at infinity, so that is the reported witness
        t = build_F(0)
        assert is_somewhere_maximal(t) == INFINITY
        assert str(certify_regular(t)) == "RegularViaLemma(inf)"

    def test_finite_witness(self):
        t = make_tuple(2, ["0", "1"], [mat([[1, 1], [0, 1]]), ExactMatrix.diagonal([1, -1])])
        # at infinity the product inverse has eigenvalues 1 and -1 (two
        # blocks), so the scan falls through to the finite puncture 0
        assert t.jordan_at(INFINITY).block_count == 2
        assert is_somewhere_maximal(t) == Puncture.finite(0)

    def test_not_quasi_unipotent(self):
        t = make_tuple(1, ["0"], [mat([[2]])])
        with pytest.raises(NotQuasiUnipotent):
            is_somewhere_maximal(t)

    def test_witness_after_a_point_outside_the_field(self):
        # golden-ratio eigenvalues at infinity, U(2) at 1: the scan passes
        # infinity and finds the witness at 1
        t = make_tuple(1, ["0", "1"], [mat([[0, 1], [1, 0]]), mat([[1, 1], [0, 1]])])
        assert not is_quasi_unipotent(t.at_infinity, 1)
        assert is_somewhere_maximal(t) == Puncture.finite(1)
        assert str(certify_regular(t)) == "RegularViaLemma(1)"


class TestJordanNotation:
    def test_mixed(self):
        jt = JordanType.from_blocks([(1, 1)] * 3 + [(-1, 1)] * 4)
        assert jt.notation() == "1^{+3} (+) (-1)^{+4}"

    def test_single_big_block(self):
        assert JordanType.from_blocks([(1, 7)]).notation() == "U(7)"

    def test_minus_tensor(self):
        assert JordanType.from_blocks([(-1, 2)]).notation() == "(-1) (x) U(2)"

    def test_zeta_block(self):
        z = CycNumber.zeta(3)
        assert JordanType.from_blocks([(z, 2)]).notation() == "(zeta3) (x) U(2)"


def _beukers_heckman_reducible(rng):
    # The 90 tuples of test_hypergeometric's shared-parameter test: a_i = b_j
    # for some i, j, so the group is reducible (Beukers-Heckman, Prop. 3.3).
    for order, n, _ in itertools.product(range(3, 13), (2, 3, 4), range(3)):
        a_params = [CycNumber.zeta(order, rng.randrange(order)) for _ in range(n)]
        b_params = [CycNumber.zeta(order, rng.randrange(order)) for _ in range(n)]
        b_params[rng.randrange(n)] = a_params[rng.randrange(n)]
        yield hypergeometric_tuple(a_params, b_params, order)


@pytest.fixture
def closure_calls(monkeypatch):
    """Calls of the mod-p closure and of the exact closure, by name."""
    calls = []
    modular = monodromy._spans_all_matrices_mod_p

    def counting_modular(t):
        calls.append("mod p")
        return modular(t)

    class CountingSpanBasis(monodromy._SpanBasis):
        def __init__(self):
            calls.append("exact")
            super().__init__()

    monkeypatch.setattr(monodromy, "_spans_all_matrices_mod_p", counting_modular)
    monkeypatch.setattr(monodromy, "_SpanBasis", CountingSpanBasis)
    return calls


class TestNortonCertificate:
    def test_certifies_family_and_hypergeometric(self, rng):
        for i in range(9):
            assert _norton_mod_p(build_F(i)) is True, i
        for _ in range(20):  # the seeded tuples of acceptance criterion 4
            m, order = random_multiplicity(rng, max_rank=6)
            assert _norton_mod_p(from_multiplicity_function(m, order)) is True

    @pytest.mark.parametrize("order", [1, 3, 4, 12])
    def test_never_true_on_block_triangular(self, rng, order):
        for n, k in ((2, 1), (3, 1), (3, 2), (4, 2)):
            assert _norton_mod_p(_block_triangular_tuple(rng, n, k, order)) is not True

    def test_never_true_on_shared_hypergeometric_parameters(self, rng):
        tuples = list(_beukers_heckman_reducible(rng))
        assert len(tuples) == 90
        for t in tuples:
            assert _norton_mod_p(t) is not True

    def test_no_nullity_one_theta_reaches_the_modular_closure(self, closure_calls):
        # No eigenvalue of A, B or AB is +-1, over Q or mod p, so every
        # theta is invertible.  The pair is irreducible; A with itself spans
        # only the 2-dimensional algebra Q[A].
        a, b = mat([[1, 1], [1, 2]]), mat([[2, 1], [1, 1]])
        for t, expected in (
            (make_tuple(1, ["0", "1"], [a, b]), True),
            (make_tuple(1, ["0", "1"], [a, a]), False),
        ):
            closure_calls.clear()
            assert _norton_mod_p(t) is None
            assert is_absolutely_irreducible(t) is expected
            assert brute_force_irreducible(t) is expected
            assert closure_calls[0] == "mod p"

    @pytest.fixture
    def shifts(self, monkeypatch):
        """(rows, z) for every modp.shift formed."""
        calls = []
        shift = modp.shift

        def recording_shift(rows, z, p):
            calls.append((rows, z))
            return shift(rows, z, p)

        monkeypatch.setattr(modp, "shift", recording_shift)
        return calls

    def test_shifts_only_at_roots_of_the_characteristic_polynomial(self, shifts, closure_calls):
        # The pair above at order 12: no 12th root of unity z has
        # z + 1/z = 3 or 6 mod p, so no residue of mu_12 is a root of the
        # characteristic polynomial of A, B or AB mod p.  No theta is
        # formed, and the mod-p closure decides.
        a, b = mat([[1, 1], [1, 2]]), mat([[2, 1], [1, 1]])
        t = make_tuple(12, ["0", "1"], [a, b])
        assert _norton_mod_p(t) is None
        assert shifts == []
        assert is_absolutely_irreducible(t)
        assert closure_calls == ["mod p"]

    def test_pseudo_reflection_eigenvalue_past_the_first_n_exponents(self, shifts, closure_calls):
        # a = zeta^(3, 4, 5) and b = zeta^(6, 7, 2) at N = 12: A_0 = B^-1
        # has eigenvalues zeta^(6, 5, 10), A_1 A_0 = A^-1 has zeta^(9, 8,
        # 7), and A_1 = A^-1 B is a pseudo-reflection with
        # special eigenvalue prod b / prod a = zeta^3.  So the first theta
        # of nullity 1 is A_1 - zeta^3, past the first n = 3 exponents.
        zeta = [CycNumber.zeta(12, k) for k in range(12)]
        t = hypergeometric_tuple([zeta[3], zeta[4], zeta[5]], [zeta[6], zeta[7], zeta[2]], 12)
        p, r = residue_prime(12)
        assert _norton_mod_p(t) is True
        assert [z for _, z in shifts] == [1, pow(r, 3, p)]  # A_1 - I has nullity 2
        for rows, z in shifts:
            assert modp.multiplicity(modp.charpoly(rows, p), z, p) > 0
        assert is_absolutely_irreducible(t)
        assert closure_calls == []
        assert jordan_type(t.matrices[1], 12) == JordanType.from_blocks(
            [(1, 1), (1, 1), (zeta[3], 1)]
        )

    def test_large_conductor_costs_one_evaluation_per_residue(self):
        # A seeded rank-8 pair over Q at N = 997 with no eigenvalue in
        # mu_1994: each of the 3 * 1994 candidate thetas costs one Horner
        # evaluation of a characteristic polynomial mod p, not an
        # elimination.
        rng = random.Random(997)
        a, b = (random_small_invertible(rng, 8) for _ in range(2))
        t = make_tuple(997, ["0", "1"], [a, b])
        start = time.process_time()
        assert _norton_mod_p(t) is None
        assert time.process_time() - start < 1

    def test_only_the_transposed_spin_catches_this_reduction(self, closure_calls):
        # span(e_1) is the only invariant line: it is invariant under both,
        # and B moves e_2, the other eigenvector of A.  The singular thetas
        # are A - I, B - I and BA - I, each with kernel outside span(e_1),
        # so every forward spin is the whole plane (a spin meeting span(e_1)
        # only in 0 would be a second invariant line).  Their transposes
        # have kernels in span(e_2), the annihilator of span(e_1), which the
        # transposed generators keep.
        a, b = ExactMatrix.diagonal([2, 1]), mat([[3, 1], [0, 1]])
        t = make_tuple(1, ["0", "1"], [a, b])
        identity = ExactMatrix.identity(2)
        for theta in (a - identity, b - identity, b * a - identity):
            (kernel,) = theta.kernel_basis()
            assert kernel[1] != 0
        assert _norton_mod_p(t) is False
        assert not is_absolutely_irreducible(t) and not brute_force_irreducible(t)
        assert closure_calls == ["exact"]  # a short spin skips the mod-p closure

    def test_rank_thirteen_reaches_neither_closure(self, closure_calls):
        # a fresh tuple: the cached build_F(12) may already hold its verdict
        assert is_absolutely_irreducible(make_tuple(2, ["0", "1"], build_F(12).matrices))
        assert closure_calls == []


class TestReductionAtConstruction:
    """Each generator is reduced mod p once, when its tuple is built."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        """Calls of modp.rows and modp.charpoly, by name."""
        calls = []
        for name in ("rows", "charpoly"):
            def counting(*args, _name=name, _f=getattr(modp, name)):
                calls.append(_name)
                return _f(*args)

            monkeypatch.setattr(modp, name, counting)
        return calls

    def test_irreducibility_reduces_nothing_again_and_changes_nothing(self, rng, reductions):
        # Norton's test takes chi-bar of the product alone; the F_p closure
        # and the exact closure take none.  A block triangular tuple runs
        # the spins and the F_p closure too.  build_F is cached and keeps
        # its verdict, so each member is read into a fresh tuple.
        corpus = [make_tuple(2, ["0", "1"], build_F(i).matrices) for i in range(9)]
        for _ in range(20):  # the seeded tuples of acceptance criterion 4
            m, order = random_multiplicity(rng, max_rank=6)
            corpus.append(from_multiplicity_function(m, order))
        corpus += [_block_triangular_tuple(rng, 3, 1, order) for order in (1, 3, 4, 12)]
        for t in corpus:
            before = copy.deepcopy(t._reduction)
            reductions.clear()
            is_absolutely_irreducible(t)
            assert reductions == ["charpoly"], t
            assert t._reduction == before

    def test_singular_mod_p_generator_builds_through_the_exact_rank(self, monkeypatch):
        # diag(p, 1) is invertible, but chi-bar(0) = det mod p = 0: its
        # exact rank decides, and only its.  [[1, 1], [0, 1]] is certified
        # by chi-bar(0) = 1.
        p, _ = residue_prime(1)
        ranked = []
        rank = ExactMatrix.rank
        monkeypatch.setattr(ExactMatrix, "rank", lambda m: ranked.append(m) or rank(m))
        scaled, shear = ExactMatrix.diagonal([p, 1]), mat([[1, 1], [0, 1]])
        t = make_tuple(1, ["0", "1"], [scaled, shear])
        assert ranked == [scaled]
        assert t._reduction[0] == p
        assert [chi[0] for chi in t._reduction[2]] == [0, 1]

    @pytest.mark.parametrize("order", [1, 3, 4, 12])
    def test_singular_generator_still_raises(self, rng, order):
        # Products through a k-dimensional space, k < n, next to an
        # invertible generator: chi-bar(0) = 0, and the exact rank refuses.
        for n in (1, 2, 3):
            for k in range(n):
                if k:
                    left, right = (
                        ExactMatrix.from_rows(
                            [[_random_entry(rng, order) for _ in range(c)] for _ in range(r)], order=order
                        )
                        for r, c in ((n, k), (k, n))
                    )
                    singular = left * right
                else:
                    singular = ExactMatrix.from_rows([[0] * n] * n, order=order)
                invertible = _random_invertible_over(rng, n, order)
                with pytest.raises(SingularMatrix):
                    make_tuple(order, ["0", "1"], [invertible, singular])
