import itertools
import math

import pytest

from rigidcalc import poly, serialization as ser
from rigidcalc import (
    INFINITY,
    CycNumber,
    ExactMatrix,
    JordanType,
    MultiplicityFunction,
    certify_regular,
    from_multiplicity_function,
    hypergeometric_tuple,
    is_absolutely_irreducible,
    is_somewhere_maximal,
    make_tuple,
    rigidity_index,
)
from rigidcalc.errors import DimensionMismatch, EmptyParameters, EmptySupport, NotRootOfUnity


def pseudo_reflection_rank(t):
    a1 = t.monodromy_at(1)
    return (a1 - ExactMatrix.identity(t.rank, order=t.order)).rank()


def inverse_reference(a_params, b_params, order):
    """(B^-1, A^-1 B, A) for the companion matrices A and B of prod(T - a_j)
    and prod(T - b_j), through ExactMatrix.inverse and a matrix product."""
    a = [CycNumber.coerce(x, order) for x in a_params]
    b = [CycNumber.coerce(x, order) for x in b_params]
    order = math.lcm(order, *(x.order for x in a + b))
    a_mat, b_mat = (
        ExactMatrix.companion(poly.from_roots([x.lift(order) for x in roots]), order=order) for roots in (a, b)
    )
    return b_mat.inverse(), a_mat.inverse() * b_mat, a_mat


def random_multiplicity(rng, max_rank=6):
    order = rng.choice([2, 3, 4, 6, 8, 12])
    total = rng.randint(1, max_rank)
    keys = [CycNumber.zeta(order, k) for k in range(1, order)]
    rng.shuffle(keys)
    chosen = keys[: rng.randint(1, min(3, len(keys), total))]
    counts = [1] * len(chosen)
    for _ in range(total - len(chosen)):
        counts[rng.randrange(len(chosen))] += 1
    return MultiplicityFunction.of(list(zip(chosen, counts))), order


class TestHypergeometricTuple:
    def test_rank_one(self):
        t = hypergeometric_tuple([1], [-1], 2)
        assert t.rank == 1
        assert t.jordan_at("0") == JordanType.from_blocks([(-1, 1)])
        assert t.jordan_at("1") == JordanType.from_blocks([(-1, 1)])
        assert t.jordan_at("inf") == JordanType.from_blocks([(1, 1)])

    def test_rank_two_with_cube_roots(self):
        z = CycNumber.zeta(3)
        t = hypergeometric_tuple([1, 1], [z, z * z], 3)
        assert t.rank == 2
        assert t.jordan_at("inf") == JordanType.from_blocks([(1, 2)])
        assert t.jordan_at("0") == JordanType.from_blocks([(z.inverse(), 1), ((z * z).inverse(), 1)])
        assert pseudo_reflection_rank(t) == 1

    def test_companion_convention(self):
        z = CycNumber.zeta(3)
        t = hypergeometric_tuple([1, 1], [z, z * z], 3)
        # A = companion of (T-1)^2 = T^2 - 2T + 1, B = companion of T^2+T+1
        assert t.at_infinity == ExactMatrix.from_rows([[0, -1], [1, 2]], order=3)  # A itself
        assert t.monodromy_at(0).inverse().charpoly() == ExactMatrix.from_rows(
            [[0, -1], [1, -1]], order=3
        ).charpoly()

    def test_intersecting_parameters_reducible(self):
        t = hypergeometric_tuple([1, -1], [1, CycNumber.zeta(4)], 4)
        assert not is_absolutely_irreducible(t)

    def test_empty_parameters(self):
        with pytest.raises(EmptyParameters):
            hypergeometric_tuple([], [], 2)

    def test_unequal_length(self):
        with pytest.raises(DimensionMismatch):
            hypergeometric_tuple([1], [1, -1], 2)

    def test_not_root_of_unity(self):
        with pytest.raises(NotRootOfUnity):
            hypergeometric_tuple([2], [-1], 2)
        with pytest.raises(NotRootOfUnity):
            hypergeometric_tuple([2], [1], 1)

    def test_order_covers_each_parameter(self):
        # -1 and -zeta3 have orders 2 and 6, but lie in Q(zeta_1) and
        # Q(zeta_3): the tuple stays at the field's order and equals the
        # one written at the multiplicative order
        assert hypergeometric_tuple([-1], [1], 1).order == 1
        assert hypergeometric_tuple([-1], [1], 1) == hypergeometric_tuple([-1], [1], 2)
        minus_zeta3 = -CycNumber.zeta(3)
        t = hypergeometric_tuple([minus_zeta3], [1], 3)
        assert t.order == 3
        assert t == hypergeometric_tuple([minus_zeta3], [1], 6)
        assert hypergeometric_tuple([1, 1], [CycNumber.zeta(6), -1], 3).order == 6


class TestMultiplicityFunction:
    def test_single_key(self):
        t = from_multiplicity_function({CycNumber.from_rational(-1): 3}, 2)
        assert t.rank == 3
        assert t.jordan_at("0") == JordanType.from_blocks([(-1, 3)])
        assert t.jordan_at("inf") == JordanType.from_blocks([(1, 3)])

    def test_rank_adds_up(self):
        z = CycNumber.zeta(3)
        t = from_multiplicity_function({z: 1, z * z: 1}, 3)
        assert t.rank == 2

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            from_multiplicity_function(MultiplicityFunction(()), 2)

    def test_key_validation(self):
        with pytest.raises(ValueError):
            MultiplicityFunction.of({CycNumber.one(): 1})
        with pytest.raises(NotRootOfUnity):
            MultiplicityFunction.of({CycNumber.from_rational(2): 1})
        with pytest.raises(ValueError):
            MultiplicityFunction.of([(CycNumber.from_rational(-1), 0)])

    def test_repeated_key_rejected(self):
        minus_one_a = CycNumber.from_rational(-1, 2)
        minus_one_b = CycNumber.from_raw([0, 0, 1, 0], 4)
        with pytest.raises(ValueError):
            MultiplicityFunction.of([(minus_one_a, 1), (minus_one_b, 2)])


class TestClosedForm:
    """B^-1 and A^-1 B from the coefficients alone (Levelt's closed form)
    equal the build through ExactMatrix.inverse, and A_inf = (A_1 A_0)^-1
    is A itself."""

    def check(self, t, a_params, b_params, order):
        at_zero, at_one, at_infinity = inverse_reference(a_params, b_params, order)
        assert t.matrices == (at_zero, at_one), (a_params, b_params, order)
        assert t.at_infinity == at_infinity, (a_params, b_params, order)
        reference = make_tuple(t.order, ["0", "1"], [at_zero, at_one])
        assert ser.canonical_dumps(ser.tuple_to_json(t)) == ser.canonical_dumps(ser.tuple_to_json(reference))

    def test_seeded_parameters(self, rng):
        # beta_0 is not +-1 on most of these, so c_0^-1 != c_0 is exercised
        for _ in range(60):
            order, n = rng.randint(1, 24), rng.randint(1, 6)
            roots = [s * CycNumber.zeta(order, k) for s in (1, -1) for k in range(order)]
            a, b = ([rng.choice(roots) for _ in range(n)] for _ in range(2))
            self.check(hypergeometric_tuple(a, b, order), a, b, order)

    def test_multiplicity_functions(self, rng):
        for _ in range(30):
            m, order = random_multiplicity(rng)
            b = [key for key, mult in m.items() for _ in range(mult)]
            self.check(from_multiplicity_function(m, order), [1] * m.rank, b, order)

    def test_no_matrix_inverse_or_product(self, rng, monkeypatch):
        calls = []
        inverse, product = ExactMatrix.inverse, ExactMatrix.__mul__

        def counted_product(m, x):
            if isinstance(x, ExactMatrix):
                calls.append("product")
            return product(m, x)

        monkeypatch.setattr(ExactMatrix, "inverse", lambda m: calls.append("inverse") or inverse(m))
        monkeypatch.setattr(ExactMatrix, "__mul__", counted_product)
        z = CycNumber.zeta(12)
        hypergeometric_tuple([z, z ** 4, -1], [1, z ** 7, z ** 2], 12)
        for _ in range(10):
            from_multiplicity_function(*random_multiplicity(rng))
        assert calls == []


class TestRandomCorpus:
    def test_rank_formula(self, rng):
        for _ in range(50):
            m, order = random_multiplicity(rng)
            t = from_multiplicity_function(m, order)
            assert t.rank == m.rank
            assert pseudo_reflection_rank(t) <= 1
            assert is_somewhere_maximal(t) == INFINITY
            assert str(certify_regular(t)) == "RegularViaLemma(inf)"
            det = (
                t.at_infinity.det()
                * t.monodromy_at(0).det()
                * t.monodromy_at(1).det()
            )
            assert det.is_one()
            # single unipotent block at infinity; one block per key at 0
            assert t.jordan_at("inf") == JordanType.from_blocks([(1, t.rank)])
            expected_zero = JordanType.from_blocks(
                [(key.inverse(), mult) for key, mult in m.items()]
            )
            assert t.jordan_at("0") == expected_zero

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_odd_order_with_negated_parameters(self, rng, order):
        # Parameters in mu_2N, written at odd N, one of them -zeta_N^k, and
        # a, b disjoint.  The local data by construction: A at infinity and
        # B^-1 at 0 are companion matrices, one block per distinct
        # eigenvalue; A^-1 B at 1 is a pseudo-reflection with special
        # eigenvalue det = prod b / prod a, a unipotent U(2) when that is 1.
        def regular(values):
            return JordanType.from_blocks([(v, values.count(v)) for v in dict.fromkeys(values)])

        roots = list(dict.fromkeys(s * CycNumber.zeta(order, k) for s in (1, -1) for k in range(order)))
        for _ in range(4):
            n = rng.randint(1, 3)
            negated = -CycNumber.zeta(order, rng.randrange(order))
            a_pool = [negated] + rng.sample([r for r in roots if r != negated], order - 1)
            b_pool = [r for r in roots if r not in a_pool]
            a = [negated] + [rng.choice(a_pool) for _ in range(n - 1)]
            b = [rng.choice(b_pool) for _ in range(n)]
            t = hypergeometric_tuple(a, b, order)
            assert t.order == order, (a, b)
            assert t.jordan_at("inf") == regular(a), (a, b)
            assert t.jordan_at("0") == regular([v.inverse() for v in b]), (a, b)
            special = CycNumber.one()
            for x, y in zip(a, b):
                special = special * y / x
            if n == 1:
                at_one = [(special, 1)]
            elif special.is_one():
                at_one = [(1, 1)] * (n - 2) + [(1, 2)]
            else:
                at_one = [(1, 1)] * (n - 1) + [(special, 1)]
            assert t.jordan_at("1") == JordanType.from_blocks(at_one), (a, b)

    def test_disjoint_parameters_rigid_irreducible(self, rng):
        for _ in range(8):
            order = rng.choice([3, 4, 6])
            n = rng.randint(2, 3)
            exponents = list(range(order))
            rng.shuffle(exponents)
            split = rng.randint(1, order - 1)
            a_pool, b_pool = exponents[:split], exponents[split:]
            a_params = [CycNumber.zeta(order, rng.choice(a_pool)) for _ in range(n)]
            b_params = [CycNumber.zeta(order, rng.choice(b_pool)) for _ in range(n)]
            t = hypergeometric_tuple(a_params, b_params, order)
            assert is_absolutely_irreducible(t)
            assert rigidity_index(t) == 2
            assert pseudo_reflection_rank(t) <= 1

    def test_shared_parameter_reducible(self, rng):
        # Beukers-Heckman, Invent. Math. 95 (1989), Prop. 3.3: the group is
        # irreducible iff a_i != b_j for all i, j.  Only the exact Burnside
        # closure can answer False, so every case here runs it.
        for order, n, _ in itertools.product(range(3, 13), (2, 3, 4), range(3)):
            a_params = [CycNumber.zeta(order, rng.randrange(order)) for _ in range(n)]
            b_params = [CycNumber.zeta(order, rng.randrange(order)) for _ in range(n)]
            b_params[rng.randrange(n)] = a_params[rng.randrange(n)]
            t = hypergeometric_tuple(a_params, b_params, order)
            assert not is_absolutely_irreducible(t), (order, a_params, b_params)
