import json
import math
import time

import pytest

from rigidcalc import (
    INFINITY,
    CycNumber,
    ExactMatrix,
    JordanType,
    RankOneData,
    build_F,
    hypergeometric_tuple,
    is_absolutely_irreducible,
    is_quasi_unipotent,
    jordan_type,
    katz_reduce,
    katz_reduce_step,
    make_tuple,
    middle_convolution,
    rank_one_system,
    rigidity_index,
    tensor_rank_one,
)
from rigidcalc import convolution, serialization
from rigidcalc.cyclotomic import _root_of_unity, _unity_order
from rigidcalc.errors import (
    AlreadyRankOne,
    NegativeIndex,
    NoProgress,
    NotIrreducible,
    NotRigid,
    NotRootOfUnity,
    PunctureMismatch,
    RigidCalcError,
    ZeroLambda,
    ZeroRank,
    ZeroScalar,
)

from helpers import hypergeometric_over_q, product_relation, random_cyc


def mat(rows, order=None):
    return ExactMatrix.from_rows(rows, order=order)


def local_types(t):
    return {str(p): t.jordan_at(p) for p in t.punctures + (INFINITY,)}


def infinity_by_inverse(matrices):
    # (A_r ... A_1)^-1 formed here, not through MonodromyTuple.at_infinity
    product = matrices[0]
    for m in matrices[1:]:
        product = m * product
    return product.inverse()


def rank_of_shift(m, value):
    # rank(m - value I) by one exact elimination
    return (m - ExactMatrix.identity(m.rows, order=m.order) * value).rank()


def declared_at_order_one(t):
    # a rational tuple of order 2 read back from JSON with every "N" set to 1
    text = serialization.canonical_dumps(serialization.tuple_to_json(t))
    return serialization.tuple_from_json(json.loads(text.replace('"N":2', '"N":1')))


def twisted_order_five_tuple():
    # the rank-2 tuple a = (zeta5, zeta5^2), b = (zeta5^3, 1) twisted by (-1, -1)
    z = CycNumber.zeta(5)
    t = hypergeometric_tuple([z, z ** 2], [z ** 3, 1], 5)
    return tensor_rank_one(t, RankOneData.of([-1, -1]))


def seeded_hypergeometric(rng, order, min_rank=1):
    """A hypergeometric tuple over Q(zeta_order) with disjoint parameter
    sets, so it is irreducible and rigid (Beukers-Heckman)."""
    exponents = list(range(order))
    rng.shuffle(exponents)
    cut = rng.randint(1, order - 1)
    n = rng.randint(min_rank, 4)
    a = [CycNumber.zeta(order, rng.choice(exponents[:cut])) for _ in range(n)]
    b = [CycNumber.zeta(order, rng.choice(exponents[cut:])) for _ in range(n)]
    return hypergeometric_tuple(a, b, order)


def seeded_walk(rng, order, max_rank=7, tries=6):
    """MC/twist walk on the punctures 0, 1, 2 over Q(zeta_order): from a
    rank-one system with scalars != 1, each try twists by seeded roots of
    unity and convolves with a seeded lambda != 1 in mu_lcm(2, N), and is
    kept when the rank grows and stays at most max_rank.  Every tuple of
    the walk is irreducible and rigid (Katz, Rigid Local Systems, ch. 5)."""
    m = _unity_order(order)
    t = rank_one_system(["0", "1", "2"], [_root_of_unity(order, rng.randrange(1, m)) for _ in range(3)], order)
    walk = [t]
    for _ in range(tries):
        twist = RankOneData.of([_root_of_unity(order, rng.randrange(m)) for _ in range(3)], order)
        try:
            out = middle_convolution(tensor_rank_one(walk[-1], twist), _root_of_unity(order, rng.randrange(1, m)))
        except ZeroRank:
            continue
        if walk[-1].rank < out.rank <= max_rank:
            walk.append(out)
    return walk


def direct_sum(s, t):
    mats = []
    for a, b in zip(s.matrices, t.matrices):
        rows = [list(a.row(i)) + [0] * b.rows for i in range(a.rows)]
        rows += [[0] * a.rows + list(b.row(i)) for i in range(b.rows)]
        mats.append(mat(rows, order=math.lcm(a.order, b.order)))
    return make_tuple(math.lcm(s.order, t.order), s.punctures, mats)


def block_rows(t, lam):
    """Block row k of each generator B_k of MC_lambda, an n x rn matrix:
    A_j - I for j < k, lam*A_k at j = k, lam*(A_j - I) for j > k.  Outside
    block row k, B_k is the identity (Dettweiler-Reiter's definition)."""
    order = math.lcm(t.order, lam.order)
    lam = lam.lift(order)
    mats = [m.lift(order) for m in t.matrices]
    identity = ExactMatrix.identity(t.rank, order=order)
    shifted = [m - identity for m in mats]
    scaled = [s * lam for s in shifted]
    return [
        ExactMatrix.from_blocks([shifted[:k] + [m * lam] + scaled[k + 1 :]])
        for k, m in enumerate(mats)
    ]


def reference_middle_convolution(t, lam):
    """MC_lambda by its definition, at size rn throughout: the full rn x rn
    generators B_k, L as the kernel of the stacked B_k - I, and the action
    on the quotient read off T^-1 B_k T in the basis T of the reduced
    rows of K + L followed by the unit vectors off their pivots."""
    lam = CycNumber.coerce(lam)
    order = math.lcm(t.order, lam.order)
    n = t.rank
    big = len(t.matrices) * n
    identity = ExactMatrix.identity(big, order=order)
    generators = []
    for k, block_row in enumerate(block_rows(t, lam)):
        rows = identity.to_lists()
        rows[k * n : (k + 1) * n] = block_row.to_lists()
        generators.append(mat(rows, order))
    stacked = [row for b in generators for row in (b - identity).to_lists()]
    spanning = [list(v) for v in mat(stacked, order).kernel_basis()]
    for j, a in enumerate(t.matrices):
        for v in (a.lift(order) - ExactMatrix.identity(n, order=order)).kernel_basis():
            spanning.append([0] * (j * n) + list(v) + [0] * (big - (j + 1) * n))
    reduced, pivots = mat(spanning, order).rref()
    d = len(pivots)
    complement = [c for c in range(big) if c not in pivots]
    if not complement:
        raise ValueError("rank 0")
    columns = [reduced.row(i) for i in range(d)] + [identity.row(c) for c in complement]
    basis = mat(columns, order).transpose()
    inverse = basis.inverse()
    quotients = []
    for b in generators:
        moved = inverse * b * basis
        assert all(moved[i, j].is_zero() for i in range(d, big) for j in range(d))
        quotients.append(mat([[moved[i, j] for j in range(d, big)] for i in range(d, big)], order))
    return make_tuple(order, t.punctures, quotients)


class TestRankOne:
    def test_minus_minus(self):
        t = rank_one_system(["0", "1"], [-1, -1], 2)
        assert t.monodromy_at(0) == mat([[-1]])
        assert t.monodromy_at(1) == mat([[-1]])
        assert t.at_infinity == mat([[1]])

    def test_derived_infinity_scalar(self):
        t = rank_one_system(["0", "1"], [1, -1], 2)
        assert t.at_infinity == mat([[-1]])

    def test_zero_scalar(self):
        with pytest.raises(ZeroScalar):
            rank_one_system(["0", "1"], [0, 1], 2)

    def test_not_root_of_unity(self):
        with pytest.raises(NotRootOfUnity, match=r"of Q\(zeta_2\)$"):
            rank_one_system(["0"], [2], 2)
        with pytest.raises(NotRootOfUnity, match=r"of Q\(zeta_2\)$"):
            rank_one_system(["0"], [CycNumber.zeta(3)], 2)

    def test_root_of_unity_verdicts_match_the_power_reference(self, rng, monkeypatch):
        # s is accepted iff s^lcm(2, N) = 1, that is, s is a root of unity
        # of Q(zeta_N), read off its multiplicative order: no power is
        # taken.  -zeta_N at odd N is a root of unity of order 2N.
        cases = []
        for order in range(1, 13):
            zeta = CycNumber.zeta(order)
            scalars = [2, 1 + zeta, -zeta, zeta, random_cyc(rng, order)]
            scalars += [CycNumber.zeta(k, rng.randrange(k)) for k in rng.sample(range(1, 13), 4)]
            for s in scalars:
                s = CycNumber.coerce(s, order)
                if not s.is_zero():
                    cases.append((s, order, s ** math.lcm(2, order) == 1))
        powers = []
        power = CycNumber.__pow__
        monkeypatch.setattr(CycNumber, "__pow__", lambda s, e: powers.append(e) or power(s, e))
        for s, order, expected in cases:
            try:
                rank_one_system(["0"], [s], order)
            except NotRootOfUnity:
                assert not expected, (s, order)
            else:
                assert expected, (s, order)
        assert powers == []
        assert {expected for *_, expected in cases} == {True, False}
        # -1 over Q and -zeta3 over Q(zeta_3) are among the accepted
        accepted = {(s, order) for s, order, expected in cases if expected}
        assert {(CycNumber.coerce(-1, 1), 1), (-CycNumber.zeta(3), 3)} <= accepted


class TestTensor:
    def test_identity_twist(self):
        t = build_F(1)
        twisted = tensor_rank_one(t, RankOneData.of([1, 1]))
        assert twisted == t

    def test_trivializing_twist(self):
        t = build_F(0)
        twisted = tensor_rank_one(t, RankOneData.of([-1, -1]))
        assert twisted.monodromy_at(0) == mat([[1]])
        assert twisted.monodromy_at(1) == mat([[1]])

    def test_mc_f0_twisted_is_f1(self):
        twisted = tensor_rank_one(middle_convolution(build_F(0), -1), RankOneData.of([1, -1]))
        types = local_types(twisted)
        assert types["0"] == JordanType.from_blocks([(1, 2)])
        assert types["1"] == JordanType.from_blocks([(-1, 2)])
        assert types["inf"] == JordanType.from_blocks([(1, 2)])

    def test_puncture_mismatch(self):
        with pytest.raises(PunctureMismatch):
            tensor_rank_one(build_F(1), RankOneData.of([1, 1, 1]))

    def test_jordan_eigenvalues_scale(self, rng):
        # The twist by (c_k) scales every eigenvalue at puncture k by c_k and
        # every one at infinity by (prod c_k)^-1, and keeps the block sizes.
        # c_k = +-zeta_N^j ranges over mu_lcm(2, N), the roots of unity of
        # Q(zeta_N); at odd N the first is -zeta_N^j, which is outside mu_N.
        cases = [(build_F(2), [-1, 1])] + [(build_F(i), None) for i in range(1, 7)]
        cases += [(seeded_hypergeometric(rng, order, min_rank=2), None) for order in (3, 5, 6, 12)]
        for t, scalars in cases:
            if scalars is None:
                signs = [rng.choice((1, -1)) for _ in t.punctures]
                signs[0] = -1 if t.order % 2 else signs[0]
                scalars = [sign * CycNumber.zeta(t.order, rng.randrange(t.order)) for sign in signs]
            twisted = tensor_rank_one(t, RankOneData.of(scalars))
            product = CycNumber.one()
            for c in scalars:
                product = product * c
            for point, c in [*zip(("0", "1"), scalars), ("inf", product.inverse())]:
                blocks = [(eig * c, size) for eig, size in t.jordan_at(point).blocks]
                assert twisted.jordan_at(point) == JordanType.from_blocks(blocks), (t, scalars, point)


class TestMiddleConvolution:
    def test_generators_hand_computation(self):
        rows = block_rows(build_F(0), CycNumber.from_rational(-1))
        assert rows == [mat([[1, 2]]), mat([[-2, 1]])]
        # B_k is the identity outside its block row k
        gens = [mat([rows[k].row(0) if i == k else [int(i == j) for j in range(2)] for i in range(2)])
                for k in range(2)]
        assert gens[0] == mat([[1, 2], [0, 1]])
        assert gens[1] == mat([[1, 0], [-2, 1]])
        product = gens[0] * gens[1]
        assert product == mat([[-3, 2], [-2, 1]])
        assert jordan_type(product, 2) == JordanType.from_blocks([(-1, 2)])

    def test_mc_f0(self):
        out = middle_convolution(build_F(0), -1)
        assert out.rank == 2
        types = local_types(out)
        assert types["0"] == JordanType.from_blocks([(1, 2)])
        assert types["1"] == JordanType.from_blocks([(1, 2)])
        assert types["inf"] == JordanType.from_blocks([(-1, 2)])

    def test_mc_f1_rank(self):
        assert middle_convolution(build_F(1), -1).rank == 3

    def test_mc_one_is_identity_on_irreducible(self):
        t = make_tuple(1, ["0", "1"], [mat([[1, 1], [0, 1]]), mat([[1, 0], [1, 1]])])
        out = middle_convolution(t, 1)
        assert out.rank == 2
        for point in ("0", "1"):
            assert out.jordan_at(point) == t.jordan_at(point)
        # the infinity monodromy has distinct non-cyclotomic eigenvalues, so
        # equal characteristic polynomials pin the conjugacy class
        assert out.at_infinity.charpoly() == t.at_infinity.charpoly()

    def test_zero_lambda(self):
        with pytest.raises(ZeroLambda):
            middle_convolution(build_F(0), 0)

    def test_product_relation_preserved(self):
        out = middle_convolution(build_F(2), -1)
        assert product_relation(out) == ExactMatrix.identity(out.rank, order=out.order)

    def test_lambda_outside_field_lifts_order(self):
        t = make_tuple(1, ["0", "1"], [mat([[1, 1], [0, 1]]), mat([[1, 0], [1, 1]])])
        out = middle_convolution(t, CycNumber.zeta(3))
        assert out.order == 3

    def test_involution_small(self):
        for i in range(3):
            t = build_F(i)
            back = middle_convolution(middle_convolution(t, -1), -1)
            assert back.rank == t.rank
            for point in ("0", "1", "inf"):
                assert back.jordan_at(point) == t.jordan_at(point)


class TestReferenceMiddleConvolution:
    """middle_convolution against the definition, byte for byte in the
    canonical JSON, and on the rank-0 collapses."""

    @staticmethod
    def canonical(function, t, lam):
        try:
            out = function(t, lam)
        except ValueError:
            return None
        return serialization.canonical_dumps(serialization.tuple_to_json(out))

    def calls(self, rng):
        for i in range(7):
            for lam in (1, -1, CycNumber.zeta(3), CycNumber.zeta(4)):
                yield build_F(i), lam
        for order in (3, 4, 5, 6, 8, 12):
            tuples = [seeded_hypergeometric(rng, order) for _ in range(3)]
            tuples.append(hypergeometric_tuple([CycNumber.zeta(order)], [1], order))
            for t in tuples:
                for k in range(order):
                    yield t, CycNumber.zeta(order, k)
        trivial = make_tuple(1, ["0", "1"], [mat([[1]]), mat([[1]])])
        for t in (direct_sum(build_F(1), build_F(0)), direct_sum(build_F(1), trivial)):
            for lam in (1, -1):
                yield t, lam

    def test_matches_definition(self, rng):
        outcomes = []
        for t, lam in self.calls(rng):
            expected = self.canonical(reference_middle_convolution, t, lam)
            assert self.canonical(middle_convolution, t, lam) == expected, (t, lam)
            outcomes.append(expected)
        assert len(outcomes) == 184
        assert None in outcomes


class TestBuildF:
    def test_f0(self):
        t = build_F(0)
        assert t.rank == 1
        types = local_types(t)
        assert types["0"] == JordanType.from_blocks([(-1, 1)])
        assert types["1"] == JordanType.from_blocks([(-1, 1)])
        assert types["inf"] == JordanType.from_blocks([(1, 1)])

    def test_f2(self):
        t = build_F(2)
        assert t.rank == 3
        types = local_types(t)
        assert types["0"] == JordanType.from_blocks([(1, 1), (-1, 1), (-1, 1)])
        assert types["1"] == JordanType.from_blocks([(1, 3)])
        assert types["inf"] == JordanType.from_blocks([(1, 3)])

    def test_f6(self):
        t = build_F(6)
        assert t.rank == 7
        types = local_types(t)
        assert types["0"] == JordanType.from_blocks([(1, 1)] * 3 + [(-1, 1)] * 4)
        assert types["1"] == JordanType.from_blocks([(1, 3), (1, 2), (1, 2)])
        assert types["inf"] == JordanType.from_blocks([(1, 7)])

    def test_negative_index(self):
        with pytest.raises(NegativeIndex):
            build_F(-1)

    def test_family_is_quasi_unipotent_of_order_two(self):
        for i in range(5):
            t = build_F(i)
            for point in ("0", "1", "inf"):
                assert is_quasi_unipotent(t.monodromy_at(point), 2)

    def test_cache_returns_same_object(self):
        assert build_F(3) is build_F(3)


class TestKatzReduce:
    def test_step_on_f1_reaches_rank_one(self):
        twist, lam, result = katz_reduce_step(build_F(1))
        assert result.rank == 1
        assert lam == -1

    def test_step_on_f6(self):
        twist, lam, result = katz_reduce_step(build_F(6))
        assert result.rank < 7
        assert rigidity_index(result) == 2
        assert is_absolutely_irreducible(result)

    def test_not_rigid(self):
        a1 = ExactMatrix.diagonal([1, -1])
        a2 = mat([[0, 1], [1, 0]])
        a3 = mat([[1, -2], [0, -1]])
        t = make_tuple(2, ["0", "1", "2"], [a1, a2, a3])
        with pytest.raises(NotRigid):
            katz_reduce_step(t)

    def test_already_rank_one(self):
        with pytest.raises(AlreadyRankOne):
            katz_reduce_step(build_F(0))

    def test_reducible_input_refused(self):
        # a_1 = b_2 = 1: Beukers-Heckman reducible, so no rigidity index is taken
        z = CycNumber.zeta(3)
        with pytest.raises(NotIrreducible):
            katz_reduce(hypergeometric_tuple([1, z], [z ** 2, 1], 3))

    def test_reduce_rank_one_empty_trace(self):
        assert katz_reduce(build_F(0)).steps == ()

    def test_reduce_family(self):
        for i in (1, 2, 4):
            trace = katz_reduce(build_F(i))
            ranks = [step.rank for step in trace.steps]
            assert ranks[-1] == 1
            assert len(ranks) <= i
            assert all(a > b for a, b in zip([i + 1] + ranks, ranks))

    def test_reduce_family_declared_at_order_one(self):
        # Q(zeta_1) = Q(zeta_2): the same reduction, with -1 = zeta_2
        # written at order 1
        for i in range(1, 7):
            steps = katz_reduce(declared_at_order_one(build_F(i))).steps
            expected = katz_reduce(build_F(i)).steps
            assert [(s.rank, s.twist.scalars, s.lam) for s in steps] == [
                (s.rank, s.twist.scalars, s.lam) for s in expected]
            assert all(s.lam.order == 1 for s in steps)

    def test_reduce_twist_by_minus_one_at_odd_order(self):
        # The (-1, -1) twist puts -zeta5^a at every puncture.
        steps = katz_reduce(twisted_order_five_tuple()).steps
        assert [s.rank for s in steps] == [1]
        assert steps[0].twist.scalars == (-1, -1)

    def test_reduce_hypergeometric(self):
        from rigidcalc import hypergeometric_tuple

        z = CycNumber.zeta(6)
        t = hypergeometric_tuple([1, 1, 1, 1], [z, z ** 5, -1, z ** 2], 6)
        trace = katz_reduce(t)
        assert trace.steps[-1].rank == 1


class TestDettweilerReiterDimension:
    """For lambda != 1 and an irreducible tuple, Dettweiler-Reiter give
    rank MC_lambda = sum_k rk(A_k - I) + rk(A_inf - lambda I) - n."""

    @staticmethod
    def expected_rank(t, lam):
        shifts = [rank_of_shift(m, 1) for m in t.matrices]
        return sum(shifts) + rank_of_shift(infinity_by_inverse(t.matrices), lam) - t.rank

    def check(self, t, lam):
        expected = self.expected_rank(t, lam)
        assert expected >= 0
        if expected == 0:
            with pytest.raises(ValueError):
                middle_convolution(t, lam)
            return 0
        out = middle_convolution(t, lam)
        assert out.rank == expected
        assert product_relation(out) == ExactMatrix.identity(out.rank, order=out.order)
        return expected

    def test_family_at_minus_one(self):
        for i in range(7):
            # MC_(-1)(F_i), twisted, is F_(i+1) of rank i + 2
            assert self.check(build_F(i), CycNumber.from_rational(-1)) == i + 2

    @pytest.mark.parametrize("order", [3, 4, 5, 8, 12])
    def test_hypergeometric_every_lambda(self, rng, order):
        # the rank-one tuple with A_0 = 1 collapses at lambda = A_inf = zeta
        tuples = [seeded_hypergeometric(rng, order) for _ in range(2)]
        tuples.append(hypergeometric_tuple([CycNumber.zeta(order)], [1], order))
        ranks = [self.check(t, CycNumber.zeta(order, k)) for t in tuples for k in range(1, order)]
        assert 0 in ranks


def roots_of_unity(order):
    """mu_lcm(2, N), the roots of unity of Q(zeta_N), written at N."""
    return list(dict.fromkeys(s * CycNumber.zeta(order, k) for s in (1, -1) for k in range(order)))


class TestDettweilerReiterLocalData:
    """The local monodromy of MC_lambda for lambda != 1 and an irreducible
    tuple (Dettweiler-Reiter, J. Symbolic Comput. 30 (2000), section 3):
    with J(alpha, l) a Jordan block,
    - rank m = sum_k rk(A_k - 1) + rk(A_inf - lambda) - n, where
      rk(A - alpha) is n minus the number of blocks of alpha;
    - at a finite puncture J(1, l) -> J(lambda, l - 1), J(lambda^-1, l) ->
      J(1, l + 1), J(alpha, l) -> J(alpha lambda, l) otherwise, then
      J(1, 1) blocks up to rank m;
    - at infinity J(1, l) -> J(lambda^-1, l + 1), J(lambda, l) ->
      J(1, l - 1), J(alpha, l) -> J(alpha lambda^-1, l) otherwise, then
      J(lambda^-1, 1) blocks up to rank m.
    Checked at every puncture for every lambda in mu_lcm(2, N) minus 1."""

    @staticmethod
    def predicted(t, lam):
        types = {p: t.jordan_at(p).blocks for p in t.punctures + (INFINITY,)}
        n = t.rank

        def count(blocks, alpha):
            return sum(1 for value, _ in blocks if value == alpha)

        rank = sum(n - count(types[p], 1) for p in t.punctures)
        rank += n - count(types[INFINITY], lam) - n
        inverse = lam.inverse()
        out = {}
        for p, blocks in types.items():
            moved, fill = [], (inverse, 1) if p.is_infinity else (1, 1)
            for alpha, size in blocks:
                if p.is_infinity:
                    if alpha == 1:
                        moved.append((inverse, size + 1))
                    elif alpha == lam:
                        moved.append((1, size - 1))
                    else:
                        moved.append((alpha * inverse, size))
                elif alpha == 1:
                    moved.append((lam, size - 1))
                elif alpha == inverse:
                    moved.append((1, size + 1))
                else:
                    moved.append((alpha * lam, size))
            moved = [block for block in moved if block[1]]
            moved += [fill] * (rank - sum(size for _, size in moved))
            out[p] = JordanType.from_blocks(moved)
        return rank, out

    def check(self, t):
        assert is_absolutely_irreducible(t), "hypotheses fail"
        convolved = 0
        for lam in roots_of_unity(t.order)[1:]:
            rank, types = self.predicted(t, lam)
            if rank == 0:
                with pytest.raises(ValueError):
                    middle_convolution(t, lam)
                continue
            out = middle_convolution(t, lam)
            assert out.rank == rank, (t, lam)
            for p, expected in types.items():
                assert out.jordan_at(p) == expected, (t, lam, p)
            convolved += 1
        return convolved

    def test_family(self):
        # -1 is the one lambda of Q(zeta_2), and of Q(zeta_1) at odd N = 1
        for i in range(1, 7):
            assert self.check(build_F(i)) == 1
            assert self.check(declared_at_order_one(build_F(i))) == 1

    @pytest.mark.parametrize("order", [3, 5, 6, 12])
    def test_seeded_hypergeometric_every_lambda(self, rng, order):
        for _ in range(2):
            assert self.check(seeded_hypergeometric(rng, order, min_rank=2))

    @pytest.mark.parametrize("order", [12, 8])
    def test_three_puncture_walks_every_lambda(self, rng, order):
        # the local data at infinity hold for (A_3 A_2 A_1)^-1, which
        # (A_1 A_2 A_3)^-1 need not even be conjugate to
        for _ in range(2):
            walk = seeded_walk(rng, order)
            assert len(walk) > 1, "the walk never moved"
            for t in walk:
                assert self.check(t)

    def test_negated_cube_root_at_order_three(self):
        # a = (zeta3, zeta3^2), b = (1, 1), lambda = -zeta3 = zeta6^5, a
        # root of unity of Q(zeta_3) outside mu_3
        z = CycNumber.zeta(3)
        out = middle_convolution(hypergeometric_tuple([z, z ** 2], [1, 1], 3), -z)
        assert out.order == 3
        notation = {str(p): out.jordan_at(p).notation() for p in out.punctures + (INFINITY,)}
        assert notation == {"0": "1 (+) (zeta6^5)", "1": "1 (+) (zeta6^5)", "inf": "(-1) (+) (zeta6^5)"}


class TestMiddleConvolutionInverse:
    """MC_(lambda^-1)(MC_lambda(T)) = T for irreducible T of rank >= 2 and
    lambda != 1 (Dettweiler-Reiter, J. Symb. Comput. 30 (2000), section 3):
    checked on T's rank and its Jordan types at 0, 1 and infinity."""

    @staticmethod
    def check(t, lambdas):
        assert t.rank >= 2 and is_absolutely_irreducible(t), "hypotheses fail"
        types = local_types(t)
        for lam in lambdas:
            back = middle_convolution(middle_convolution(t, lam), lam.inverse())
            assert back.rank == t.rank, (t, lam)
            assert local_types(back) == types, (t, lam)

    @pytest.mark.parametrize("order", range(3, 13))
    def test_seeded_hypergeometric_every_lambda(self, rng, order):
        lambdas = [CycNumber.zeta(order, k) for k in range(1, order)]
        for _ in range(2):
            self.check(seeded_hypergeometric(rng, order, min_rank=2), lambdas)

    @pytest.mark.parametrize("order", [12, 8])
    def test_three_puncture_walks_every_lambda(self, rng, order):
        for _ in range(2):
            walk = seeded_walk(rng, order)
            assert len(walk) > 1, "the walk never moved"
            for t in walk[1:]:
                self.check(t, roots_of_unity(order)[1:])


class TestThreePunctureWalks:
    """Seeded MC/twist walks on the punctures 0, 1, 2 (seeded_walk), read
    with the one product relation A_inf A_3 A_2 A_1 = I."""

    @pytest.mark.parametrize("order", [12, 8])
    def test_every_step_is_rigid_and_reduces_back(self, rng, order):
        # Katz's first step takes the least rank over every twist and
        # lambda in mu_lcm(2, N), since each local term of Dettweiler-
        # Reiter's rank is least at its own point.  MC_(lambda^-1) undoes
        # the walk's last step, so that rank is at most the previous one.
        for _ in range(3):
            walk = seeded_walk(rng, order)
            assert len(walk) > 1, "the walk never moved"
            for before, t in zip(walk, walk[1:]):
                assert is_absolutely_irreducible(t) and rigidity_index(t) == 2, t
                ranks = [step.rank for step in katz_reduce(t).steps]
                assert ranks[0] <= before.rank, (t, ranks)
                assert ranks == sorted(set(ranks), reverse=True) and ranks[-1] == 1, (t, ranks)


class TestMiddleConvolutionComposition:
    """MC_mu(MC_lambda(T)) = MC_(lambda*mu)(T) for irreducible T of rank >= 2
    with MC_lambda(T) irreducible of rank >= 2, lambda, mu != 1 and
    lambda*mu != 1 (Dettweiler-Reiter, J. Symb. Comput. 30 (2000), section
    3): checked on the rank and the Jordan types at 0, 1 and infinity, on a
    seeded sample of the pairs (lambda, mu)."""

    PAIRS_PER_TUPLE = 5

    @staticmethod
    def convolve(t, lam):
        # MC of rank 0 raises; both sides of the property then must
        try:
            return middle_convolution(t, lam)
        except ZeroRank:
            return None

    @pytest.mark.parametrize("order", range(3, 13))
    def test_seeded_hypergeometric_sampled_pairs(self, rng, order):
        pairs = [(j, k) for j in range(1, order) for k in range(1, order) if (j + k) % order]
        checked = 0
        for _ in range(2):
            t = seeded_hypergeometric(rng, order, min_rank=2)
            assert t.rank >= 2 and is_absolutely_irreducible(t), "hypotheses fail"
            for j, k in rng.sample(pairs, min(len(pairs), self.PAIRS_PER_TUPLE)):
                lam, mu = CycNumber.zeta(order, j), CycNumber.zeta(order, k)
                inner = self.convolve(t, lam)
                if inner is None or inner.rank < 2 or not is_absolutely_irreducible(inner):
                    continue
                twice = self.convolve(inner, mu)
                once = self.convolve(t, lam * mu)
                assert (twice is None) == (once is None), (t, j, k)
                if once is not None:
                    assert twice.rank == once.rank, (t, j, k)
                    assert local_types(twice) == local_types(once), (t, j, k)
                checked += 1
        assert checked, "no pair met the hypotheses"


class TestInvariants:
    """MC_lambda for lambda in mu_N minus 1, when its output has rank > 0, and
    rank-one twists by scalars in mu_N preserve the rigidity index and
    absolute irreducibility (Katz, Rigid Local Systems (1996), ch. 5;
    Dettweiler-Reiter, J. Symb. Comput. 30 (2000), section 3): checked on a
    seeded sample of lambdas and twists per tuple."""

    SAMPLES_PER_TUPLE = 3

    @staticmethod
    def check(index, image, label):
        assert rigidity_index(image) == index, label
        assert is_absolutely_irreducible(image), label

    @pytest.mark.parametrize("order", range(3, 13))
    def test_seeded_hypergeometric(self, rng, order):
        convolved = 0
        for _ in range(2):
            t = seeded_hypergeometric(rng, order, min_rank=2)
            assert t.rank >= 2 and is_absolutely_irreducible(t), "hypotheses fail"
            index = rigidity_index(t)
            for k in rng.sample(range(1, order), min(order - 1, self.SAMPLES_PER_TUPLE)):
                try:
                    image = middle_convolution(t, CycNumber.zeta(order, k))
                except ZeroRank:  # rank 0: nothing to compare
                    continue
                self.check(index, image, (t, "mc", k))
                convolved += 1
            twist = [CycNumber.zeta(order, rng.randrange(order)) for _ in t.punctures]
            self.check(index, tensor_rank_one(t, RankOneData.of(twist)), (t, "twist", twist))
        assert convolved, "no convolution of rank > 0"


class TestKatzChoiceOracle:
    """Katz's twist and lambda against n - rank(A - zeta I) over mu_m,
    m = lcm(2, N), all the roots of unity of Q(zeta_N), taken by direct
    eliminations on the matrices lifted to order m, ties to the smallest
    exponent."""

    @staticmethod
    def oracle(t):
        order = math.lcm(2, t.order)
        matrices = [m.lift(order) for m in t.matrices]

        def dominant(m):
            return max(range(order),
                       key=lambda a: (m.rows - rank_of_shift(m, CycNumber.zeta(order, a)), -a))

        exponents = [dominant(m) for m in matrices]
        scalars = [CycNumber.zeta(order, -a) for a in exponents]
        twisted = [m * s for m, s in zip(matrices, scalars)]
        return scalars, CycNumber.zeta(order, dominant(infinity_by_inverse(twisted)))

    def check_chain(self, t):
        while t.rank > 1:
            scalars, lam = self.oracle(t)
            twist, got_lam, result = katz_reduce_step(t)
            assert list(twist.scalars) == scalars
            assert got_lam == lam
            t = result

    @pytest.mark.parametrize("order", [3, 5, 4, 8, 12])
    def test_seeded_hypergeometric(self, rng, order):
        for _ in range(3):
            self.check_chain(seeded_hypergeometric(rng, order, min_rank=2))

    def test_family_and_ties(self):
        # build_F(2) has A_0 ~ diag(1, -1, -1), where -1 wins; b = (1, -1)
        # gives A_0 ~ diag(1, -1), a tie that goes to 1
        for i in (1, 2, 5):
            self.check_chain(build_F(i))
        self.check_chain(hypergeometric_tuple([CycNumber.zeta(4), CycNumber.zeta(4, 3)], [1, -1], 4))
        # dominant eigenvalues -1 at N = 1 and -zeta5^a at N = 5: roots of
        # unity of Q(zeta_N) outside mu_N
        self.check_chain(declared_at_order_one(build_F(3)))
        self.check_chain(twisted_order_five_tuple())


def exact_reduction(t):
    """Katz's reduction by katz_reduce_step alone, every tuple of the chain
    built and checked: (twist scalars, lambda, rank) per step, each scalar
    with its order, or the error that ended it."""
    steps = []
    try:
        while t.rank > 1:
            twist, lam, result = katz_reduce_step(t)
            if result.rank >= t.rank:
                raise NoProgress(f"reduction step did not decrease rank ({t.rank} -> {result.rank})")
            steps.append(([(s, s.order) for s in twist.scalars], (lam, lam.order), result.rank))
            t = result
    except RigidCalcError as exc:
        return type(exc), str(exc)
    return steps


def planned_reduction(t):
    """katz_reduce's trace in exact_reduction's form."""
    try:
        trace = katz_reduce(t)
    except RigidCalcError as exc:
        return type(exc), str(exc)
    return [([(s, s.order) for s in step.twist.scalars], (step.lam, step.lam.order), step.rank)
            for step in trace.steps]


def fresh_copy(t):
    # the same tuple with nothing memoized: no rank sequence, reduction mod
    # p, infinity monodromy or irreducibility verdict
    mats = [ExactMatrix(m.rows, m.cols, m.entries, m.order) for m in t.matrices]
    return make_tuple(t.order, t.punctures, mats)


class TestKatzReducePlan:
    """katz_reduce takes its first step exactly and reads every later one
    off the input's Jordan blocks (Dettweiler-Reiter's local data of
    MC_lambda): its trace, and any error, equal the loop of
    katz_reduce_step that builds every tuple of the chain."""

    def test_family(self):
        for i in range(17):
            assert planned_reduction(build_F(i)) == exact_reduction(build_F(i)), i

    def test_family_declared_at_order_one(self):
        for i in range(17):
            t = declared_at_order_one(build_F(i))
            assert planned_reduction(t) == exact_reduction(t), i

    @pytest.mark.parametrize("order", [3, 4, 5, 6, 8, 10, 12])
    def test_seeded_hypergeometric(self, rng, order):
        for _ in range(3):
            t = seeded_hypergeometric(rng, order, min_rank=2)
            expected = exact_reduction(t)
            assert isinstance(expected, list) and expected[-1][2] == 1
            assert planned_reduction(t) == expected, t

    @pytest.mark.parametrize("order", [12, 8])
    def test_three_puncture_walks(self, rng, order):
        for _ in range(2):
            t = seeded_walk(rng, order)[-1]
            expected = exact_reduction(t)
            assert isinstance(expected, list) and expected[-1][2] == 1, t
            assert planned_reduction(t) == expected, t

    def test_errors(self):
        z = CycNumber.zeta(3)
        reducible = hypergeometric_tuple([1, z], [z ** 2, 1], 3)
        not_rigid = make_tuple(2, ["0", "1", "2"], [
            ExactMatrix.diagonal([1, -1]), mat([[0, 1], [1, 0]]), mat([[1, -2], [0, -1]])])
        for t, error in ((reducible, NotIrreducible), (not_rigid, NotRigid)):
            assert planned_reduction(t) == exact_reduction(t)
            assert planned_reduction(t)[0] is error

    def test_eigenvalues_outside_the_field_are_planned(self):
        # Eigenvalue 2 is no root of unity: Katz's choice sees only mu_2,
        # and the plan keeps the block of 2 at its size.  a = (2, -1, -1)
        # with b = (1, 1, 3) reduces to rank 1; b = (1, 3, 5) takes
        # lambda = 1 at step 2, where the rank stays 2.
        reduces = hypergeometric_over_q([2, -1, -1], [1, 1, 3])
        assert [step[2] for step in exact_reduction(reduces)] == [2, 1]
        assert planned_reduction(reduces) == exact_reduction(reduces)
        stuck = hypergeometric_over_q([2, -1, -1], [1, 3, 5])
        assert exact_reduction(stuck) == (NoProgress, "reduction step did not decrease rank (2 -> 2)")
        assert planned_reduction(stuck) == exact_reduction(stuck)

    @pytest.mark.parametrize("a, b, expected", [
        ([2, -1, -1, -1, -1], [1, 1, 1, 1, 3], [4, 3, 2, 1]),
        ([2, -1, -1, -1], [1, 1, 1, 3], [3, 2, 1]),
        ([2, 2, -1, -1], [1, 1, 3, 3], (NoProgress, "reduction step did not decrease rank (2 -> 2)")),
    ])
    def test_eigenvalue_two_takes_one_exact_step(self, monkeypatch, a, b, expected):
        # outside mu_2: 2 at 0, prod(b) / prod(a) at 1, 1/3 at infinity
        t = hypergeometric_over_q(a, b)
        exact = exact_reduction(t)
        assert (exact if isinstance(exact, tuple) else [step[2] for step in exact]) == expected
        calls = []
        step = convolution.katz_reduce_step
        monkeypatch.setattr(convolution, "katz_reduce_step", lambda s: calls.append(s) or step(s))
        assert planned_reduction(t) == exact
        assert calls == [t]

    def test_one_exact_step(self, monkeypatch):
        t = build_F(8)
        calls = {name: 0 for name in ("katz_reduce_step", "middle_convolution", "tensor_rank_one")}
        for name in calls:
            def counted(*args, _name=name, _callee=getattr(convolution, name)):
                calls[_name] += 1
                return _callee(*args)

            monkeypatch.setattr(convolution, name, counted)
        assert [step.rank for step in katz_reduce(t).steps] == list(range(8, 0, -1))
        assert calls == {"katz_reduce_step": 1, "middle_convolution": 1, "tensor_rank_one": 1}

    def test_rank_25_in_budget(self):
        # build excluded; the exact loop took about 2.5 s here, the plan 0.35 s
        t = fresh_copy(build_F(24))
        start = time.process_time()
        trace = katz_reduce(t)
        assert time.process_time() - start < 1.5
        assert [step.rank for step in trace.steps] == list(range(24, 0, -1))
