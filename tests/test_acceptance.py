"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they are produced.

Criterion 7 is split.  7a: the point-count polynomials X^2 - aX + p of
y^2 = x^3 + x pass for p in {3, 5, 7, 11}.  7b: perturbed Frobenius data
that leaves the Weil locus fails a stage -- a trace past the Hasse bound,
t^2 > 4p, fails the magnitude stage, and a constant term p + 1 fails the
functional equation -- while a perturbation that stays inside the bound,
such as a + 1 with (a+1)^2 < 4p, still has complex-conjugate roots of
modulus sqrt(p) and passes.  The expected verdicts come from the sign of
t^2 - 4p and from the functional equation, not from the code under test.
"""
import math
import time
from fractions import Fraction

import pytest

from rigidcalc import (
    INFINITY,
    CycNumber,
    ExactMatrix,
    HodgeMultiset,
    JordanType,
    WeilPolynomial,
    WeilVerdict,
    build_F,
    centralizer_dim,
    certify_regular,
    from_multiplicity_function,
    hodge_conjugate_dual,
    hodge_is_regular,
    hypergeometric_tuple,
    is_absolutely_irreducible,
    is_quasi_unipotent,
    jordan_type,
    katz_reduce,
    katz_reduce_step,
    make_tuple,
    middle_convolution,
    rigidity_index,
    weil_check,
)
from rigidcalc.errors import NotRigid
from rigidcalc.table1 import expected_jordan_types

from helpers import (
    brute_force_irreducible,
    count_points_x3_plus_x,
    random_invertible,
    random_multiplicity,
    random_small_invertible,
)


def report(label, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {status} [{elapsed:.1f}s]")


def random_hypergeometric_rank_le_4(rng):
    order = rng.choice([2, 3, 4, 6])
    n = rng.randint(1, 4)
    exponents = list(range(order))
    rng.shuffle(exponents)
    split = rng.randint(1, order - 1) if order > 1 else 1
    a_pool, b_pool = exponents[:split], exponents[split:]
    if not b_pool:
        a_pool, b_pool = [0], [1]
        order = 2
    a_params = [CycNumber.zeta(order, rng.choice(a_pool)) for _ in range(n)]
    b_params = [CycNumber.zeta(order, rng.choice(b_pool)) for _ in range(n)]
    return hypergeometric_tuple(a_params, b_params, order)


def involution_tuple():
    return make_tuple(
        2,
        ["0", "1", "2"],
        [
            ExactMatrix.diagonal([1, -1]),
            ExactMatrix.from_rows([[0, 1], [1, 0]]),
            ExactMatrix.from_rows([[1, -2], [0, -1]]),
        ],
    )


def test_criterion_1_table1_reproduction():
    start = time.monotonic()
    ok = True
    for i in range(9):
        t = build_F(i)
        expected = expected_jordan_types(i)
        if t.rank != i + 1:
            ok = False
        for point in ("0", "1", "inf"):
            if t.jordan_at(point) != expected[point]:
                ok = False
    elapsed = time.monotonic() - start
    report("1 (table reproduction, i = 0..8)", ok and elapsed < 60, elapsed)
    assert ok, "a Jordan type or rank differs from the embedded table"
    assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_2_rigidity_of_family():
    start = time.monotonic()
    ok = True
    for i in range(9):
        t = build_F(i)
        if rigidity_index(t) != 2 or not is_absolutely_irreducible(t):
            ok = False
        for point in ("0", "1", "inf"):
            if not is_quasi_unipotent(t.monodromy_at(point), 2):
                ok = False
        if i >= 1:
            certificate = certify_regular(t)
            if not (certificate.is_regular_via_lemma and certificate.witness == INFINITY):
                ok = False
    elapsed = time.monotonic() - start
    report("2 (rigidity, irreducibility, regularity)", ok, elapsed)
    assert ok


def test_criterion_3_f6_spot_check():
    start = time.monotonic()
    t = build_F(6)
    dims = [centralizer_dim(t.monodromy_at(p)) for p in ("0", "1", "inf")]
    index = (2 - 3) * 49 + sum(dims)
    ok = dims == [25, 19, 7] and index == 2 and rigidity_index(t) == 2
    elapsed = time.monotonic() - start
    report("3 (G2 case centralizers 25, 19, 7)", ok and elapsed < 10, elapsed)
    assert ok, f"centralizer dims {dims}, index {index}"
    assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_4_hypergeometric_suite(rng):
    start = time.monotonic()
    ok = True
    for _ in range(20):
        m, order = random_multiplicity(rng, max_rank=6)
        t = from_multiplicity_function(m, order)
        n = m.rank
        checks = [
            t.rank == n,
            t.jordan_at("inf") == JordanType.from_blocks([(1, n)]),
            t.jordan_at("0")
            == JordanType.from_blocks([(key.inverse(), mult) for key, mult in m.items()]),
            (t.monodromy_at(1) - ExactMatrix.identity(n, order=t.order)).rank() <= 1,
            rigidity_index(t) == 2,
            is_absolutely_irreducible(t),
        ]
        if not all(checks):
            ok = False
    elapsed = time.monotonic() - start
    report("4 (hypergeometric suite, 20 seeded)", ok and elapsed < 30, elapsed)
    assert ok
    assert elapsed < 30, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_5_convolution_involution(rng):
    start = time.monotonic()
    corpus = [build_F(i) for i in range(6)]
    corpus += [random_hypergeometric_rank_le_4(rng) for _ in range(10)]
    ok = True
    for t in corpus:
        double = middle_convolution(middle_convolution(t, -1), -1)
        if double.rank != t.rank:
            ok = False
            continue
        for point in ("0", "1", "inf"):
            if double.jordan_at(point) != t.jordan_at(point):
                ok = False
    elapsed = time.monotonic() - start
    report("5 (MC_-1 twice is the identity on the corpus)", ok, elapsed)
    assert ok


def test_criterion_6_katz_reduction(rng):
    start = time.monotonic()
    ok = True
    for i in range(9):
        trace = katz_reduce(build_F(i))
        ranks = [step.rank for step in trace.steps]
        if i == 0:
            if ranks:
                ok = False
        elif ranks[-1] != 1 or any(a <= b for a, b in zip([i + 1] + ranks, ranks)):
            ok = False
    for _ in range(10):
        t = random_hypergeometric_rank_le_4(rng)  # disjoint pools: irreducible
        trace = katz_reduce(t)
        ranks = [step.rank for step in trace.steps]
        if t.rank > 1 and (not ranks or ranks[-1] != 1):
            ok = False
        if any(a <= b for a, b in zip([t.rank] + ranks, ranks)):
            ok = False
    raised = False
    try:
        katz_reduce(involution_tuple())
    except NotRigid:
        raised = True
    ok = ok and raised
    elapsed = time.monotonic() - start
    report("6 (reduction to rank 1; NotRigid on index 0)", ok, elapsed)
    assert ok


def test_criterion_7a_weil_elliptic_curve_corpus():
    start = time.monotonic()
    ok = True
    traces = {}
    for p in (3, 5, 7, 11):
        a = p + 1 - count_points_x3_plus_x(p)
        traces[p] = a
        if a * a > 4 * p:
            ok = False
        if weil_check(WeilPolynomial([p, -a, 1], p, 1), 1e-20) is not WeilVerdict.PASS:
            ok = False
    elapsed = time.monotonic() - start
    report("7a (point-count polynomials pass at 1e-20)", ok and elapsed < 5, elapsed)
    assert ok, f"traces {traces}"
    assert elapsed < 5, f"took {elapsed:.1f}s, budget 5s"


def test_criterion_7b_perturbed_traces_fail_a_stage():
    start = time.monotonic()
    mismatches = []

    def expect(p, label, coeffs, expected):
        verdict = weil_check(WeilPolynomial(coeffs, p, 1), 1e-20)
        if verdict is not expected:
            mismatches.append(f"p={p}, {label}: got {verdict}, expected {expected}")

    for p in (3, 5, 7, 11):
        a = p + 1 - count_points_x3_plus_x(p)
        # 4p is never a square for prime p, so t^2 < 4p iff |t| <= bound and
        # no candidate sits on the circle's undecidable boundary t^2 = 4p.
        bound = math.isqrt(4 * p)
        assert bound * bound < 4 * p

        # Constant term perturbed: for X^2 - aX + c the functional equation
        # X^2 Q(p/X) / Q(0) = Q(X) needs c^2 = p^2, which c = p + 1 breaks.
        expect(p, f"constant={p + 1}", [p + 1, -a, 1], WeilVerdict.FAIL_FUNCTIONAL_EQUATION)

        # Traces straddling the Hasse bound.  For t^2 < 4p the roots of
        # X^2 - tX + p are complex conjugates of modulus sqrt(p) (pure); past
        # it they are real with product p, so one has modulus above sqrt(p).
        # The window holds a + 1 and the first traces past the bound either
        # side, +-(bound + 1).
        window = range(-(bound + 2), bound + 3)
        assert a + 1 in window
        for t in window:
            expected = WeilVerdict.PASS if t * t < 4 * p else WeilVerdict.FAIL_MAGNITUDE
            expect(p, f"t={t}", [p, -t, 1], expected)

    ok = not mismatches
    elapsed = time.monotonic() - start
    report("7b (perturbed traces fail a stage)", ok, elapsed)
    assert ok, "verdicts differ from the t^2 < 4p and functional-equation oracles:\n" + "\n".join(
        mismatches
    )


def test_criterion_8_property_suites(rng):
    start = time.monotonic()
    ok = True

    # jordan_type is conjugation-invariant: 100 random conjugations each
    fixtures = [
        (build_F(3).monodromy_at(1), 2),
        (build_F(2).at_infinity, 2),
        (ExactMatrix.from_rows([[-3, 2], [-2, 1]]), 2),
        (from_multiplicity_function({CycNumber.zeta(3): 1, CycNumber.zeta(3, 2): 2}, 3).monodromy_at(0), 3),
    ]
    for matrix, order in fixtures:
        base = jordan_type(matrix, order)
        for _ in range(100):
            p = random_invertible(rng, matrix.rows, order=matrix.order)
            if jordan_type(p * matrix * p.inverse(), order) != base:
                ok = False
                break

    # rigidity index: trivial-puncture insertion and global conjugation
    tuples = [
        build_F(2),
        involution_tuple(),
        hypergeometric_tuple([1, 1], [CycNumber.zeta(3), CycNumber.zeta(3, 2)], 3),
    ]
    for t in tuples:
        index = rigidity_index(t)
        extended = make_tuple(
            t.order,
            list(t.punctures) + [Fraction(97)],
            list(t.matrices) + [ExactMatrix.identity(t.rank, order=t.order)],
        )
        if rigidity_index(extended) != index:
            ok = False
        for _ in range(3):
            p = random_invertible(rng, t.rank, order=t.order)
            if rigidity_index(t.conjugate_by(p)) != index:
                ok = False

    # Burnside agrees with brute-force word enumeration on n <= 3 fixtures
    corpus = [
        make_tuple(2, ["0", "1"], [ExactMatrix.diagonal([1, -1])] * 2),
        make_tuple(
            1, ["0", "1"], [ExactMatrix.from_rows([[1, 1], [0, 1]]), ExactMatrix.from_rows([[1, 2], [0, 1]])]
        ),
        make_tuple(
            1, ["0", "1"], [ExactMatrix.from_rows([[1, 1], [0, 1]]), ExactMatrix.from_rows([[1, 0], [1, 1]])]
        ),
        build_F(1),
        build_F(2),
    ]
    for _ in range(12):
        n = rng.choice([1, 2, 3])
        r = rng.choice([2, 3])
        corpus.append(
            make_tuple(1, [str(k) for k in range(r)], [random_small_invertible(rng, n) for _ in range(r)])
        )
    for t in corpus:
        if is_absolutely_irreducible(t) != brute_force_irreducible(t):
            ok = False

    # hodge_conjugate_dual is an involution
    for _ in range(300):
        w = rng.randint(-5, 8)
        values = [rng.randint(-6, 9) for _ in range(rng.randint(1, 7))]
        h = HodgeMultiset(values, w)
        dual = hodge_conjugate_dual(h)
        if hodge_conjugate_dual(dual) != h or len(dual) != len(h):
            ok = False
        if hodge_is_regular(dual) != hodge_is_regular(h):
            ok = False

    elapsed = time.monotonic() - start
    report("8 (property suites)", ok, elapsed)
    assert ok
    assert elapsed < 300, f"took {elapsed:.1f}s, budget 300s for this block"
