import json
import math
import time
from fractions import Fraction

import pytest

from rigidcalc import (
    CycNumber,
    HodgeMultiset,
    WeilPolynomial,
    WeilVerdict,
    functional_equation_check,
    hodge_conjugate_dual,
    hodge_is_regular,
    magnitude_check,
    weil_check,
)
from rigidcalc import poly as poly_ops
from rigidcalc import purity
from rigidcalc.cli import main
from rigidcalc.errors import RootFindingFailure, ZeroConstantTerm
from rigidcalc.purity import _monic_gcd

from helpers import count_points_x3_plus_x


def poly(coeffs, q, w):
    return WeilPolynomial(coeffs, q, w)


def expand(factors, order):
    """The product of coefficient lists (constant term first) over Q(zeta_order)."""
    acc = [CycNumber.one(order)]
    for f in factors:
        out = [CycNumber.zero(order)] * (len(acc) + len(f) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(f):
                out[i + j] = out[i + j] + a * b
        acc = out
    return acc


def twisted_frobenius(z, t, q):
    """(X - z beta)(X - z conj(beta)) for the roots beta of X^2 - tX + q."""
    return [z * z * q, -z * t, CycNumber.one(z.order)]


def sqrt2_convergent(steps=40):
    """p/q after `steps` steps of (p, q) -> (p + 2q, p + q): |a^2 - 2| ~ 3e-31."""
    p, q = 1, 1
    for _ in range(steps):
        p, q = p + 2 * q, p + q
    return Fraction(p, q)


def jacobi_sum(p, n, a, b):
    """J(chi^a, chi^b) = sum chi^a(x) chi^b(1 - x) over F_p, for a character
    chi of order n (n | p - 1) sending a generator to zeta_n; |J|^2 = p when
    a, b and a + b are nonzero mod n."""
    g = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    log = {pow(g, k, p): k for k in range(p - 1)}
    total = CycNumber.zero(n)
    for x in range(2, p):
        total = total + CycNumber.zeta(n, a * log[x] + b * log[(1 - x) % p])
    return total


# primes p = 1 (mod N) for the Jacobi sums over Q(zeta_N)
WEIL_FIELDS = {1: (5, 7), 3: (7, 13), 4: (5, 13), 5: (11, 31), 8: (17, 41), 12: (13, 37)}


def random_weil_factor(rng, order, q):
    """A factor whose roots all have |alpha|^2 = q by construction."""
    z = CycNumber.zeta(order, rng.randrange(order))
    if order > 2 and rng.random() < 0.5:
        while True:
            a, b = rng.randrange(1, order), rng.randrange(1, order)
            if (a + b) % order:
                return [-z * jacobi_sum(q, order, a, b), CycNumber.one(order)]
    bound = math.isqrt(4 * q - 1)
    return twisted_frobenius(z, rng.randint(-bound, bound), q)


def constructed_case(rng, order):
    """(factors, q, w, pure) over Q(zeta_order): Q is the product of the
    factors, and pure says whether every root has |alpha|^2 = d = q^w,
    known from how each factor was made.

    Pure factors, each repeated 1 to 3 times: twisted Frobenius factors
    (X - u beta)(X - u conj(beta)), X^2 - u^2 d, and X -+ u sqrt(d) when d
    is a square; u is 1 half the time, so R = Q conj(Q) often has the roots
    +-sqrt(d).  At most one impure block: X^2 - u t X + u^2 d with
    t^2 > 4d; a real pair u alpha, u d / alpha with alpha^2 != d, as one
    quadratic repeated; the same two linear factors with unequal
    multiplicities; or the complex roots alpha, conj(alpha), d / alpha,
    d / conj(alpha) twisted by u, with |alpha|^2 = s != d.
    """
    q, w = rng.choice([(2, 1), (3, 1), (5, 1), (9, 1), (13, 1), (2, 2), (3, 2)])
    d = q**w
    root = math.isqrt(d)
    bound = math.isqrt(4 * d - 1)  # t^2 < 4d iff |t| <= bound
    one = CycNumber.one(order)

    def twist():
        return one if rng.random() < 0.5 else CycNumber.zeta(order, rng.randrange(order))

    kinds = ("frobenius", "edge", "root") if root * root == d else ("frobenius", "edge")
    factors = []
    for _ in range(rng.randint(1, 3)):
        u, kind = twist(), rng.choice(kinds)
        if kind == "frobenius":
            f = [u * u * d, -u * rng.randint(-bound, bound), one]
        elif kind == "edge":
            f = [-u * u * d, 0, one]
        else:
            f = [-u * rng.choice([root, -root]), one]
        factors += [f] * rng.randint(1, 3)
    if rng.random() < 0.5:
        return factors, q, w, True
    u, kind = twist(), rng.choice(["hasse", "pair", "unequal", "off"])
    alpha = Fraction(rng.randint(1, 12), rng.randint(1, 3))
    if alpha * alpha == d:
        alpha += 1
    if kind == "hasse":
        t = rng.choice([-1, 1]) * (math.isqrt(4 * d) + rng.randint(1, 3))
        factors.append([u * u * d, -u * t, one])
    elif kind == "pair":
        factors += [[u * u * d, -u * (alpha + d / alpha), one]] * rng.randint(1, 2)
    elif kind == "unequal":
        k = rng.randint(1, 2)
        factors += [[-u * alpha, one]] * k + [[-u * (d / alpha), one]] * (3 - k)
    else:
        s = rng.choice([x for x in range(1, 3 * d) if x != d])
        a = rng.randint(-math.isqrt(4 * s - 1), math.isqrt(4 * s - 1))
        factors += [[u * u * s, -u * a, one], [u * u * Fraction(d * d, s), -u * Fraction(a * d, s), one]]
    return factors, q, w, False


class TestWeilPolynomial:
    def test_must_be_monic(self):
        with pytest.raises(ValueError):
            poly([1, 2], 5, 0)

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            poly([0, 1], 5, 0)

    def test_prime_power_q(self):
        poly([-2, 1], 4, 1)
        poly([-2, 1], 27, 1)
        with pytest.raises(ValueError):
            poly([-2, 1], 6, 1)
        with pytest.raises(ValueError):
            poly([-2, 1], 1, 1)

    def test_large_prime_power_q(self):
        start = time.perf_counter()
        poly([-2, 1], 99999999999973, 1)  # prime; trial division took > 1 s
        assert time.perf_counter() - start < 0.1
        poly([-2, 1], 2**61 - 1, 1)
        poly([-2, 1], 3**40, 1)
        for composite in (6, 2**61 + 1, 3**40 * 2, 101**2 * 103):
            with pytest.raises(ValueError):
                poly([-2, 1], composite, 1)

    def test_q_past_exact_primality_bound_refused(self, capsys):
        # 3^52 is a prime power, but Miller-Rabin with 13 bases is exact
        # only below 3.317e24, so the verdict could not be exact.
        with pytest.raises(ValueError):
            poly([-2, 1], 3**52, 1)
        assert main(["weil", "--poly", "X-5", "--q", str(3**52), "--w", "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_degree_at_least_one(self):
        with pytest.raises(ValueError):
            poly([1], 5, 0)

    def test_str(self):
        assert str(poly([2, -3, 1], 2, 1)) == "X^2-3X+2"


class TestFunctionalEquation:
    def test_weight_two_linear(self):
        assert functional_equation_check(poly([-5, 1], 5, 2))

    def test_x_squared_plus_five(self):
        assert functional_equation_check(poly([5, 0, 1], 5, 1))

    def test_reciprocal_real_roots(self):
        # roots 1 and 2 swap under x -> 2/x, so the equation holds even
        # though the polynomial is not pure of weight 1
        assert functional_equation_check(poly([2, -3, 1], 2, 1))

    def test_wrong_weight_linear(self):
        assert not functional_equation_check(poly([-5, 1], 5, 1))

    def test_coefficient_mismatch_after_the_constant_term(self):
        # X^3 + X + 8 at q^w = 4: conj(c_0) c_0 = 64 = 4^3 holds, but
        # conj(c_1) c_0 = 8 while c_2 4^2 = 0
        p = poly([8, 1, 0, 1], 2, 2)
        assert not functional_equation_check(p)
        assert weil_check(p) is WeilVerdict.FAIL_FUNCTIONAL_EQUATION

    def test_cyclotomic_coefficients(self):
        z = CycNumber.zeta(4)
        # root 5z is its own conjugate-reciprocal partner at weight 2:
        # 25 / conj(5z) = 5z, so the linear polynomial passes
        assert functional_equation_check(poly([-5 * z, CycNumber.one(4)], 5, 2))
        # at weight 1 the partner would be 5 / conj(5z) = z, so it fails
        assert not functional_equation_check(poly([-5 * z, CycNumber.one(4)], 5, 1))

    @pytest.mark.parametrize("w", [10**9, -(10**9)])
    def test_huge_weight_fails_on_sizes(self, capsys, w):
        # q^(wn) would have about 3.2e9 bits; the size of c_0 decides first
        start = time.perf_counter()
        assert main(["weil", "--poly", "X^2-3X+2", "--q", "3", "--w", str(w)]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == "FailFunctionalEquation\n"

    @pytest.mark.parametrize("q, w, c", [
        (3, 800, 3**400),
        (3, -800, Fraction(1, 3**400)),
        (4, 300, 2**300),  # 4^300 has 601 bits, one past the bound 300 * 2
        (4, -300, Fraction(1, 2**300)),
        (5, 0, 1),
    ])
    def test_size_check_keeps_exact_constant_terms(self, q, w, c):
        # X - c with conj(c) c = q^w passes, and c + 1 fails by comparison
        assert functional_equation_check(poly([-c, 1], q, w))
        assert not functional_equation_check(poly([-c - 1, 1], q, w))

    def test_transform_fixes_passing_polynomials(self, rng):
        # X^n conj(Q)(q^w / X) / conj(Q)(0) maps a passing Q to itself
        for _ in range(20):
            q, w = rng.choice([(2, 2), (3, 2), (5, 2), (4, 2)])
            order = rng.choice([1, 2, 4])
            scale = Fraction(q) ** (w // 2)
            roots = [
                CycNumber.zeta(order, rng.randrange(order)) * scale
                for _ in range(rng.randint(1, 3))
            ]
            acc = [CycNumber.one(order)]
            for root in roots:
                out = [CycNumber.zero(order)] * (len(acc) + 1)
                for k, c in enumerate(acc):
                    out[k + 1] = out[k + 1] + c
                    out[k] = out[k] - root * c
                acc = out
            p = poly(acc, q, w)
            assert functional_equation_check(p)
            n = p.degree
            c0_conj = p.coeffs[0].conjugate()
            transformed = [
                (p.coeffs[n - k].conjugate() * (Fraction(q) ** (w * (n - k)))) / c0_conj
                for k in range(n + 1)
            ]
            assert all(a == b for a, b in zip(transformed, p.coeffs))


class TestMagnitude:
    def test_linear_weight_two(self):
        assert magnitude_check(poly([-5, 1], 5, 2))

    def test_real_roots_fail(self):
        assert not magnitude_check(poly([2, -3, 1], 2, 1))

    def test_elliptic_curve_counts(self):
        for p in (3, 5, 7, 11):
            a = p + 1 - count_points_x3_plus_x(p)
            assert a * a <= 4 * p  # Hasse
            assert magnitude_check(poly([p, -a, 1], p, 1))

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            magnitude_check(poly([-5, 1], 5, 2), tolerance=0)

    def test_undecidable_boundary_raises(self):
        # roots +-2*sqrt(2): | |root|^2 - q^w | = 6 = tol * q^w exactly, and
        # irrational roots keep the certified margin astride the boundary
        with pytest.raises(RootFindingFailure):
            magnitude_check(poly([-8, 0, 1], 2, 1), tolerance=3.0)


    def test_one_embedding_per_conjugate_pair(self, monkeypatch):
        from rigidcalc import purity

        seen = []
        decide = purity._decide_roots

        def record(squarefree, a, *args):
            seen.append(a)
            return decide(squarefree, a, *args)

        monkeypatch.setattr(purity, "_decide_roots", record)
        for order, expected in ((1, [1]), (2, [1]), (3, [1]), (5, [1, 2]), (12, [1, 5])):
            seen.clear()
            z = CycNumber.zeta(order)
            # roots +-i sqrt(6) z: |alpha|^2 = 6, impure at q = 5 but within
            # the tolerance, so the numeric stage visits every embedding
            p = poly([6 * z * z, 0, CycNumber.one(order)], 5, 1)
            assert magnitude_check(p, tolerance=0.5)
            assert seen == expected


class TestRealSign:
    def test_precision_doubles_for_a_small_value_with_large_coefficients(self, monkeypatch):
        # x = (sqrt 2 - 1)^26 ~ 1.1e-10 at embedding 1, with coefficients
        # near 4e9: 64 bits bound the error by ~6e-10, so only 128 bits
        # certify the sign.  At embedding 3, x = (sqrt 2 + 1)^26 ~ 9e9.
        z = CycNumber.zeta(8)
        x = (z + z.inverse() - 1) ** 26
        precisions = []
        embed = CycNumber.embed

        def recorded(self, a, prec):
            precisions.append((a, prec))
            return embed(self, a, prec)

        monkeypatch.setattr(CycNumber, "embed", recorded)
        for a, steps in ((1, [64, 128]), (3, [64])):
            for value, sign in ((x, 1), (-x, -1)):
                precisions.clear()
                assert purity._real_sign(value, a) == sign
                assert precisions == [(a, prec) for prec in steps]


class TestWeilCheck:
    def test_pass(self):
        assert weil_check(poly([5, 0, 1], 5, 1)) is WeilVerdict.PASS

    def test_fail_magnitude(self):
        assert weil_check(poly([2, -3, 1], 2, 1)) is WeilVerdict.FAIL_MAGNITUDE

    def test_fail_functional_equation_first(self):
        # X - 5 at weight 1: X (5/X - 5) / (-5) = X - 1 != X - 5, so the
        # exact stage already reports the failure
        assert weil_check(poly([-5, 1], 5, 1)) is WeilVerdict.FAIL_FUNCTIONAL_EQUATION

    def test_root_of_unity_products_pass(self, rng):
        for _ in range(100):
            order = rng.choice([1, 2, 3, 4, 6])
            q = rng.choice([2, 3, 5])
            w = rng.choice([0, 2])
            scale = Fraction(q) ** (w // 2)
            degree = rng.randint(1, 3)
            acc = [CycNumber.one(order)]
            for _ in range(degree):
                root = CycNumber.zeta(order, rng.randrange(order)) * scale
                out = [CycNumber.zero(order)] * (len(acc) + 1)
                for k, c in enumerate(acc):
                    out[k + 1] = out[k + 1] + c
                    out[k] = out[k] - root * c
                acc = out
            assert weil_check(WeilPolynomial(acc, q, w)) is WeilVerdict.PASS


class TestExactPurity:
    """The exact decision against verdicts known from how the input was made."""

    def test_sqrt2_convergent_fails(self, capsys):
        # Both roots a and 2/a are real, and a^2 is within 3e-31 of 2: the
        # numeric stage alone passed it at the default tolerance 1e-20.
        a = sqrt2_convergent()
        coeffs = [2, -(a + 2 / a), 1]
        assert functional_equation_check(poly(coeffs, 2, 1))
        assert weil_check(poly(coeffs, 2, 1)) is WeilVerdict.FAIL_MAGNITUDE
        assert magnitude_check(poly(coeffs, 2, 1))  # within the tolerance
        document = {
            "coeffs": [
                {"N": 1, "coeffs": [[c.numerator, c.denominator]]}
                for c in map(Fraction, coeffs)
            ]
        }
        assert main(["weil", "--poly", json.dumps(document), "--q", "2", "--w", "1"]) == 1
        assert capsys.readouterr().out == "FailMagnitude\n"

    def test_random_weil_products_pass(self, rng):
        for order, primes in WEIL_FIELDS.items():
            for _ in range(6):
                q = rng.choice(primes)
                factors = [random_weil_factor(rng, order, q) for _ in range(rng.randint(1, 3))]
                if rng.random() < 0.3:
                    factors.append(factors[0])  # a repeated factor
                p = poly(expand(factors, order), q, 1)
                assert weil_check(p) is WeilVerdict.PASS, (order, q, str(p))

    def test_square_q_linear_factors_pass(self, rng):
        # X - 3 zeta^j at q = 9: the roots are the circle's own points
        for order in (1, 3, 4, 5, 8, 12):
            factors = [
                [-3 * CycNumber.zeta(order, rng.randrange(order)), CycNumber.one(order)]
                for _ in range(3)
            ]
            assert weil_check(poly(expand(factors, order), 9, 1)) is WeilVerdict.PASS

    def test_convergent_near_misses_fail(self, rng):
        # (X - z a)(X - z q/a) with a a convergent of sqrt(q), times pure
        # factors: |alpha|^2 is off q by a relative 1e-10 or less for the
        # two roots z a and z q/a, and by less than 1e-20 for q <= 11
        for order, primes in WEIL_FIELDS.items():
            q = rng.choice(primes)
            x, y = 1, 1
            for _ in range(80):
                x, y = x + q * y, x + y
            a = Fraction(x, y)
            z = CycNumber.zeta(order, rng.randrange(order))
            miss = [z * z * q, -z * (a + q / a), CycNumber.one(order)]
            factors = [miss] + [random_weil_factor(rng, order, q) for _ in range(rng.randint(0, 2))]
            p = poly(expand(factors, order), q, 1)
            assert functional_equation_check(p)
            assert weil_check(p) is WeilVerdict.FAIL_MAGNITUDE, (order, q, str(p))

    def test_traces_at_the_hasse_bound(self):
        # X^2 - 2aX + q with a rational near sqrt(q): pure iff a^2 < q, as the
        # discriminant 4(a^2 - q) decides between conjugate and real roots
        for q in (2, 3, 5, 7):
            x, y = 1, 1
            for _ in range(25):
                x, y = x + q * y, x + y
                a = Fraction(x, y)
                expected = WeilVerdict.PASS if a * a < q else WeilVerdict.FAIL_MAGNITUDE
                assert weil_check(poly([q, -2 * a, 1], q, 1)) is expected, (q, a)

    def test_every_real_embedding_is_checked(self):
        # t = s + sqrt(5) in Q(zeta_5), sqrt(5) = 1 + 2(zeta + zeta^4); the
        # two real embeddings send sqrt(5) to +-2.236, and X^2 - tX + 5 is
        # pure under one of them iff t^2 < 20 there
        z = CycNumber.zeta(5)
        root5 = 1 + 2 * (z + z**4)
        assert root5 * root5 == 5
        for s, expected in ((1, WeilVerdict.PASS),  # 3.24, -1.24
                            (3, WeilVerdict.FAIL_MAGNITUDE),  # 5.24, 0.76
                            (-3, WeilVerdict.FAIL_MAGNITUDE)):  # -0.76, -5.24
            t = s + root5
            assert weil_check(poly([5, -t, 1], 5, 1)) is expected, s

    def test_perturbed_constants_fail(self, rng):
        for order, primes in WEIL_FIELDS.items():
            q = rng.choice(primes)
            coeffs = expand([random_weil_factor(rng, order, q) for _ in range(2)], order)
            coeffs[0] = coeffs[0] + rng.choice([-1, 1])
            assert weil_check(poly(coeffs, q, 1)) is not WeilVerdict.PASS
            # |Q(0)|^2 is the product of the |alpha|^2, now not q^4
            assert not magnitude_check(poly(coeffs, q, 1))

    def test_agrees_with_the_numeric_stage(self, rng, monkeypatch):
        # Every root deviates by 0 or by at least 0.2 q, far from the
        # tolerance 1e-20, where the certified numeric stage is reliable.
        from rigidcalc import purity

        cases = []
        for order, primes in WEIL_FIELDS.items():
            for _ in range(3):
                q = rng.choice(primes)
                factors = [random_weil_factor(rng, order, q) for _ in range(rng.randint(1, 2))]
                impure = rng.random() < 0.5
                if impure:
                    z = CycNumber.zeta(order, rng.randrange(order))
                    a = Fraction(rng.choice([1, 2, Fraction(1, 2)]))
                    factors.append([z * z * q, -z * (a + q / a), CycNumber.one(order)])
                cases.append((expand(factors, order), q, impure))
        exact = [weil_check(poly(coeffs, q, 1)) for coeffs, q, _ in cases]
        monkeypatch.setattr(purity, "_exactly_pure", lambda p: False)  # numeric only
        for (coeffs, q, impure), verdict in zip(cases, exact):
            numeric = magnitude_check(poly(coeffs, q, 1))
            assert numeric is not impure
            assert (verdict is WeilVerdict.PASS) is numeric

    def test_root_finding_failure_on_impure_input_is_a_failure(self):
        # roots 1 and 2 at q = 2: root 2 sits exactly on the tolerance
        # boundary 1.0, which magnitude_check cannot certify
        p = poly([2, -3, 1], 2, 1)
        with pytest.raises(RootFindingFailure):
            magnitude_check(p, tolerance=1.0)
        assert weil_check(p, tolerance=1.0) is WeilVerdict.FAIL_MAGNITUDE

    @pytest.mark.parametrize("order", [1, 3, 4, 5, 8, 12])
    def test_verdicts_known_by_construction(self, rng, order, monkeypatch):
        stripped = []
        gcd = purity._monic_gcd

        def counting(*args):
            stripped.append(order)
            return gcd(*args)

        monkeypatch.setattr(purity, "_monic_gcd", counting)
        verdicts = set()
        for _ in range(16):
            factors, q, w, pure = constructed_case(rng, order)
            p = poly(expand(factors, order), q, w)
            assert purity._exactly_pure(p) is pure, (q, w, str(p))
            if pure:
                assert weil_check(p) is WeilVerdict.PASS
            verdicts.add(pure)
        assert verdicts == {True, False}
        assert stripped  # some R had a root +-sqrt(d), or shared one with X^2 - d mod p

    def test_frobenius_products_take_no_squarefree_part(self, monkeypatch):
        # Products of Frobenius factors with repeats, as in the benchmark's
        # prod items: the residues of R and X^2 - q are coprime, so the
        # only remainder sequence is the Sturm chain, whose last term
        # carries the repeated roots.
        def forbidden(name):
            def call(*args):
                raise AssertionError(f"{name} was called")
            return call

        chains = []
        sequence = purity._remainder_sequence

        def recorded(f, g):
            chains.append(sequence(f, g))
            return chains[-1]

        monkeypatch.setattr(purity, "_squarefree_part", forbidden("_squarefree_part"))
        monkeypatch.setattr(purity, "_monic_gcd", forbidden("_monic_gcd"))
        monkeypatch.setattr(purity, "_remainder_sequence", recorded)
        for q, traces in ((11, (-2, -1, 0, 1, 1, 0)), (31, (-3, -2, -1, 0, 1, 2, 2, -3)),
                          (101, (-3, -2, -1, 0, 1, 2, 3, 1, -2, 0))):
            coeffs = expand([[q, -t, 1] for t in traces], 1)
            chains.clear()
            assert weil_check(poly(coeffs, q, 1)) is WeilVerdict.PASS
            assert len(chains) == 1
            assert len(chains[0][-1]) - 1 == len(traces) - len(set(traces))  # deg gcd(h, h')

    def test_trace_polynomial_inverts_the_substitution(self, rng):
        from rigidcalc.purity import _trace_polynomial

        for _ in range(20):
            d = Fraction(rng.choice([2, 3, 4, 5, 9]), rng.choice([1, 1, 2]))
            m = rng.randint(1, 5)
            h = [Fraction(rng.randint(-9, 9)) for _ in range(m)] + [Fraction(1)]
            # X^m h(X + d/X) = sum h_j X^(m-j) (X^2 + d)^j
            s = [Fraction(0)] * (2 * m + 1)
            power = [Fraction(1)]
            for j, c in enumerate(h):
                for i, e in enumerate(power):
                    s[m - j + i] += c * e
                power = [a + b for a, b in zip([d * e for e in power] + [0, 0], [0, 0] + power)]
            assert _trace_polynomial(s, d) == h

    def test_degree_twenty_product_is_fast(self):
        # ten Frobenius factors at p = 101, seven distinct traces
        coeffs = [1]
        for t in (-3, -2, -1, 0, 1, 2, 3, 1, -2, 0):
            out = [0] * (len(coeffs) + 2)
            for i, c in enumerate(coeffs):
                out[i] += 101 * c
                out[i + 1] -= t * c
                out[i + 2] += c
            coeffs = out
        p = poly(coeffs, 101, 1)
        start = time.perf_counter()
        assert weil_check(p) is WeilVerdict.PASS  # about 0.8 s by root finding
        assert time.perf_counter() - start < 0.1

    def test_long_remainder_sequence_over_q_zeta_12_is_fast(self):
        # gcd(f, f') of degree 6 for f of degree 18: twelve remainders whose
        # leading coefficients are irrational.  Pseudo-remainders made
        # primitive over Q alone take about 3.5 s here, as heights double
        # at each step; about 0.01 s with the exact divisions of
        # _remainder_sequence.
        z = CycNumber.zeta(12)
        factors = [twisted_frobenius(z**k, t, 13) for k, t in ((1, 3), (2, -2), (5, 5), (7, 1), (3, 0), (11, -6))]
        f = expand(factors + factors[:3], 12)
        start = time.perf_counter()
        gcd = _monic_gcd(f, poly_ops.derivative(f))
        assert time.perf_counter() - start < 1
        assert gcd == expand(factors[:3], 12)

    def test_sturm_chain_of_nine_factors_stays_short(self, monkeypatch):
        # A pure product of nine twisted Frobenius factors at q = 13 over
        # Q(zeta_12).  Terms only made primitive grow to 134 828 bits, about
        # x2.4 per term; the exact divisions keep them near 100.
        z = CycNumber.zeta(12)
        pairs = ((1, 3), (2, -2), (5, 5), (7, 1), (3, 0), (11, -6), (4, 2), (9, -1), (6, 4))
        p = poly(expand([twisted_frobenius(z**k, t, 13) for k, t in pairs], 12), 13, 1)
        terms, degrees = [], []
        original, sequence = purity._primitive, purity._remainder_sequence

        def bounded(*args):
            # every term of every remainder sequence passes through here;
            # failing at once keeps a runaway sequence from running on
            terms.append(original(*args))
            assert max(x.bit_length() for c in terms[-1] for x in (*c.nums, c.den)) < 1000
            return terms[-1]

        def recorded(f, g):
            out = sequence(f, g)
            degrees.append([len(t) - 1 for t in out])
            return out

        monkeypatch.setattr(purity, "_primitive", bounded)
        monkeypatch.setattr(purity, "_remainder_sequence", recorded)
        assert purity._exactly_pure(p)
        # (z^3)^2 = -1 makes the factor (3, 0) X^2 - 13, so R = Q conj(Q)
        # holds (X^2 - 13)^2: three gcds with X^2 - 13 strip it, and the
        # chain of h (degree 16) ends at gcd(h, h') of degree 3.  No
        # sequence removes the repeated roots.
        assert degrees == [[36, 2], [34, 2], [32, 2, 1, 0], list(range(16, 2, -1))]
        assert len(terms) == sum(map(len, degrees)) == 22

    def test_gcd_over_q_zeta_199_is_fast(self):
        # One inverse, for the monic gcd.  Making each remainder with an
        # irrational leading coefficient monic took about 14.5 s here.
        z = CycNumber.zeta(199)
        one = CycNumber.one(199)
        f = expand([[-z, one], [-z, one], [-(z**3) - 1, one], [-(z**5) + 2, one]], 199)
        start = time.perf_counter()
        gcd = _monic_gcd(f, poly_ops.derivative(f))
        assert time.perf_counter() - start < 2
        assert gcd == [-z, one]

    def test_degree_four_over_q_zeta_60_is_fast(self):
        z = CycNumber.zeta(60)
        coeffs = expand([twisted_frobenius(z, 3, 7), twisted_frobenius(z**7, -4, 7)], 60)
        p = poly(coeffs, 7, 1)
        start = time.perf_counter()
        assert weil_check(p) is WeilVerdict.PASS
        assert time.perf_counter() - start < 1


class TestHodge:
    def test_dual_examples(self):
        assert hodge_conjugate_dual(HodgeMultiset([0, 1], 3)).values == (2, 3)
        assert hodge_conjugate_dual(HodgeMultiset([0, 3], 3)).values == (0, 3)
        assert hodge_conjugate_dual(HodgeMultiset([0, 1, 2], 2)).values == (0, 1, 2)

    def test_involution_preserves_everything(self, rng):
        for _ in range(200):
            w = rng.randint(-3, 5)
            values = [rng.randint(-4, 6) for _ in range(rng.randint(1, 6))]
            h = HodgeMultiset(values, w)
            dual = hodge_conjugate_dual(h)
            assert hodge_conjugate_dual(dual) == h
            assert len(dual) == len(h)
            assert hodge_is_regular(dual) == hodge_is_regular(h)

    def test_regularity(self):
        assert hodge_is_regular(HodgeMultiset([0, 1, 2], 2))
        assert not hodge_is_regular(HodgeMultiset([0, 0, 1], 1))
        assert hodge_is_regular(HodgeMultiset([5], 10))

    def test_nonempty(self):
        with pytest.raises(ValueError):
            HodgeMultiset([], 1)

