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
from rigidcalc.cli import main
from rigidcalc.errors import RootFindingFailure, ZeroConstantTerm

from helpers import count_points_x3_plus_x


def poly(coeffs, q, w):
    return WeilPolynomial(coeffs, q, w)


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

    def test_cyclotomic_coefficients(self):
        z = CycNumber.zeta(4)
        # root 5z is its own conjugate-reciprocal partner at weight 2:
        # 25 / conj(5z) = 5z, so the linear polynomial passes
        assert functional_equation_check(poly([-5 * z, CycNumber.one(4)], 5, 2))
        # at weight 1 the partner would be 5 / conj(5z) = z, so it fails
        assert not functional_equation_check(poly([-5 * z, CycNumber.one(4)], 5, 1))

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
            assert magnitude_check(poly([-5 * z * z, 0, CycNumber.one(order)], 5, 1))
            assert seen == expected


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

