from fractions import Fraction

from rigidcalc import CycNumber
from rigidcalc import poly
from rigidcalc.purity import _squarefree_part

from helpers import random_cyc, random_rational


def check_division(num, den):
    # num = q * den + r with deg r < deg den
    q, r = poly.divmod(num, den)
    assert len(r) < len(poly.trim(den))
    assert poly.trim(poly.sub(num, poly.mul(q, den))) == r


class TestDivmod:
    def test_int_monic(self, rng):
        for _ in range(20):
            num = [rng.randint(-5, 5) for _ in range(rng.randint(0, 7))]
            den = [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))] + [1]
            check_division(num, den)
            q, r = poly.divmod(num, den)
            assert all(type(c) is int for c in q + r)

    def test_fraction(self, rng):
        for _ in range(20):
            num = [random_rational(rng) for _ in range(rng.randint(0, 7))]
            den = [random_rational(rng) for _ in range(rng.randint(0, 3))]
            den.append(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
            check_division(num, den)

    def test_cyclotomic(self, rng):
        for order in (3, 5, 12):
            for _ in range(5):
                num = [random_cyc(rng, order) for _ in range(rng.randint(1, 5))]
                den = [random_cyc(rng, order) for _ in range(rng.randint(1, 3))]
                if not den[-1]:
                    den[-1] = CycNumber.zeta(order)
                check_division(num, den)


class TestPseudoDivmod:
    @staticmethod
    def exponent(num, den):
        # deg num - deg den + 1, rounded up to even; 0 below den's degree
        # and for a monic den
        e = max(len(poly.trim(num)) - len(den) + 1, 0)
        return 0 if den[-1] == 1 else e + e % 2

    def divide(self, num, den):
        # lead^e * num = q * den + r with the stated even e and deg r < deg den
        e, q, r = poly.pseudo_divmod(num, den)
        assert type(e) is int and e == self.exponent(num, den)
        scaled = [den[-1] ** e * c for c in num]
        assert len(r) < len(den)
        assert poly.trim(poly.sub(scaled, poly.mul(q, den))) == r
        return scaled, q, r

    def check(self, num, den, field):
        # q, r are also the field quotient and remainder of lead^e * num by den
        scaled, q, r = self.divide(num, den)
        field_q, field_r = poly.divmod([field(c) for c in scaled], [field(c) for c in den])
        assert poly.trim(q) == poly.trim(field_q) and r == field_r

    @staticmethod
    def integer_cases(rng):
        for _ in range(60):
            num = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
            den = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [rng.choice([-4, -1, 1, 2, 3])]
            yield num, den

    def test_identity_over_z(self, rng):
        # integer inputs give integer outputs
        for num, den in self.integer_cases(rng):
            _, q, r = self.divide(num, den)
            assert all(type(c) is int for c in q + r)

    def test_scaled_field_remainder_over_z(self, rng):
        # the same division over Q gives the same quotient and remainder
        for num, den in self.integer_cases(rng):
            self.check(num, den, Fraction)

    def test_identity_over_q_zeta_12(self, rng):
        for _ in range(15):
            num = [random_cyc(rng, 12) for _ in range(rng.randint(1, 6))]
            den = [random_cyc(rng, 12) for _ in range(rng.randint(1, 3))]
            if not den[-1]:
                den[-1] = CycNumber.zeta(12)
            self.check(num, den, lambda c: c)

    def test_odd_and_even_step_counts(self):
        # 3^4 * 2X^3 = (54X^2 + 18X + 6)(3X - 1) + 6: three steps, e = 4;
        # 2^2 * 2X^2 = (4X + 2)(2X - 1) + 2: two steps, e = 2
        assert poly.pseudo_divmod([0, 0, 0, 2], [-1, 3]) == (4, [6, 18, 54], [6])
        assert poly.pseudo_divmod([0, 0, 2], [-1, 2]) == (2, [2, 4], [2])
        assert poly.pseudo_divmod([5, 1], [1, 0, 3]) == (0, [], [5, 1])

    def test_monic_divisor_takes_no_rescaling(self, rng, monkeypatch):
        # X^2 - d as in the Weil decision: the field quotient and remainder,
        # from only the products c * den[j] of the deg num - 1 elimination
        # steps.
        products = []
        original = CycNumber.__mul__

        def counting(self, other):
            products.append(other)
            return original(self, other)

        for _ in range(10):
            num = [random_cyc(rng, 12) for _ in range(rng.randint(3, 9))]
            num[-1] = num[-1] or CycNumber.one(12)
            den = [random_cyc(rng, 12), CycNumber.zero(12), CycNumber.one(12)]
            expected = poly.divmod(num, den)
            products.clear()
            with monkeypatch.context() as patch:
                patch.setattr(CycNumber, "__mul__", counting)
                e, q, r = poly.pseudo_divmod(num, den)
            assert (e, q, r) == (0, *expected)
            assert len(products) == 2 * (len(num) - 2)


class TestSquarefree:
    def test_repeated_roots_appear_once(self, rng):
        for order in (1, 4, 6):
            for _ in range(5):
                roots = []
                while len(roots) < 3:
                    root = random_cyc(rng, order)
                    if all(root != other for other in roots):
                        roots.append(root)
                repeated = [r for r, k in zip(roots, (1, 2, 3)) for _ in range(k)]
                rng.shuffle(repeated)
                f = poly.from_roots(repeated)
                assert list(_squarefree_part(f)) == poly.from_roots(roots)

    def test_from_roots_vanishes_at_roots(self):
        z = CycNumber.zeta(5)
        roots = [z, z ** 2, Fraction(1, 3)]
        f = poly.from_roots(roots)
        for root in roots:
            value = 0
            for c in reversed(f):
                value = value * root + c
            assert value == 0
