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
    def test_identity_over_z(self, rng):
        # scale * num = q * den + r over Z, deg r < deg den, and the quotient
        # agrees with division over Q after dividing by scale.
        for _ in range(40):
            num = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
            den = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [rng.choice([-4, -1, 2, 3])]
            scale, q, r = poly.pseudo_divmod(num, den)
            assert all(type(c) is int for c in [scale] + q + r)
            assert len(r) < len(den)
            assert poly.trim(poly.sub([scale * c for c in num], poly.mul(q, den))) == r
            q_over_q, r_over_q = poly.divmod([Fraction(c) for c in num], [Fraction(c) for c in den])
            assert poly.trim([Fraction(c, scale) for c in q]) == poly.trim(q_over_q)
            assert [Fraction(c, scale) for c in r] == r_over_q


class TestPseudoRem:
    @staticmethod
    def exponent(num, den):
        e = max(len(poly.trim(num)) - len(den) + 1, 0)
        return e + e % 2

    def test_scaled_field_remainder_over_z(self, rng):
        # lead^e * num has the remainder pseudo_rem(num, den) over Q, with e
        # even, and the pseudo-remainder stays in Z[X].
        for _ in range(40):
            num = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
            den = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [rng.choice([-4, -1, 2, 3])]
            rem = poly.pseudo_rem(num, den)
            assert all(type(c) is int for c in rem) and len(rem) < len(den)
            scale = Fraction(den[-1]) ** self.exponent(num, den)
            expected = poly.divmod([scale * c for c in num], [Fraction(c) for c in den])[1]
            assert rem == expected

    def test_scaled_field_remainder_over_q_zeta_12(self, rng):
        for _ in range(10):
            num = [random_cyc(rng, 12) for _ in range(rng.randint(1, 6))]
            den = [random_cyc(rng, 12) for _ in range(rng.randint(1, 3))]
            if not den[-1]:
                den[-1] = CycNumber.zeta(12)
            scale = den[-1] ** self.exponent(num, den)
            assert poly.pseudo_rem(num, den) == poly.divmod([scale * c for c in num], den)[1]

    def test_monic_divisor_takes_no_rescaling(self, rng, monkeypatch):
        # X^2 - d as in the Weil decision: the field remainder, from only
        # the products c * den[j] of the deg num - 1 elimination steps.
        products = []
        original = CycNumber.__mul__

        def counting(self, other):
            products.append(other)
            return original(self, other)

        for _ in range(10):
            num = [random_cyc(rng, 12) for _ in range(rng.randint(3, 9))]
            num[-1] = num[-1] or CycNumber.one(12)
            den = [random_cyc(rng, 12), CycNumber.zero(12), CycNumber.one(12)]
            expected = poly.divmod(num, den)[1]
            products.clear()
            with monkeypatch.context() as patch:
                patch.setattr(CycNumber, "__mul__", counting)
                assert poly.pseudo_rem(num, den) == expected
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
