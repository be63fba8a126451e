import math
import time
from fractions import Fraction

import mpmath
import pytest

from rigidcalc import CycNumber, ExactMatrix, cyclotomic, cyclotomic_polynomial, euler_phi
from rigidcalc.cyclotomic import _is_prime, _root_of_unity, divisors, dot, residue_prime
from rigidcalc.errors import InvalidOrder, NotAnEmbedding

from helpers import random_cyc, random_rational

ORDERS = [1, 2, 3, 4, 6, 12]


class TestCyclotomicPolynomial:
    def test_small_orders(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_degree_is_euler_phi(self):
        assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_product_over_divisors(self):
        # prod over d | n of Phi_d = X^n - 1, checked by evaluating at X = 2.
        for n in (6, 8, 12):
            product = 1
            for d in range(1, n + 1):
                if n % d == 0:
                    product *= sum(c * 2 ** k for k, c in enumerate(cyclotomic_polynomial(d)))
            assert product == 2 ** n - 1

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            cyclotomic_polynomial(0)

    def test_order_cap(self):
        # The cap is checked before any table is built.  Q(zeta_1998) is
        # Q(zeta_999), so the cap follows the conductor.
        with pytest.raises(InvalidOrder):
            cyclotomic_polynomial(1001)
        with pytest.raises(InvalidOrder):
            CycNumber.zeta(1001)
        with pytest.raises(InvalidOrder):
            CycNumber.zeta(2002)
        with pytest.raises(InvalidOrder):
            CycNumber.one().lift(1001)
        assert CycNumber.zeta(1998) ** 999 == -1


class TestNormalize:
    def test_zeta4_squared_is_minus_one(self):
        x = CycNumber.from_raw([0, 0, 1, 0], 4)
        assert x.coeffs == (Fraction(-1), Fraction(0))

    def test_zeta3_squared(self):
        x = CycNumber.from_raw([0, 0, 1], 3)
        assert x.coeffs == (Fraction(-1), Fraction(-1))

    def test_order_one_identity(self):
        x = CycNumber.from_raw([Fraction(7, 2)], 1)
        assert x.coeffs == (Fraction(7, 2),)

    def test_idempotent(self):
        x = CycNumber.from_raw([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], 12)
        padded = list(x.coeffs) + [0] * (12 - len(x.coeffs))
        assert CycNumber.from_raw(padded, 12) == x

    def test_zero_order_rejected(self):
        with pytest.raises(InvalidOrder):
            CycNumber.from_raw([1], 0)


class TestStorage:
    def test_integer_numerators_over_one_denominator(self, rng):
        # Equal values built different ways store the same ints in lowest
        # terms with a positive denominator; coeffs is the Fraction view.
        for order in (1, 2, 3, 5, 12):
            for _ in range(20):
                x = random_cyc(rng, order) * random_cyc(rng, order) + Fraction(1, 6)
                assert all(type(c) is int for c in x.nums) and type(x.den) is int
                assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
                assert x.coeffs == tuple(Fraction(c, x.den) for c in x.nums)
                assert CycNumber(order, x.coeffs).nums == x.nums
                doubled = CycNumber(order, [2 * c for c in x.nums], -2 * x.den)
                assert (doubled.nums, doubled.den) == (tuple(-c for c in x.nums), x.den)

    def test_common_denominator_argument(self):
        x = CycNumber(3, [1, 2], 5)
        assert x.coeffs == (Fraction(1, 5), Fraction(2, 5))
        assert x == CycNumber(3, [Fraction(1, 5), Fraction(2, 5)])
        with pytest.raises(ZeroDivisionError):
            CycNumber(3, [1, 2], 0)

    @pytest.mark.parametrize("bad", [1.5, "1", None])
    def test_non_rational_coefficients_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            CycNumber(1, [bad])
        with pytest.raises(TypeError):
            CycNumber(3, [1, bad])


class TestConjugation:
    def test_conj_i(self):
        z = CycNumber.zeta(4)
        assert z.conjugate() == -z

    def test_conj_one_plus_zeta3(self):
        z = CycNumber.zeta(3)
        assert (1 + z).conjugate() == -z

    def test_rational_fixed(self):
        x = CycNumber.from_rational(Fraction(5, 3))
        assert x.conjugate() == x

    def test_involution_and_homomorphism(self, rng):
        for order in ORDERS:
            for _ in range(50):
                x = random_cyc(rng, order)
                y = random_cyc(rng, order)
                assert x.conjugate().conjugate() == x
                assert (x * y).conjugate() == x.conjugate() * y.conjugate()
                assert (x + y).conjugate() == x.conjugate() + y.conjugate()


class TestEmbedding:
    def test_zeta4_is_i(self):
        value = CycNumber.zeta(4).embed(1)
        with mpmath.workprec(200):
            assert abs(value - mpmath.mpc(0, 1)) < mpmath.mpf("1e-30")

    def test_one_plus_zeta3(self):
        value = (1 + CycNumber.zeta(3)).embed(1)
        with mpmath.workprec(200):
            expected = 1 + mpmath.expjpi(mpmath.mpf(2) / 3)
            assert abs(value - expected) < mpmath.mpf("1e-30")
            assert abs(abs(value) - 1) < mpmath.mpf("1e-30")

    def test_rational(self):
        assert CycNumber.from_rational(2).embed(1) == 2

    def test_not_an_embedding(self):
        with pytest.raises(NotAnEmbedding):
            CycNumber.zeta(4).embed(2)

    def test_multiplicative(self, rng):
        for order in (3, 4, 12):
            units = [a for a in range(1, order + 1) if math.gcd(a, order) == 1]
            for _ in range(20):
                x = random_cyc(rng, order)
                y = random_cyc(rng, order)
                for a in units:
                    with mpmath.workprec(200):
                        left = (x * y).embed(a)
                        right = x.embed(a) * y.embed(a)
                        scale = max(abs(left), abs(right), mpmath.mpf(1))
                        assert abs(left - right) / scale < mpmath.mpf("1e-25")


class TestFieldAxioms:
    @pytest.mark.parametrize("order", ORDERS)
    def test_axioms(self, order, rng):
        one = CycNumber.one(order)
        for _ in range(1000):
            a = random_cyc(rng, order, span=3)
            b = random_cyc(rng, order, span=3)
            c = random_cyc(rng, order, span=3)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == one

    def test_mul_associativity_spot(self, rng):
        for order in (4, 12):
            for _ in range(100):
                a, b, c = (random_cyc(rng, order) for _ in range(3))
                assert (a * b) * c == a * (b * c)


def schoolbook_dot(xs, ys, order):
    # Products of the Fraction coefficients, reduced once by from_raw.
    raw = [Fraction(0)] * (2 * euler_phi(order) - 1)
    for x, y in zip(xs, ys):
        for i, a in enumerate(x.coeffs):
            for j, b in enumerate(y.coeffs):
                raw[i + j] += a * b
    return CycNumber.from_raw(raw, order)


class TestDot:
    @pytest.mark.parametrize("order", [1, 2, 5, 7, 8, 12])
    def test_matches_schoolbook_sum(self, rng, order):
        # zeros, rationals and general values, over unequal denominators
        def operand():
            kind = rng.randrange(3)
            if kind == 0:
                return CycNumber.zero(order)
            if kind == 1:
                return CycNumber.from_rational(random_rational(rng, 9), order)
            return random_cyc(rng, order, span=9)

        for _ in range(150):
            k = rng.randint(0, 5)
            xs = [operand() for _ in range(k)]
            ys = [operand() for _ in range(k)]
            value = dot(xs, ys, order)
            assert value.order == order
            assert value == schoolbook_dot(xs, ys, order)

    def test_general_product_is_a_one_pair_dot(self, rng):
        for order in (5, 12):
            for _ in range(50):
                x, y = random_cyc(rng, order), random_cyc(rng, order)
                assert x * y == dot((x,), (y,), order) == schoolbook_dot((x,), (y,), order)


class TestOrderMixing:
    def test_lcm_lifting(self):
        x = CycNumber.zeta(4) + CycNumber.zeta(3)
        assert x.order == 12

    def test_lift_preserves_value(self):
        z = CycNumber.zeta(3)
        lifted = z.lift(12)
        assert lifted.order == 12
        assert lifted == z
        assert (lifted * lifted * lifted).is_one()

    @pytest.mark.parametrize("order", [0, -1, -3, -12])
    def test_coerce_refuses_orders_below_one(self, order):
        # lcm(3, -3) = 3 would otherwise read a negative order as a valid one
        for value in (CycNumber.zeta(3), CycNumber.one(4), 1, Fraction(1, 2)):
            with pytest.raises(InvalidOrder):
                CycNumber.coerce(value, order)

    def test_cross_order_equality_and_hash(self):
        a = CycNumber.from_rational(-1, 2)
        b = CycNumber.from_raw([0, 0, 1, 0], 4)  # zeta4^2
        assert a == b
        assert hash(a) == hash(b)

    def test_canonical_conductor(self):
        z6 = CycNumber.zeta(6)
        assert z6.canonical().order == 3  # Q(zeta6) = Q(zeta3)
        assert z6.canonical() == z6
        assert CycNumber.zeta(4).canonical().order == 4
        assert CycNumber.from_rational(7, 12).canonical().order == 1

    def test_rationals_hash_as_ints_and_fractions(self):
        assert CycNumber.one(4) == 1
        assert len({CycNumber.one(4), 1}) == 1
        assert {1: "a"}.get(CycNumber.one(4)) == "a"
        assert hash(CycNumber.from_rational(Fraction(1, 2), 12)) == hash(Fraction(1, 2))


class TestConductor:
    @staticmethod
    def galois(x: CycNumber, a: int) -> CycNumber:
        # sigma_a: zeta -> zeta^a, by permuting the exponents of x's numerators
        n = x.order
        raw = [0] * n
        for i, c in enumerate(x.coeffs):
            raw[i * a % n] += c
        return CycNumber.from_raw(raw, n)

    def test_conductor_is_the_least_fixed_field(self, rng):
        # x lies in Q(zeta_d) iff every sigma_a with a = 1 (mod d) fixes it,
        # since those form Gal(Q(zeta_n) / Q(zeta_d)).
        for n in range(1, 61):
            units = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
            for _ in range(3):
                x = random_cyc(rng, rng.choice(divisors(n))).lift(n)
                if rng.randrange(2):
                    x = x + CycNumber.zeta(n, rng.randrange(n))
                least = next(
                    d for d in divisors(n) if all(self.galois(x, a) == x for a in units if a % d == 1 % d)
                )
                assert x.canonical().order == least, (n, x)
                assert x.canonical() == x

    @pytest.mark.parametrize("order", [998, 999, 1000])
    def test_conductor_of_a_root_of_unity(self, order):
        for j in (1, 3, 7, order - 1, 2, 10, 37):
            k = order // math.gcd(j, order)
            x = CycNumber.zeta(order, j)
            assert x.canonical().order == (k // 2 if k % 4 == 2 else k), j
            assert x.canonical() == x
            assert (-x).canonical() == -x

    def test_no_linear_algebra(self, rng, monkeypatch):
        def refuse(self):
            raise AssertionError("canonical form by elimination")

        monkeypatch.setattr(ExactMatrix, "rref", refuse)
        for n in range(1, 25):
            for d in divisors(n):
                x = random_cyc(rng, d).lift(n)
                assert x.canonical() == x and x.canonical().order <= d
                assert hash(x) == hash(x.canonical())
                assert x.sort_key() == x.canonical().sort_key()


class TestRootsOfUnity:
    def test_multiplicative_orders(self):
        assert CycNumber.one().multiplicative_order() == 1
        assert CycNumber.from_rational(-1).multiplicative_order() == 2
        assert CycNumber.zeta(6).multiplicative_order() == 6
        assert (1 + CycNumber.zeta(3)).multiplicative_order() == 6
        assert CycNumber.from_rational(2).multiplicative_order() is None
        assert (1 + CycNumber.zeta(4)).multiplicative_order() is None

    def test_exponent_form(self):
        assert CycNumber.zeta(12, 5).root_of_unity_exponent() == (12, 5)
        assert (-CycNumber.zeta(3)).root_of_unity_exponent() == (6, 5)
        assert CycNumber.one().root_of_unity_exponent() == (1, 0)
        assert (CycNumber.zeta(3) + 2).root_of_unity_exponent() is None
        # (3 + 4i) / 5 has absolute value 1 under both embeddings but is no
        # algebraic integer, so no root of unity
        assert CycNumber(4, [Fraction(3, 5), Fraction(4, 5)]).root_of_unity_exponent() is None

    def test_exponent_matches_power_walk(self):
        # The exponent by walking the powers of x until one is 1, then the
        # powers of zeta_k until one is x: an oracle by repeated products.
        def walked(x):
            power = x
            for k in range(1, 2 * x.order + 1):
                if power.is_one():
                    power = CycNumber.one(k)
                    for j in range(k):
                        if x == power:
                            return (k, j)
                        power = power * CycNumber.zeta(k)
                power = power * x
            return None

        for k in range(1, 25):
            for j in range(k):
                for x in (CycNumber.zeta(k, j), -CycNumber.zeta(k, j)):
                    assert x.root_of_unity_exponent() == walked(x)
                    assert x.multiplicative_order() == walked(x)[0]
        # sums of roots of unity: some are roots (1 + zeta3), most are not
        for k in range(1, 13):
            for j in range(k):
                for x in (1 + CycNumber.zeta(k, j), CycNumber.zeta(k, j) - CycNumber.zeta(k)):
                    assert x.root_of_unity_exponent() == walked(x), (k, j)

    def test_residue_collision_is_refused_exactly(self):
        # zeta12^5 + p has the residue of zeta12^5 but is no root of unity:
        # only the exact comparison tells them apart.
        p = residue_prime(12)[0]
        x = CycNumber.zeta(12, 5) + p
        assert x.residue() == CycNumber.zeta(12, 5).residue()
        assert x.root_of_unity_exponent() is None
        assert x.multiplicative_order() is None

    def test_no_complex_embedding_is_used(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("root_of_unity_exponent evaluated an embedding")

        monkeypatch.setattr(CycNumber, "embed", refuse)
        for k in range(1, 25):
            for j in range(k):
                g = math.gcd(j, k)
                assert CycNumber.zeta(k, j).root_of_unity_exponent() == (k // g, j // g)
                # -zeta_k^j = zeta_2k^(2j + k)
                e = (2 * j + k) % (2 * k)
                h = math.gcd(e, 2 * k)
                assert (-CycNumber.zeta(k, j)).root_of_unity_exponent() == (2 * k // h, e // h)
                assert (2 * CycNumber.zeta(k, j)).root_of_unity_exponent() is None

    def test_root_of_unity_writes_zeta_lcm_2_n_at_n(self):
        # zeta_m^u, m = lcm(2, N), written at order N, equals zeta_m^u
        # written at order m, for every u in range(m)
        for n in range(1, 31):
            m = math.lcm(2, n)
            for u in range(m):
                x = _root_of_unity(n, u)
                assert x.order == n and x == CycNumber.zeta(m, u), (n, u)

    def test_dense_large_order_root(self):
        # zeta997^996 = -(1 + zeta + ... + zeta^995) in the power basis
        x = CycNumber.zeta(997, 996)
        assert all(c == -1 for c in x.nums)
        assert x.root_of_unity_exponent() == (997, 996)

    def test_large_order_exponent_is_fast(self):
        start = time.perf_counter()
        assert str(-CycNumber.zeta(999)) == "zeta1998^1001"
        assert time.perf_counter() - start < 0.2
        start = time.perf_counter()  # not a root: x^1998 took 7 s
        assert (CycNumber.zeta(999) + 2).root_of_unity_exponent() is None
        assert (CycNumber.zeta(999) / 2).root_of_unity_exponent() is None
        assert time.perf_counter() - start < 0.5


class TestArithmeticDetails:
    def test_pow_negative(self):
        z = CycNumber.zeta(12)
        assert z ** -1 == z.inverse()
        assert (z ** -5) * (z ** 5) == 1

    def test_pow_squares_only_below_the_top_bit(self, monkeypatch):
        # x ** e squares once per bit below the top one and multiplies once
        # per further set bit; the first set bit meets the rational 1, which
        # takes no full product.
        x = CycNumber(12, [Fraction(1, 2), 2, -1, 3])
        calls = []
        full = cyclotomic.dot
        monkeypatch.setattr(cyclotomic, "dot", lambda *args: calls.append(args) or full(*args))
        for exponent, products in ((1, 0), (2, 1), (4, 2), (5, 3)):
            calls.clear()
            x ** exponent
            assert len(calls) == products, exponent
        monkeypatch.undo()
        for base in (x, x.inverse()):
            expected = CycNumber.one(12)
            for exponent in range(7):
                assert base ** exponent == expected
                assert (1 / base) ** exponent == base ** -exponent
                expected = expected * base

    def test_division(self):
        z = CycNumber.zeta(3)
        assert (z / z).is_one()
        assert 1 / z == z * z  # zeta3^-1 = zeta3^2

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            CycNumber.zero(3).inverse()

    def test_rational_inverse_keeps_order(self):
        for order in (1, 2, 3, 12):
            x = CycNumber.from_rational(Fraction(-3, 4), order)
            inv = x.inverse()
            assert inv.order == order
            assert inv == Fraction(-4, 3) and (x * inv).is_one()

    def test_scalar_ops(self):
        z = CycNumber.zeta(4)
        assert 2 * z - z == z
        assert (z + Fraction(1, 2)) - Fraction(1, 2) == z

    @pytest.mark.parametrize("order", [1, 3, 4, 12, 60])
    def test_subtraction_is_adding_the_negative(self, rng, order):
        # Same order, mixed orders and int/Fraction operands, on both sides;
        # every difference is stored in lowest terms.
        for _ in range(15):
            x = random_cyc(rng, order)
            others = [
                random_cyc(rng, order),
                random_cyc(rng, rng.choice([1, 2, 3, 4, 5, 6])),
                CycNumber(order, x.nums, rng.randint(1, 9) * x.den),
                rng.randint(-5, 5),
                random_rational(rng),
            ]
            for y in others:
                for diff, expected in ((x - y, x + (-y)), (y - x, -x + y)):
                    assert diff == expected
                    assert diff.den > 0 and math.gcd(diff.den, *diff.nums) == 1
            assert (x - x).is_zero()

    def test_str_forms(self):
        assert str(CycNumber.from_rational(Fraction(-7, 2))) == "-7/2"
        assert str(CycNumber.zeta(3)) == "zeta3"
        assert str(-CycNumber.zeta(3)) == "zeta6^5"
        assert str(CycNumber.zeta(3) + 2) == "2+zeta3"


def _trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestModularReduction:
    def test_is_prime_matches_trial_division(self):
        assert [n for n in range(1, 10**4 + 1) if _is_prime(n)] == [
            n for n in range(1, 10**4 + 1) if _trial_division_is_prime(n)
        ]

    def test_is_prime_refuses_past_exact_bound(self):
        assert _is_prime(2**61 - 1) and not _is_prime(2**61 + 1)
        with pytest.raises(ValueError):
            _is_prime(3317044064679887385961981)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8, 12, 999])
    def test_residue_prime(self, order):
        p, r = residue_prime(order)
        assert p < 2**31 and p % order == 1 % order and _is_prime(p)
        # the largest such prime: no p' = 1 (mod order) in (p, 2^31) is prime
        assert not any(_is_prime(q) for q in range(p + order, 2**31, order))
        powers = [pow(r, k, p) for k in range(1, order + 1)]
        assert powers[-1] == 1 and 1 not in powers[:-1]

    @pytest.mark.parametrize("order", [1, 3, 4, 5, 8, 12])
    def test_residue_is_a_ring_map(self, rng, order):
        p, r = residue_prime(order)
        assert CycNumber.zeta(order).residue() == r
        for _ in range(20):
            a, b = random_cyc(rng, order, span=50), random_cyc(rng, order, span=50)
            assert (a + b).residue() == (a.residue() + b.residue()) % p
            assert (a * b).residue() == a.residue() * b.residue() % p
            if not a.is_zero():
                assert (a.inverse()).residue() == pow(a.residue(), -1, p)

    def test_residue_undefined_on_p_in_denominator(self):
        p, _ = residue_prime(4)
        assert CycNumber(4, [Fraction(1), Fraction(1, p)]).residue() is None
        assert CycNumber(4, [Fraction(1, 2 * p + 1), Fraction(3)]).residue() is not None
