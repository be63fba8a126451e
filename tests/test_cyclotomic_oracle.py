"""Field arithmetic in Q(zeta_N) against sympy's polynomial remainder mod Phi_N.

Each value is drawn at an order N in ORDERS with small random rational
coefficients.  A result of order L is compared, coefficient by coefficient,
with the remainder sympy computes modulo cyclotomic_poly(L) after writing
every operand in zeta_L.  Hypothesis runs derandomized and without an
example database, so every run draws the same examples.
"""
import json
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from rigidcalc import CycNumber, euler_phi  # noqa: E402
from rigidcalc.serialization import canonical_dumps, cyc_from_json, cyc_to_json  # noqa: E402

X = sympy.Symbol("X")

ORDERS = (1, 2, 3, 4, 5, 8, 12)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def cyc(draw, orders=ORDERS):
    n = draw(st.sampled_from(orders))
    phi = euler_phi(n)
    return CycNumber(n, draw(st.lists(rationals, min_size=phi, max_size=phi)))


def nonzero(x: CycNumber) -> bool:
    return not x.is_zero()


def as_sympy(x: CycNumber, order: int):
    """x as a polynomial in zeta_order."""
    step = order // x.order
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * X ** (i * step) for i, c in enumerate(x.coeffs)),
        sympy.Integer(0),
    )


def reduced(expr, order: int) -> tuple[Fraction, ...]:
    """Coefficients of expr mod Phi_order, constant term first, padded to phi."""
    modulus = sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain="QQ")
    rem = sympy.Poly(expr, X, domain="QQ").rem(modulus).all_coeffs()[::-1]
    rem += [0] * (euler_phi(order) - len(rem))
    return tuple(Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, rem))


def check(result: CycNumber, expr, order: int) -> None:
    assert (result.order, result.coeffs) == (order, reduced(expr, order))


@SETTINGS
@given(cyc(), cyc())
def test_sum_and_product(a, b):
    n = math.lcm(a.order, b.order)
    check(a + b, as_sympy(a, n) + as_sympy(b, n), n)
    check(a * b, as_sympy(a, n) * as_sympy(b, n), n)


@SETTINGS
@given(cyc(), cyc().filter(nonzero))
def test_quotient_and_inverse(a, b):
    n = math.lcm(a.order, b.order)
    phi_b = sympy.cyclotomic_poly(b.order, X)
    check(b.inverse(), sympy.invert(as_sympy(b, b.order), phi_b, X), b.order)
    inverse_in_n = sympy.invert(as_sympy(b, n), sympy.cyclotomic_poly(n, X), X)
    check(a / b, as_sympy(a, n) * inverse_in_n, n)


@SETTINGS
@given(cyc(), st.integers(min_value=1, max_value=24))
def test_canonical_is_independent_of_the_ambient_order(x, k):
    m = x.order * k
    if m > 24:
        m = x.order
    lifted = x.lift(m)
    assert lifted == x
    c, d = lifted.canonical(), x.canonical()
    assert (c.order, c.coeffs) == (d.order, d.coeffs)


@SETTINGS
@given(cyc())
def test_json_round_trip_is_byte_identical(x):
    text = canonical_dumps(cyc_to_json(x))
    back = cyc_from_json(json.loads(text))
    assert back == x and back.order == x.order
    assert canonical_dumps(cyc_to_json(back)) == text


def test_oracle_sees_a_wrong_product():
    # The comparison is not vacuous: zeta3 * zeta3 is zeta3^2 = -1 - zeta3.
    z = CycNumber.zeta(3)
    assert reduced(as_sympy(z, 3) ** 2, 3) == (Fraction(-1), Fraction(-1))
    assert (z * z).coeffs == (Fraction(-1), Fraction(-1))
