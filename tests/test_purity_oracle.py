"""The exact gcd and the Sturm chain of the Weil decision against references.

sympy computes monic gcds in its own domains, ``QQ`` for Q and ``QQ_I`` for
Q(i) = Q(zeta_4), and the classical Sturm chain is recomputed here by
Euclid over Fractions, so no pseudo-remainder of rigidcalc takes part in
either reference.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from rigidcalc import CycNumber, poly
from rigidcalc.purity import _monic_gcd, _sturm_chain

from helpers import random_cyc, random_rational

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ, QQ_I  # noqa: E402

X = sympy.Symbol("X")


def as_sympy(x: CycNumber):
    re, im = (sympy.Rational(c.numerator, c.denominator) for c in x.lift(4).coeffs)
    return re + sympy.I * im


def sympy_poly(f, order: int):
    expr = sum(as_sympy(CycNumber.coerce(c)) * X**k for k, c in enumerate(f))
    return sympy.Poly(expr, X, domain=QQ if order == 1 else QQ_I)


def product_with_repeats(rng, order: int, roots) -> list:
    """A random nonzero constant times prod (c_i X - r_i)^(k_i), k_i in 1..3."""
    f = [random_cyc(rng, order) or CycNumber.one(order)]
    for root in roots:
        scale = random_rational(rng) or Fraction(1)
        for _ in range(rng.randint(1, 3)):
            f = poly.mul(f, [-root, CycNumber.from_rational(scale, order)])
    return f


def gcd_inputs(rng, order: int):
    shared = [random_cyc(rng, order) for _ in range(rng.randint(0, 3))]
    a = product_with_repeats(rng, order, shared + [random_cyc(rng, order) for _ in range(rng.randint(0, 2))])
    b = product_with_repeats(rng, order, shared + [random_cyc(rng, order) for _ in range(rng.randint(0, 2))])
    return a, b


@pytest.mark.parametrize("order", [1, 4])
def test_monic_gcd_matches_sympy(rng, order):
    for _ in range(15):
        a, b = gcd_inputs(rng, order)
        for pair in ((a, b), (a, poly.derivative(a)), (b, a)):
            if len(pair[1]) == 0:
                continue
            gcd = _monic_gcd(*pair)
            oracle = sympy.gcd(sympy_poly(pair[0], order), sympy_poly(pair[1], order))
            assert gcd[-1].is_one()
            assert sympy_poly(gcd, order) == oracle


@pytest.mark.parametrize("order", [1, 4, 12])
def test_monic_gcd_ignores_rational_scaling(rng, order):
    for _ in range(10):
        a, b = gcd_inputs(rng, order)
        gcd = _monic_gcd(a, b)
        s = random_rational(rng) or Fraction(-7, 3)
        assert _monic_gcd([c * s for c in a], b) == gcd
        assert _monic_gcd(a, [c * s for c in b]) == gcd


def count_inverses(monkeypatch, f):
    """_monic_gcd(f, f') and the number of CycNumber.inverse calls it made."""
    calls = []
    original = CycNumber.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    with monkeypatch.context() as patch:
        patch.setattr(CycNumber, "inverse", counting)
        gcd = _monic_gcd(f, poly.derivative(f))
    return gcd, len(calls)


def repeated_product(roots_and_multiplicities, order):
    f = [CycNumber.one(order)]
    for root, k in roots_and_multiplicities:
        f = poly.mul(f, poly.from_roots([CycNumber.coerce(root, order)] * k))
    return f


def test_one_inverse_while_leading_coefficients_are_rational(monkeypatch):
    # Over Q every remainder has a rational leading coefficient: the only
    # inverse is the one that makes the gcd monic.
    f = repeated_product([(2, 3), (Fraction(-1, 3), 2), (5, 1), (Fraction(7, 2), 2)], 1)
    assert len(f) == 9
    gcd, calls = count_inverses(monkeypatch, f)
    assert gcd == poly.from_roots([2, 2, Fraction(-1, 3), Fraction(7, 2)])
    assert calls == 1


def test_at_most_one_inverse_per_remainder(monkeypatch):
    # A degree-8 product over Q(zeta_12): each remainder with an irrational
    # leading coefficient is made monic by one inverse, and the gcd needs no
    # further inverse per coefficient.  Here deg f - deg gcd = 4.
    z = CycNumber.zeta(12)
    f = repeated_product([(z, 2), (z**5 + 2, 3), (z - Fraction(1, 2), 1), (-z**3, 2)], 12)
    assert len(f) == 9
    gcd, calls = count_inverses(monkeypatch, f)
    assert gcd == poly.from_roots([z, z**5 + 2, z**5 + 2, -z**3])
    assert calls <= len(f) - len(gcd)


def fraction_rem(num: list, den: list) -> list:
    """The remainder of num by den over Q, by schoolbook Euclid."""
    rem = list(num)
    while len(rem) >= len(den):
        c = rem[-1] / den[-1]
        shift = len(rem) - len(den)
        for j, t in enumerate(den):
            rem[shift + j] -= c * t
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def classical_sturm(h: list) -> list:
    chain = [h, [k * c for k, c in enumerate(h)][1:]]
    while len(chain[-1]) > 1:
        chain.append([-c for c in fraction_rem(chain[-2], chain[-1])])
    return chain


def random_squarefree(rng) -> list:
    """A squarefree h over Q of degree 3..7.  Sparse coefficients make some
    remainders drop two or more degrees, where the even exponent matters."""
    while True:
        degree = rng.randint(3, 7)
        h = [Fraction(rng.choice([0, 0, rng.randint(-6, 6)])) for _ in range(degree)]
        h.append(random_rational(rng) or Fraction(-2))
        if classical_sturm(h)[-1] != []:  # gcd(h, h') is a nonzero constant
            return h


def test_sturm_chain_is_a_positive_multiple_of_the_classical_one(rng):
    # X^4 + bX + c gives remainders of degrees 3, 1, 0: one odd exponent
    quartics = [[Fraction(c), Fraction(b), Fraction(0), Fraction(0), Fraction(1)]
                for b, c in ((3, 1), (-3, 1), (5, -2), (-5, -2))]
    for h in quartics + [random_squarefree(rng) for _ in range(60)]:
        chain = _sturm_chain([CycNumber.from_rational(c) for c in h])
        classical = classical_sturm(h)
        assert len(chain) == len(classical)
        for term, reference in zip(chain, classical):
            assert len(term) == len(reference)
            ratios = {c.as_rational() / r for c, r in zip(term, reference) if r}
            assert len(ratios) == 1 and ratios.pop() > 0
            assert all(c.is_zero() for c, r in zip(term, reference) if not r)
