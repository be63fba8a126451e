"""The exact gcd and the Sturm chain of the Weil decision against references.

sympy computes monic gcds in its own domains, ``QQ`` for Q and ``QQ_I`` for
Q(i) = Q(zeta_4), and the classical Sturm chain is recomputed here by
field division (``poly.divmod``), so no pseudo-remainder of rigidcalc takes
part in either reference.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from rigidcalc import CycNumber, poly
from rigidcalc.purity import _monic_gcd, _remainder_sequence

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
    # A degree-8 product over Q(zeta_12): each division by a power of an
    # irrational leading coefficient takes one inverse, as does making the
    # gcd monic, and no coefficient is inverted.  Here deg f - deg gcd = 4.
    z = CycNumber.zeta(12)
    f = repeated_product([(z, 2), (z**5 + 2, 3), (z - Fraction(1, 2), 1), (-z**3, 2)], 12)
    assert len(f) == 9
    gcd, calls = count_inverses(monkeypatch, f)
    assert gcd == poly.from_roots([z, z**5 + 2, z**5 + 2, -z**3])
    assert calls <= len(f) - len(gcd)


def classical_sturm(h: list) -> list:
    """h, h', -rem, ... by division over the field."""
    chain = [h, poly.derivative(h)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in poly.divmod(chain[-2], chain[-1])[1]])
    return chain


def random_real(rng, order: int) -> CycNumber:
    """x + conj(x) for a random x: an element of Q(zeta_order) ∩ R."""
    x = random_cyc(rng, order, span=3)
    return x + x.conjugate()


def is_squarefree(h: list) -> bool:
    return len(classical_sturm(h)[-1]) == 1  # gcd(h, h') is a nonzero constant


def random_squarefree(rng, order: int) -> list:
    """A squarefree h over Q(zeta_order) ∩ R of degree 3..7.  Sparse
    coefficients make some remainders drop two or more degrees, where the
    even exponent matters.  Over Q the coefficients are integers in [-6, 6]
    and the leading one a small rational."""
    def coefficient(lead: bool = False) -> CycNumber:
        if order > 1:
            return random_real(rng, order)
        return CycNumber.from_rational(random_rational(rng) if lead else rng.randint(-6, 6))

    zero = CycNumber.zero(order)
    while True:
        degree = rng.randint(3, 7)
        h = [rng.choice([zero, zero, coefficient()]) for _ in range(degree)]
        h.append(coefficient(lead=True) or CycNumber.from_rational(-2, order))
        if is_squarefree(h):
            return h


def test_sturm_chain_is_a_positive_multiple_of_the_classical_one(rng):
    # Over Q and over K+ = Q(zeta_N) ∩ R for N = 5, 8, 12, whose real
    # embeddings iota_a, a <= N/2, can give one number different signs.
    for order, count in ((1, 60), (5, 12), (8, 12), (12, 12)):
        corpus = [random_squarefree(rng, order) for _ in range(count)]
        # X^4 + bX + c gives remainders of degrees 3, 1, 0: one odd exponent
        pairs = [(3, 1), (-3, 1), (5, -2), (-5, -2)]
        pairs += [(random_real(rng, order), random_real(rng, order)) for _ in range(4)]
        zero, one = CycNumber.zero(order), CycNumber.one(order)
        quartics = [[CycNumber.coerce(c, order), CycNumber.coerce(b, order), zero, zero, one] for b, c in pairs]
        for h in [h for h in quartics if is_squarefree(h)] + corpus:
            chain = _remainder_sequence(h, poly.derivative(h))
            classical = classical_sturm(h)
            assert len(chain) == len(classical)
            for term, reference in zip(chain, classical):
                assert len(term) == len(reference)
                ratios = {c / r for c, r in zip(term, reference) if r}
                assert len(ratios) == 1
                assert all(c.is_zero() for c, r in zip(term, reference) if not r)
                ratio = ratios.pop()
                if order == 1:
                    assert ratio.as_rational() > 0
                    continue
                for a in range(1, order // 2 + 1):
                    if math.gcd(a, order) == 1:
                        assert ratio.embed(a, 512).real > 0
