"""Weil-number checks for Frobenius characteristic polynomials.

A candidate is a monic polynomial Q over Q(zeta_N) together with a prime
power q and an integer weight w.  Purity of weight w demands that every root
alpha, under every complex embedding, satisfies |alpha|^2 = q^w.  Two checks
approximate this from both sides:

* the exact functional equation conj(Q)(X) = X^n Q(q^w / X) / Q(0),
  a necessary condition that costs no floating point at all;
* a numerical magnitude check on all roots under one embedding of each
  complex-conjugate pair (the other gives the conjugate roots), run at
  high precision with a certified error margin and automatic precision
  doubling (up to 4096 bits) when a root cannot be decided.

The overall verdict passes only when both agree.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import poly
from .cyclotomic import CycNumber, _is_prime
from .errors import RootFindingFailure, ZeroConstantTerm

#: starting working precision (bits) for the magnitude check; it doubles
#: up to the cap while a root cannot be certified
DEFAULT_PRECISION_BITS = 256
_PRECISION_CAP = 4096


def _is_prime_power(q: int) -> bool:
    # q = b^k with b prime forces k <= log2 q.  The float root is off by far
    # less than 1 for q below the Miller-Rabin bound, and b^k == q is exact.
    if q < 2:
        return False
    if _is_prime(q):
        return True
    for k in range(2, q.bit_length()):
        b = round(q ** (1 / k))
        if any(c ** k == q and _is_prime(c) for c in (b - 1, b, b + 1)):
            return True
    return False


class WeilVerdict(enum.Enum):
    PASS = "Pass"
    FAIL_FUNCTIONAL_EQUATION = "FailFunctionalEquation"
    FAIL_MAGNITUDE = "FailMagnitude"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class WeilPolynomial:
    """Monic polynomial over Q(zeta_N) with residue size q and weight w."""

    coeffs: tuple[CycNumber, ...]  # constant term first
    q: int
    w: int

    def __init__(self, coeffs, q: int, w: int):
        values = tuple(CycNumber.coerce(c) for c in coeffs)
        if len(values) < 2:
            raise ValueError("a Weil polynomial must have degree >= 1")
        common = 1
        for v in values:
            common = math.lcm(common, v.order)
        values = tuple(v.lift(common) for v in values)
        if not values[-1].is_one():
            raise ValueError("Weil polynomial must be monic")
        if values[0].is_zero():
            raise ZeroConstantTerm("Q(0) = 0 is not allowed")
        if not _is_prime_power(q):
            raise ValueError(f"q must be a prime power >= 2, got {q}")
        object.__setattr__(self, "coeffs", values)
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "w", int(w))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def order(self) -> int:
        return self.coeffs[0].order

    def __str__(self):
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            if k == 0:
                body = str(c)
            else:
                x = "X" if k == 1 else f"X^{k}"
                if c.is_one():
                    body = x
                elif c == -1:
                    body = f"-{x}"
                elif c.is_rational():
                    body = f"{c.as_rational()}{x}"
                else:
                    body = f"({c})*{x}"
            if terms and not body.startswith("-"):
                body = "+" + body
            terms.append(body)
        return "".join(terms) or "0"


def functional_equation_check(p: WeilPolynomial) -> bool:
    """Exact test of conj(Q)(X) = X^n Q(q^w / X) / Q(0)."""
    if p.coeffs[0].is_zero():  # unreachable through the constructor
        raise ZeroConstantTerm("Q(0) = 0 is not allowed")
    n = p.degree
    scale = Fraction(p.q) ** p.w
    c0 = p.coeffs[0]
    for k in range(n + 1):
        left = p.coeffs[k].conjugate() * c0
        right = p.coeffs[n - k] * (scale ** (n - k))
        if left != right:
            return False
    return True


def _squarefree_part(coeffs) -> tuple[CycNumber, ...]:
    """Monic polynomial with the same roots, all simple: f / gcd(f, f')."""
    f = poly.trim(coeffs)
    a, b = f, poly.trim(poly.derivative(f))
    while b:
        a, b = b, poly.divmod(a, b)[1]
    gcd = [c / a[-1] for c in a]
    if len(gcd) == 1:
        return tuple(f)
    return tuple(poly.divmod(f, gcd)[0])


def _embedded_coeffs(coeffs, a: int, prec: int):
    # Leading coefficient first, as mpmath.polyroots expects.
    return [c.embed(a, prec=prec) for c in reversed(coeffs)]


def _decide_roots(squarefree, a: int, target_q: int, target_w: int, tolerance, prec: int):
    """Return True/False when every root is certified, else None."""
    n = len(squarefree) - 1
    with mpmath.workprec(prec):
        coeffs = _embedded_coeffs(squarefree, a, prec)
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=prec // 2)
        except mpmath.mp.NoConvergence:
            return None
        target = mpmath.mpf(target_q) ** target_w
        allowed = mpmath.mpf(tolerance) * target
        eps = mpmath.mpf(2) ** (4 - prec)
        verdict = True
        for root in roots:
            residual = abs(mpmath.polyval(coeffs, root))
            # The floating residual, plus a first-order bound on the
            # rounding error of the evaluation itself and of the embedded
            # coefficients.
            magnitude_sum = mpmath.mpf(0)
            for c in coeffs:
                magnitude_sum = magnitude_sum * abs(root) + abs(c)
            certified = residual + (2 * n) * eps * magnitude_sum
            # Every monic polynomial has a root within certified**(1/n) of
            # the evaluation point, so the true root is inside this margin.
            distance = certified ** (mpmath.mpf(1) / n)
            margin = distance * (2 * abs(root) + distance)
            value = abs(root) ** 2
            deviation = abs(value - target)
            if deviation > allowed + margin:
                verdict = False
            elif deviation > allowed - margin:
                return None  # undecided at this precision
        return verdict


def magnitude_check(p: WeilPolynomial, tolerance=1e-20) -> bool:
    """True iff | |alpha|^2 - q^w | <= tolerance * q^w for every root alpha
    of every complex embedding of Q, certified numerically.
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    squarefree = _squarefree_part(p.coeffs)
    n_field = p.order
    # Embeddings a and N - a are complex conjugate, and so are their roots,
    # which have equal moduli: one embedding per conjugate pair decides.
    embeddings = [
        a for a in range(1, max(1, n_field // 2) + 1) if math.gcd(a, n_field) == 1
    ]
    for a in embeddings:
        prec = DEFAULT_PRECISION_BITS
        decided = None
        while prec <= _PRECISION_CAP:
            decided = _decide_roots(squarefree, a, p.q, p.w, tolerance, prec)
            if decided is not None:
                break
            prec *= 2
        if decided is None:
            raise RootFindingFailure(
                f"could not certify roots of {p} at embedding {a} within "
                f"{_PRECISION_CAP} bits"
            )
        if not decided:
            return False
    return True


def weil_check(p: WeilPolynomial, tolerance=1e-20) -> WeilVerdict:
    """Both checks in order; reports the first failing stage."""
    if not functional_equation_check(p):
        return WeilVerdict.FAIL_FUNCTIONAL_EQUATION
    if not magnitude_check(p, tolerance):
        return WeilVerdict.FAIL_MAGNITUDE
    return WeilVerdict.PASS


@dataclass(frozen=True)
class HodgeMultiset:
    """Multiset of Hodge numbers with an attached weight."""

    values: tuple[int, ...]
    w: int

    def __init__(self, values, w: int):
        values = tuple(sorted(int(v) for v in values))
        if not values:
            raise ValueError("a Hodge multiset must be nonempty")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "w", int(w))

    def __len__(self):
        return len(self.values)


def hodge_conjugate_dual(h: HodgeMultiset) -> HodgeMultiset:
    """{w - x : x in values}, with the same weight; an involution."""
    return HodgeMultiset([h.w - x for x in h.values], h.w)


def hodge_is_regular(h: HodgeMultiset) -> bool:
    """True iff every element has multiplicity 1."""
    return len(set(h.values)) == len(h.values)
