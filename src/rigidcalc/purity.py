"""Weil-number checks for Frobenius characteristic polynomials.

A candidate is a monic polynomial Q over Q(zeta_N) together with a prime
power q and an integer weight w.  Purity of weight w demands that every root
alpha, under every complex embedding, satisfies |alpha|^2 = q^w.  Two stages
decide it:

* the exact functional equation conj(Q)(X) = X^n Q(q^w / X) / Q(0),
  a necessary condition that costs no floating point at all;
* the magnitude stage: an exact decision of purity by Sturm counts over the
  real subfield (see _exactly_pure), which is the verdict.  The counts are
  of distinct roots, so repeated roots stay; one remainder sequence serves
  the gcds that remove the roots +-sqrt(q^w) and each Sturm chain.  On
  impure input only, a numerical check of all roots follows under one
  embedding of each complex-conjugate pair, at high precision with a
  certified error margin and automatic precision doubling (up to 4096
  bits), on the squarefree part; its tolerance decides magnitude_check,
  never weil_check.

The overall verdict passes only when both stages pass.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import modp, poly
from .cyclotomic import CycNumber, _is_prime, _lift_to_common, residue_prime
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
        values, _ = _lift_to_common([CycNumber.coerce(c) for c in coeffs])
        if len(values) < 2:
            raise ValueError("a Weil polynomial must have degree >= 1")
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

    @functools.cached_property
    def _pure(self) -> bool:
        # The exact purity decision, made once per polynomial.
        return _exactly_pure(self)

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
    n = p.degree
    c0 = p.coeffs[0]
    # k = 0 reads conj(c_0) c_0 = q^(wn), and q^|wn| has more than
    # |wn| (bits(q) - 1) bits: a smaller c_0 fails on sizes alone, before
    # q^w, which a large |w| makes huge, is built.
    norm = c0.conjugate() * c0
    if not norm.is_rational():
        return False
    norm = norm.as_rational()
    part = norm.numerator if p.w >= 0 else norm.denominator  # where q^|wn| must sit
    if part.bit_length() <= abs(p.w * n) * (p.q.bit_length() - 1):
        return False
    scale = Fraction(p.q) ** p.w
    if norm != scale ** n:
        return False
    for k in range(1, n + 1):
        left = p.coeffs[k].conjugate() * c0
        right = p.coeffs[n - k] * (scale ** (n - k))
        if left != right:
            return False
    return True


def _monic_gcd(a, b) -> list:
    """Monic gcd of two nonzero polynomials over Q(zeta_N): the last term
    of their _remainder_sequence, made monic by one inverse."""
    g = _remainder_sequence(*([CycNumber.coerce(c) for c in poly.trim(f)] for f in (a, b)))[-1]
    inv = g[-1].inverse()
    return [c * inv for c in g]


def _remainder_sequence(f, g) -> list[list[CycNumber]]:
    """f, g, then -R / lc(a)^e after the last two terms a, b, up to the
    last nonzero term, each term made primitive: R is the remainder of
    poly.pseudo_divmod(a, b), and e the even exponent that the division
    before, by a, returned (no division when lc(a) is rational).

    1. Each term is a K^x multiple of the Euclidean remainder, so the gcd
       is unchanged.
    2. lc(a)^e with e even, and positive rationals, are positive under
       every real embedding, so over K+ each term is a positive multiple of
       the classical Sturm term.
    3. The division is exact, as in Collins' reduced PRS ("Subresultants
       and reduced polynomial remainder sequences", J. ACM 14, 1967), so
       heights stay linear in the normal case.
    """
    seq = [_primitive(f), _primitive(g)]
    e = 0
    while len(seq[-1]) > 1:  # after a constant, every remainder is 0
        a, b = seq[-2:]
        step, _, rem = poly.pseudo_divmod(a, b)
        if not rem:
            break
        if e and not a[-1].is_rational():
            scale = a[-1].inverse() ** e
            rem = [c * scale for c in rem]
        seq.append(_primitive(rem, -1))
        e = step
    return seq


def _squarefree_part(coeffs) -> tuple[CycNumber, ...]:
    """The monic f with the same roots, all simple: f / gcd(f, f')."""
    f = poly.trim(coeffs)
    return tuple(poly.divmod(f, _monic_gcd(f, poly.derivative(f)))[0])


def _conjugate_pair_representatives(n: int) -> list[int]:
    # Embeddings a and N - a are complex conjugate: a <= N/2 meets each
    # conjugate pair once, and each real embedding of Q(zeta_N) ∩ R once.
    return [a for a in range(1, max(1, n // 2) + 1) if math.gcd(a, n) == 1]


def _primitive(f, sign: int = 1) -> list[CycNumber]:
    # sign * f, times the positive rational that makes all its numerators
    # coprime integers: heights stay small, and under every embedding each
    # value keeps the sign it has in sign * f.
    den = math.lcm(*(c.den for c in f))
    g = math.gcd(*(x * (den // c.den) for c in f for x in c.nums))
    if den == g and sign == 1:
        return f
    return [c * Fraction(sign * den, g) for c in f]


def _trace_polynomial(s, d) -> list[CycNumber]:
    """h with S(X) = X^m h(X + d/X), for S of degree 2m with a_(m-k) =
    d^k a_(m+k).

    X^-m S = a_m + sum a_(m+k) (X^k + d^k X^-k), and X^k + d^k X^-k =
    D_k(X + d/X) with D_0 = 2, D_1 = t and D_(k+1) = t D_k - d D_(k-1).
    """
    m = (len(s) - 1) // 2
    h = [s[m]] + [s[m] * 0] * m
    prev, cur = [2], [0, 1]
    for k in range(1, m + 1):
        for j, c in enumerate(cur):
            h[j] += s[m + k] * c
        prev, cur = cur, poly.sub([0] + cur, [d * c for c in prev])
    return h


def _real_sign(x: CycNumber, a: int) -> int:
    """Sign of the real number iota_a(x), for x fixed by complex conjugation.

    Exact when x is rational.  Otherwise x is not zero, nor is iota_a(x),
    and the precision doubles until the real part of x.embed(a, prec)
    exceeds that method's error bound, 2^-prec * sum|c|: the sign of the
    approximation is then the sign of iota_a(x).
    """
    if x.is_rational():
        return (x.nums[0] > 0) - (x.nums[0] < 0)
    size = mpmath.mpf(sum(map(abs, x.nums))) / x.den
    prec = 64
    while True:
        value = x.embed(a, prec).real
        if abs(value) > mpmath.ldexp(size, -prec):
            return 1 if value > 0 else -1
        prec *= 2


def _sign_variations(signs) -> int:
    nonzero = [s for s in signs if s]
    return sum(x != y for x, y in zip(nonzero, nonzero[1:]))


def _exactly_pure(p: WeilPolynomial) -> bool:
    """True iff every root of Q, under every complex embedding, has
    |alpha|^2 = d = q^w; decided exactly (Kedlaya, "Search techniques for
    root-unitary polynomials", 2008).

    Let K+ = Q(zeta_N) ∩ R and let iota_a, gcd(a, N) = 1, be the embeddings.

    1. R = Q * conj(Q), or Q itself when Q = conj(Q), lies in K+[X].  The
       roots of iota_a(R) are those of iota_a(Q) and their complex
       conjugates, of equal moduli, since iota_a commutes with conjugation.
       So R is pure iff Q is.
    2. S is R without its roots +-sqrt(d), which are pure: R itself when
       the residues of R and E = X^2 - d are coprime over F_p (E and R are
       monic, so their resultant maps to that of the residues, and is
       nonzero), else R divided by exact gcds with E until they are 1.
    3. In a pure S, alpha and d / alpha = conj(alpha) have equal
       multiplicities, and none is fixed: S has even degree 2m and
       a_(m-k) = d^k a_(m+k), or Q is impure; then S = X^m h(X + d/X).
    4. A root t of h carries the roots of X^2 - tX + d, of its multiplicity,
       and |alpha|^2 = d iff t is real with t^2 < 4d; h(+-2 sqrt d) != 0, as
       S has no root +-sqrt(d).  Sturm's theorem counts distinct roots, and
       h has m - delta, delta = deg gcd(h, h'), the degree of the chain's
       last term: Q is pure iff under every real embedding its sign
       variations drop by m - delta across (-2 sqrt d, 2 sqrt d).

    Soundness of computing once over K+: iota_a is an injective ring map,
    so it commutes with sums and products and keeps nonzero coefficients
    nonzero; degrees and the remainder sequence commute with it, and
    _remainder_sequence(h, h') maps to positive multiples of a Sturm chain
    of iota_a(h), whose last term is a multiple of the gcd.  A chain term
    takes the value A +- B sqrt(d) at +-2 sqrt(d), with A, B in K+.  Its
    sign follows from the signs of A and B, and, where they differ, of
    A^2 - B^2 d; each is a zero test or a certified sign from _real_sign.
    No verdict rests on a rounded value.
    """
    d = Fraction(p.q) ** p.w
    coeffs = list(p.coeffs)
    bar = [c.conjugate() for c in coeffs]
    s = coeffs if bar == coeffs else poly.mul(coeffs, bar)
    one = s[-1]
    edge = [one * -d, one * 0, one]  # X^2 - d
    residues = modp.residues(s), modp.residues(edge)
    if None in residues or not modp.coprime(*residues, residue_prime(p.order)[0]):
        while len(g := _monic_gcd(s, edge)) > 1:
            s = poly.divmod(s, g)[0]
    m, odd = divmod(len(s) - 1, 2)
    if odd or any(s[m - k] != s[m + k] * d**k for k in range(1, m + 1)):
        return False
    if m == 0:
        return True
    h = _trace_polynomial(s, d)
    chain = _remainder_sequence(h, poly.derivative(h))
    distinct = m - (len(chain[-1]) - 1)
    values = []
    for f in chain:
        halves = [one * 0, one * 0]
        for k, c in enumerate(f):
            halves[k % 2] += c * (2**k * d ** (k // 2))
        a_part, b_part = halves
        values.append((a_part, b_part, a_part * a_part - b_part * b_part * d))

    def sign_at_edge(sa, sb, se):
        # sign of A + B sqrt(d) from the signs of A, B and A^2 - B^2 d
        return sa or sb if sa * sb >= 0 else sa * se

    for a in _conjugate_pair_representatives(p.order):
        upper, lower = [], []
        for a_part, b_part, norm in values:
            sa, sb = _real_sign(a_part, a), _real_sign(b_part, a)
            se = _real_sign(norm, a) if sa and sb else 0
            upper.append(sign_at_edge(sa, sb, se))
            lower.append(sign_at_edge(sa, -sb, se))
        if _sign_variations(lower) - _sign_variations(upper) != distinct:
            return False
    return True


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

    An exactly pure Q (see _exactly_pure) passes at once, as its roots
    deviate by 0; only an impure Q has its roots found numerically.
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    if p._pure:
        return True
    squarefree = _squarefree_part(p.coeffs)
    # One embedding per conjugate pair decides: conjugate roots have equal moduli.
    for a in _conjugate_pair_representatives(p.order):
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
    """Both stages in order; reports the first failing stage.

    The verdict is exact: the magnitude stage fails whenever Q is impure,
    also when every root lies within the tolerance of the circle, and a
    RootFindingFailure of the numeric check, raised only on impure input,
    ends in FailMagnitude too.
    """
    if not functional_equation_check(p):
        return WeilVerdict.FAIL_FUNCTIONAL_EQUATION
    try:
        within = magnitude_check(p, tolerance)
    except RootFindingFailure:
        within = False
    if not (within and p._pure):
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
