"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A value is stored as its order N together with the coefficient vector of the
reduced power basis 1, zeta, ..., zeta^(phi(N)-1) modulo the N-th cyclotomic
polynomial Phi_N, written as integer numerators over one shared positive
denominator in lowest terms.  The reduced representative is unique, so
equality within a fixed ambient order is plain tuple comparison.  Operands
of different orders are lifted to the least common multiple before combining.

>>> z = CycNumber.zeta(4)
>>> z * z
CycNumber('-1', order=4)
>>> (1 + CycNumber.zeta(3)).multiplicative_order()
6
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import mpmath

from . import poly
from .errors import InvalidOrder, NotAnEmbedding

#: bits of working precision for complex embeddings unless overridden
DEFAULT_EMBED_PRECISION = 128

#: largest conductor accepted; the reduction table of Q(zeta_N) holds
#: N * phi(N) integers, so an unchecked order from the input can exhaust memory
MAX_ORDER = 1000


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


#: Miller-Rabin with the first 13 prime bases is exact below this bound
#: (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
#: 2015); above it the test could accept a composite.
_MILLER_RABIN_BOUND = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above the exact bound."""
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"primality of {n} is decided exactly only below {_MILLER_RABIN_BOUND}")
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_order(n: int) -> None:
    # The field Q(zeta_n) has conductor n // 2 when n = 2 (mod 4), and the
    # cap applies to the conductor: the negatives of odd-order roots of
    # unity live at order 2n.
    if n < 1:
        raise InvalidOrder(f"cyclotomic order must be >= 1, got {n}")
    if (n // 2 if n % 4 == 2 else n) > MAX_ORDER:
        raise InvalidOrder(f"cyclotomic order {n} is above the supported maximum {MAX_ORDER}")


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first, leading coefficient 1.

    Computed by dividing X^n - 1 by Phi_d for every proper divisor d of n.

    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    _check_order(n)
    phi = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        phi, rem = poly.divmod(phi, cyclotomic_polynomial(d))
        if rem:
            raise ArithmeticError("polynomial division was not exact")
    return tuple(phi)


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """phi(n), read off as the degree of Phi_n."""
    return len(cyclotomic_polynomial(n)) - 1


@functools.lru_cache(maxsize=None)
def residue_prime(n: int) -> tuple[int, int]:
    """(p, r): the largest prime p < 2^31 with p = 1 (mod n), and r in F_p
    of multiplicative order exactly n.

    r is then a root of Phi_n mod p, so zeta_n -> r extends to a ring map
    from Z_(p)[zeta_n] onto F_p (see CycNumber.residue).
    """
    _check_order(n)
    p = (2**31 - 2) // n * n + 1
    while not _is_prime(p):
        p -= n
    primes = [q for q in divisors(n) if _is_prime(q)]
    for g in range(2, p):
        r = pow(g, (p - 1) // n, p)
        if all(pow(r, n // q, p) != 1 for q in primes):
            return p, r
    raise ArithmeticError(f"no element of order {n} mod {p}")  # pragma: no cover


@functools.lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    # Row k holds the coefficients of X^k reduced mod Phi_n, for 0 <= k < n.
    phi = euler_phi(n)
    cyc = cyclotomic_polynomial(n)
    rows = []
    row = [0] * phi
    if phi:
        row[0] = 1
    rows.append(tuple(row))
    for _ in range(1, n):
        shifted = [0] + list(rows[-1][: phi - 1])
        lead = rows[-1][phi - 1]
        if lead:
            for j in range(phi):
                shifted[j] -= lead * cyc[j]
        rows.append(tuple(shifted))
    return tuple(rows)


@functools.lru_cache(maxsize=32)
def _unit_circle(n: int, bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # cos and sin of 2 pi k / n for 0 <= k < n, times 2^bits, rounded to
    # integers.  The 32 guard bits keep each within one of its exact value.
    with mpmath.workprec(bits + 32):
        turns = [mpmath.mpf(2 * k) / n for k in range(n)]
        cos = tuple(int(mpmath.nint(mpmath.ldexp(mpmath.cospi(t), bits))) for t in turns)
        sin = tuple(int(mpmath.nint(mpmath.ldexp(mpmath.sinpi(t), bits))) for t in turns)
    return cos, sin


def _over_common_denominator(values) -> tuple[tuple[int, ...], int]:
    # Rationals as integer numerators over their least common denominator.
    fracs = [_as_fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


def _reduce_raw(raw, n: int) -> list[int]:
    # Fold zeta^k with k >= n via zeta^n = 1, then rewrite through the table.
    phi = euler_phi(n)
    table = _power_table(n)
    out = [0] * phi
    for k, c in enumerate(raw):
        if not c:
            continue
        k %= n
        if k < phi:
            out[k] += c
        else:
            for j, t in enumerate(table[k]):
                if t:
                    out[j] += c * t
    return out


def _convolve_into(raw: list, xs, ys, scale: int = 1) -> None:
    # raw[k] += scale * sum_{i+j=k} xs[i] * ys[j]: the one integer product
    # of the package, used by dot and by the extended Euclid of inverse.
    # Zeros of xs and trailing zeros of ys are skipped, so a product with a
    # rational factor costs len(xs) or len(ys) steps, not their product.
    m = len(ys)
    while m > 1 and not ys[m - 1]:
        m -= 1
    ys = ys[:m]
    i = 0
    for a in xs:
        if a:
            a *= scale
            k = i
            for b in ys:
                raw[k] += a * b
                k += 1
        i += 1


def dot(xs, ys, order: int) -> "CycNumber":
    """sum x * y over the pairs of CycNumbers xs, ys, all at ``order``.

    One normalization per result: pairs with a zero factor are skipped, the
    other numerator convolutions are added over a running common
    denominator (the lcm of the products' denominators), and the sum is
    folded mod Phi_order by one _reduce_raw and reduced once by CycNumber.
    The operands must already be at ``order``; nothing is lifted here.
    """
    phi = euler_phi(order)
    den = 1
    if phi == 1:
        num = 0
        for x, y in zip(xs, ys):
            a, b = x.nums[0], y.nums[0]
            if a and b:
                d = x.den * y.den
                if d == den:
                    num += a * b
                else:
                    g = math.gcd(den, d)
                    num = num * (d // g) + a * b * (den // g)
                    den = den // g * d
        return CycNumber(order, (num,), den)
    raw = [0] * (2 * phi - 1)
    for x, y in zip(xs, ys):
        xn, yn = x.nums, y.nums
        if not (any(xn) and any(yn)):
            continue
        d = x.den * y.den
        scale = 1
        if d != den:
            g = math.gcd(den, d)
            if d != g:
                up = d // g
                raw = [c * up for c in raw]
            scale = den // g
            den = den // g * d
        _convolve_into(raw, xn, yn, scale)
    return CycNumber(order, _reduce_raw(raw, order), den)


class CycNumber:
    """An element of Q(zeta_N) in the reduced power basis mod Phi_N.

    Stored as integer numerators ``nums`` over one positive denominator
    ``den`` with gcd(den, *nums) = 1, so the representation at a fixed order
    is unique.  ``CycNumber(order, coeffs, den)`` is sum coeffs[i] zeta^i / den
    for rational coeffs.  Instances are immutable; all arithmetic returns
    new values.  Mixing orders is allowed and resolves by lifting to the lcm
    of the orders.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs, den: int = 1):
        nums = tuple(coeffs)
        try:
            g = math.gcd(den, *nums)
        except TypeError:  # not all ints: put rationals over one denominator
            nums, common = _over_common_denominator(nums)
            den *= common
            g = math.gcd(den, *nums)
        if len(nums) != euler_phi(order):
            raise ValueError(f"need phi({order}) = {euler_phi(order)} coefficients, got {len(nums)}")
        if den < 0:
            g = -g
        elif not den:
            raise ZeroDivisionError("zero denominator")
        if g != 1:
            nums = tuple(c // g for c in nums)
            den //= g
        self.order = order
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions: a read-only view."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_raw(cls, raw, order: int) -> "CycNumber":
        """Reduce a coefficient vector in zeta^0..zeta^(len-1) mod Phi_N.

        This is the normalization map: it is idempotent on already-reduced
        vectors padded back to length N.
        """
        nums, den = _over_common_denominator(raw)
        return cls(order, _reduce_raw(nums, order), den)

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycNumber":
        value = _as_fraction(value)
        zeros = (0,) * (euler_phi(order) - 1)
        return cls(order, (value.numerator,) + zeros, value.denominator)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CycNumber":
        """The root of unity zeta_N^power."""
        _check_order(order)
        raw = [0] * order
        raw[power % order] = 1
        return cls(order, _reduce_raw(raw, order))

    @classmethod
    def zero(cls, order: int = 1) -> "CycNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CycNumber":
        return cls.from_rational(1, order)

    @classmethod
    def coerce(cls, value, order: int = 1) -> "CycNumber":
        """Accept a CycNumber, int or Fraction; lift to at least ``order``."""
        _check_order(order)  # math.lcm below would make a negative order positive
        if isinstance(value, CycNumber):
            x = value
        else:
            x = cls.from_rational(value, order)
        return x.lift(math.lcm(x.order, order))

    # -- order handling --------------------------------------------------

    def lift(self, order: int) -> "CycNumber":
        """Rewrite in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise InvalidOrder(f"{self.order} does not divide {order}")
        _check_order(order)
        step = order // self.order
        raw = [0] * order
        for i, c in enumerate(self.nums):
            raw[i * step] = c
        return CycNumber(order, _reduce_raw(raw, order), self.den)

    def _common(self, other: "CycNumber"):
        if self.order == other.order:
            return self, other, self.order
        n = math.lcm(self.order, other.order)
        return self.lift(n), other.lift(n), n

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def _add(self, other, op=operator.add):
        # self + other, or self - other for op = operator.sub: one construction.
        if isinstance(other, CycNumber):
            a, b, n = self._common(other)
            da, db = a.den, b.den
            if da == db:
                return CycNumber(n, tuple(map(op, a.nums, b.nums)), da)
            return CycNumber(n, tuple(op(x * db, y * da) for x, y in zip(a.nums, b.nums)), da * db)
        if isinstance(other, (int, Fraction)):
            q = other.denominator
            nums = self.nums
            head = op(nums[0] * q, other.numerator * self.den)
            return CycNumber(self.order, (head,) + tuple(c * q for c in nums[1:]), self.den * q)
        return NotImplemented

    __add__ = __radd__ = _add

    def __sub__(self, other):
        return self._add(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycNumber(self.order, tuple(-c for c in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, CycNumber):
            if other.is_rational() and self.order % other.order == 0:
                p = other.nums[0]
                return CycNumber(self.order, tuple(c * p for c in self.nums), self.den * other.den)
            if self.is_rational() and other.order % self.order == 0:
                p = self.nums[0]
                return CycNumber(other.order, tuple(c * p for c in other.nums), self.den * other.den)
            a, b, n = self._common(other)
            return dot((a,), (b,), n)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return CycNumber(self.order, tuple(c * p for c in self.nums), self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            q = other.denominator
            return CycNumber(self.order, tuple(c * q for c in self.nums), self.den * other.numerator)
        if not isinstance(other, CycNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = CycNumber.one(base.order)
        while True:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    def inverse(self) -> "CycNumber":
        n = self.order
        if self.is_rational():
            return CycNumber(n, (self.den,) + self.nums[1:], self.nums[0])
        # Extended Euclid against Phi_n over Z by pseudo-division.  Every
        # remainder r keeps r = s * nums (mod Phi_n), and r, s are divided by
        # their common content so the integers stay small.  Phi_n is
        # irreducible, so the last nonzero remainder is a constant c, and
        # the inverse of nums / den is den * s / c.
        r0, s0 = list(cyclotomic_polynomial(n)), []
        r1, s1 = poly.trim(self.nums), [1]
        while len(r1) > 1:
            scale, q, r = poly.pseudo_divmod(r0, r1)
            qs1 = [0] * (len(q) + len(s1) - 1)
            _convolve_into(qs1, q, s1)
            s = poly.sub([scale * t for t in s0], qs1)
            g = math.gcd(*r, *s)
            r0, s0, r1, s1 = r1, s1, [t // g for t in r], [t // g for t in s]
        return CycNumber(n, _reduce_raw([self.den * t for t in s1], n), r1[0])

    def conjugate(self) -> "CycNumber":
        """Complex conjugation zeta -> zeta^(N-1), a field involution."""
        n = self.order
        raw = [0] * n
        for i, c in enumerate(self.nums):
            raw[(-i) % n] += c
        return CycNumber(n, _reduce_raw(raw, n), self.den)

    def residue(self) -> int | None:
        """Image in F_p under zeta -> r, with (p, r) = residue_prime(order).

        This is the residue map of the degree-one prime (p, zeta - r) of
        Z[zeta], restricted to Z_(p)[zeta]: a ring homomorphism, because
        Phi_N(r) = 0 mod p.  None when p divides the denominator, which is
        the lcm of the coefficients' reduced denominators: there the value
        lies outside Z_(p)[zeta].
        """
        p, r = residue_prime(self.order)
        if self.den % p == 0:
            return None
        acc = 0
        for c in reversed(self.nums):
            acc = (acc * r + c) % p
        return acc if self.den == 1 else acc * pow(self.den, -1, p) % p

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> "CycNumber":
        """The same value written at its conductor (minimal order).

        Descends one prime q | N at a time, from order n to m = n / q, and
        keeps the candidate y in Q(zeta_m) only if y lifts back to the value:
        1. the orders d | N with the value in Q(zeta_d) are closed under gcd,
           as Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)); so greedy
           descent reaches the least of them, and a prime whose descent
           fails never succeeds later;
        2. if q | m, Phi_n(X) = Phi_m(X^q) and y keeps every q-th numerator;
           else zeta_n^k = zeta_m^(ku) * zeta_q^(kv) for u = 1/q mod m and
           v = 1/m mod q, and y is the trace to Q(zeta_m) over q - 1, which
           sends zeta_q^b to 1 when q | b and to -1/(q - 1) otherwise;
        3. each map is Q(zeta_m)-linear and fixes Q(zeta_m), so the value
           lies in Q(zeta_m) iff y lifts back to it;
        4. the least such order is never 2 (mod 4), so it is the conductor.
        """
        if self.is_rational():
            return CycNumber(1, self.nums[:1], self.den)
        x = self
        for q in filter(_is_prime, divisors(self.order)):
            while x.order % q == 0:
                m = x.order // q
                if m % q == 0:
                    y = CycNumber(m, x.nums[::q], x.den)
                else:
                    u, raw = pow(q, -1, m), [0] * m
                    for k, c in enumerate(x.nums):
                        raw[k * u % m] += c * (q - 1) if k % q == 0 else -c
                    y = CycNumber(m, _reduce_raw(raw, m), x.den * (q - 1))
                if y.lift(x.order) != x:
                    break
                x = y
        return x

    def sort_key(self):
        """A deterministic total-order key, stable across ambient orders."""
        c = self.canonical()
        return (c.order, c.coeffs)

    def multiplicative_order(self) -> int | None:
        """Order as a root of unity, or None if not one."""
        exponent = self.root_of_unity_exponent()
        return None if exponent is None else exponent[0]

    def root_of_unity_exponent(self) -> tuple[int, int] | None:
        """(k, j) with self = zeta_k^j, gcd(j, k) = 1, or None.

        k is the multiplicative order, so the pair is unique with 0 <= j < k.
        With N = self.order, m = lcm(N, 2) and (p, r) = residue_prime(N):
        1. the roots of unity of K = Q(zeta_N) are mu_m;
        2. they are algebraic integers, and the power basis spans Z[zeta_N],
           so den != 1 rules self out;
        3. zeta_m = s * zeta_N^e, with (s, e) = (1, 1) for even N and
           (-1, (N + 1) / 2) for odd N, has the residue g = s * r^e, of order
           m in F_p as p = 1 (mod N) is odd; the residue map is a ring map
           (see modp), so it is injective on mu_m;
        4. so a residue outside <g> proves self no root of unity; otherwise
           self is one iff self = zeta_m^j for the one j < m with g^j equal
           to its residue, which is compared exactly at order N.
        """
        if self.den != 1:
            return None
        n = self.order
        m, s, e = (n, 1, 1) if n % 2 == 0 else (2 * n, -1, (n + 1) // 2)
        p, r = residue_prime(n)
        g, target = s * pow(r, e, p) % p, self.residue()
        j = next((j for j in range(m) if pow(g, j, p) == target), None)
        if j is None or self != s**j * CycNumber.zeta(n, e * j):
            return None
        d = math.gcd(j, m)
        return (m // d, j // d)

    # -- embeddings ----------------------------------------------------------

    def embed(self, a: int = 1, prec: int = DEFAULT_EMBED_PRECISION):
        """Evaluate at zeta = exp(2*pi*i*a/N) as an mpmath complex number.

        The real and the imaginary part are each within 2^-prec * sum|c| of
        the exact value, for the coefficients c; gcd(a, N) must be 1 so the
        evaluation is a field embedding.
        """
        n = self.order
        if math.gcd(a, n) != 1:
            raise NotAnEmbedding(f"gcd({a}, {n}) != 1")
        # Fixed point: each table entry is within one unit 2^-bits of its
        # value, so re and im are within sum|nums| units of the exact sums;
        # the three roundings to bits significant bits below add at most
        # three more such bounds, and 4 * 2^-bits < 2^-prec.
        bits = prec + 16
        cos, sin = _unit_circle(n, bits)
        re = im = 0
        for i, c in enumerate(self.nums):
            if c:
                k = a * i % n
                re += c * cos[k]
                im += c * sin[k]
        with mpmath.workprec(prec + 16):
            scale = mpmath.mpf(self.den << bits)
            return mpmath.mpc(re / scale, im / scale)

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycNumber):
            a, b, _ = self._common(other)
            return a.nums == b.nums and a.den == b.den
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.nums[0] * other.denominator == other.numerator * self.den
        return NotImplemented

    def __hash__(self):
        c = self.canonical()  # a rational hashes as the equal Fraction and int
        return hash(Fraction(c.nums[0], c.den) if c.order == 1 else (c.order, c.nums, c.den))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_rational():
            return str(self.as_rational())
        exponent = self.root_of_unity_exponent()
        if exponent is not None:
            k, j = exponent
            return f"zeta{k}" if j == 1 else f"zeta{k}^{j}"
        name = f"zeta{self.order}"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            power = name if i == 1 else f"{name}^{i}"
            if c == 1:
                term = power
            elif c == -1:
                term = f"-{power}"
            else:
                term = f"{c}*{power}"
            if parts and not term.startswith("-"):
                term = "+" + term
            parts.append(term)
        return "".join(parts)

    def __repr__(self):
        return f"CycNumber('{self}', order={self.order})"
