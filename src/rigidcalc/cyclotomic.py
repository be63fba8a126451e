"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A value is stored as its order N together with the coefficient vector of the
reduced power basis 1, zeta, ..., zeta^(phi(N)-1) modulo the N-th cyclotomic
polynomial Phi_N.  The reduced representative is unique, so equality within a
fixed ambient order is plain coefficient comparison.  Operands of different
orders are lifted to the least common multiple before combining.

>>> z = CycNumber.zeta(4)
>>> z * z
CycNumber('-1', order=4)
>>> (1 + CycNumber.zeta(3)).multiplicative_order()
6
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath

from . import poly
from .errors import InvalidOrder, NotAnEmbedding

RationalLike = int | Fraction

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


def _reduce_raw(raw, n: int) -> tuple[Fraction, ...]:
    # Fold zeta^k with k >= n via zeta^n = 1, then rewrite through the table.
    phi = euler_phi(n)
    table = _power_table(n)
    out = [Fraction(0)] * phi
    for k, c in enumerate(raw):
        c = _as_fraction(c)
        if not c:
            continue
        k %= n
        if k < phi:
            out[k] += c
        else:
            for j, t in enumerate(table[k]):
                if t:
                    out[j] += c * t
    return tuple(out)


def _invert_mod_cyclotomic(coeffs: tuple[Fraction, ...], n: int) -> tuple[Fraction, ...]:
    # Extended Euclid against Phi_n; Phi_n is irreducible so any nonzero
    # element is a unit.  Phi_n goes in as Fractions: the remainders are
    # not monic, and int / int would give floats.
    r0 = [Fraction(c) for c in cyclotomic_polynomial(n)]
    r1 = poly.trim(coeffs)
    if not r1:
        raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
    s0: list[Fraction] = []
    s1 = [Fraction(1)]
    while r1:
        q, r = poly.divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly.sub(s0, poly.mul(q, s1))
    unit = r0[0]  # gcd has degree 0
    return _reduce_raw([c / unit for c in s0], n)


def _solve_linear(columns: list[tuple[Fraction, ...]], target: tuple[Fraction, ...]):
    # Solve sum_j x_j * columns[j] = target over Q; None if inconsistent.
    nrows = len(target)
    ncols = len(columns)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if aug[i][c]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [a * inv for a in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols]:
            return None
    solution = [Fraction(0)] * ncols
    for row, c in enumerate(pivots):
        solution[c] = aug[row][ncols]
    return tuple(solution)


class CycNumber:
    """An element of Q(zeta_N) in the reduced power basis mod Phi_N.

    Instances are immutable; all arithmetic returns new values.  Mixing
    orders is allowed and resolves by lifting to the lcm of the orders.
    """

    __slots__ = ("order", "coeffs", "_canonical")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(_as_fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError(
                f"need phi({order}) = {euler_phi(order)} coefficients, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs
        self._canonical = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_raw(cls, raw, order: int) -> "CycNumber":
        """Reduce a coefficient vector in zeta^0..zeta^(len-1) mod Phi_N.

        This is the normalization map: it is idempotent on already-reduced
        vectors padded back to length N.
        """
        return cls(order, _reduce_raw(raw, order))

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycNumber":
        zeros = (Fraction(0),) * (euler_phi(order) - 1)
        return cls(order, (_as_fraction(value),) + zeros)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CycNumber":
        """The root of unity zeta_N^power."""
        _check_order(order)
        raw = [Fraction(0)] * order
        raw[power % order] = Fraction(1)
        return cls.from_raw(raw, order)

    @classmethod
    def zero(cls, order: int = 1) -> "CycNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CycNumber":
        return cls.from_rational(1, order)

    @classmethod
    def coerce(cls, value, order: int = 1) -> "CycNumber":
        """Accept a CycNumber, int or Fraction; lift to at least ``order``."""
        if isinstance(value, CycNumber):
            x = value
        else:
            x = cls.from_rational(value, order)
        if order % x.order == 0:
            return x.lift(order)
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
        raw = [Fraction(0)] * order
        for i, c in enumerate(self.coeffs):
            raw[i * step] = c
        return CycNumber.from_raw(raw, order)

    def _common(self, other: "CycNumber"):
        n = math.lcm(self.order, other.order)
        return self.lift(n), other.lift(n), n

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            coeffs = (self.coeffs[0] + other,) + self.coeffs[1:]
            return CycNumber(self.order, coeffs)
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b, n = self._common(other)
        return CycNumber(n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycNumber(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNumber(self.order, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CycNumber):
            return NotImplemented
        if other.is_rational():
            q = other.coeffs[0]
            return CycNumber(self.order, tuple(c * q for c in self.coeffs)) \
                if self.order % other.order == 0 else self._mul_full(other)
        if self.is_rational() and other.order % self.order == 0:
            q = self.coeffs[0]
            return CycNumber(other.order, tuple(c * q for c in other.coeffs))
        return self._mul_full(other)

    def _mul_full(self, other: "CycNumber") -> "CycNumber":
        a, b, n = self._common(other)
        la, lb = len(a.coeffs), len(b.coeffs)
        prod = [Fraction(0)] * (la + lb - 1)
        for i, ci in enumerate(a.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(b.coeffs):
                if cj:
                    prod[i + j] += ci * cj
        return CycNumber.from_raw(prod, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return CycNumber(self.order, tuple(c / other for c in self.coeffs))
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
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "CycNumber":
        if self.is_rational():
            return CycNumber(self.order, (1 / self.coeffs[0],) + self.coeffs[1:])
        return CycNumber(self.order, _invert_mod_cyclotomic(self.coeffs, self.order))

    def conjugate(self) -> "CycNumber":
        """Complex conjugation zeta -> zeta^(N-1), a field involution."""
        n = self.order
        raw = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            raw[(-i) % n] += c
        return CycNumber.from_raw(raw, n)

    def residue(self) -> int | None:
        """Image in F_p under zeta -> r, with (p, r) = residue_prime(order).

        This is the residue map of the degree-one prime (p, zeta - r) of
        Z[zeta], restricted to Z_(p)[zeta]: a ring homomorphism, because
        Phi_N(r) = 0 mod p.  None when p divides a coefficient's
        denominator, where the value lies outside Z_(p)[zeta].
        """
        p, r = residue_prime(self.order)
        acc = 0
        for c in reversed(self.coeffs):
            d = c.denominator
            if d == 1:
                acc = (acc * r + c.numerator) % p
            elif d % p:
                acc = (acc * r + c.numerator * pow(d, -1, p)) % p
            else:
                return None
        return acc

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> "CycNumber":
        """The same value written at its conductor (minimal order)."""
        if self._canonical is None:
            self._canonical = self._compute_canonical()
        return self._canonical

    def _compute_canonical(self) -> "CycNumber":
        n = self.order
        if n == 1:
            return self
        if self.is_rational():
            return CycNumber(1, (self.coeffs[0],))
        for d in divisors(n)[1:-1]:
            basis = [CycNumber.zeta(d, i).lift(n).coeffs for i in range(euler_phi(d))]
            sol = _solve_linear(basis, self.coeffs)
            if sol is not None:
                return CycNumber(d, sol)
        return self

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
        By Kronecker's theorem self is a root of unity iff it is an algebraic
        integer (integral coefficients: the power basis spans Z[zeta_N]) with
        |sigma(self)| = 1 for every embedding, i.e. self * conj(self) = 1, as
        conjugation commutes with every embedding of this abelian field.  It
        is then a power of zeta_m, m = lcm(N, 2).  The exponent is read off
        one complex embedding and confirmed exactly; only when that check
        fails are all m powers of zeta_m compared.
        """
        if any(c.denominator != 1 for c in self.coeffs):
            return None
        if not (self * self.conjugate()).is_one():
            return None
        m = self.order if self.order % 2 == 0 else 2 * self.order
        with mpmath.workprec(DEFAULT_EMBED_PRECISION):
            turns = mpmath.arg(self.embed()) / (2 * mpmath.pi)
            j = int(mpmath.nint(m * turns)) % m
        if self != CycNumber.zeta(m, j):
            j = next(i for i in range(m) if self == CycNumber.zeta(m, i))
        g = math.gcd(j, m)
        return (m // g, j // g)

    # -- embeddings ----------------------------------------------------------

    def embed(self, a: int = 1, prec: int = DEFAULT_EMBED_PRECISION):
        """Evaluate at zeta = exp(2*pi*i*a/N) as an mpmath complex number.

        The result carries at least ``prec`` bits; gcd(a, N) must be 1 so the
        evaluation is a field embedding.
        """
        if math.gcd(a, self.order) != 1:
            raise NotAnEmbedding(f"gcd({a}, {self.order}) != 1")
        with mpmath.workprec(prec + 16):
            root = mpmath.expjpi(mpmath.mpf(2 * a) / self.order)
            acc = mpmath.mpc(0)
            for c in reversed(self.coeffs):
                acc = acc * root + mpmath.mpf(c.numerator) / c.denominator
        return acc

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycNumber):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        c = self.canonical()
        return hash((c.order, c.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
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
