"""Hypergeometric monodromy tuples on P^1 - {0, 1, infinity}.

Given parameter lists a_1..a_n and b_1..b_n of roots of unity, let A and B
be the companion matrices of prod(T - a_j) and prod(T - b_j).  The tuple
places B^-1 at 0 and A^-1 B at 1, so the derived monodromy at infinity,
(A^-1 B B^-1)^-1, is A itself: the Beukers-Heckman normal form A_inf A_1 A_0
= I (Levelt's theorem; Beukers-Heckman, Invent. Math. 95 (1989), section
3).  Local eigenvalue data is therefore b_j^-1 at 0 and a_j at infinity, and
A^-1 B - I has rank at most 1 (a pseudo-reflection at 1).

Both generators are built in closed form, with no matrix inverse or
product.  For a companion matrix C of T^n + c_(n-1) T^(n-1) + ... + c_0,
C e_i = e_(i+1) for i < n - 1, so C^-1 has ones on the superdiagonal, and
C e_(n-1) = -(c_0, ..., c_(n-1)) gives column 0 of C^-1 as -c_0^-1 (c_1,
..., c_(n-1), 1).  Here c_0 = (-1)^n prod of the roots is a root of unity,
so c_0^-1 is its complex conjugate.  A and B differ only in their last
columns, -alpha and -beta for the coefficient vectors alpha and beta, so
A^-1 B = I + A^-1 (alpha - beta) e_n^T.

A multiplicity function m on roots of unity != 1 selects a_j = 1 (n times)
and each key zeta repeated m(zeta) times, which produces one unipotent
Jordan block of full size at infinity and one block of size m(zeta) per key
at 0.  The puncture assignment (maximal unipotent block at infinity,
quasi-reflection at 1) is a convention of this library.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import poly
from .cyclotomic import CycNumber, _lift_to_common
from .errors import DimensionMismatch, EmptyParameters, EmptySupport, NotRootOfUnity
from .linalg import ExactMatrix
from .monodromy import MonodromyTuple


@dataclass(frozen=True)
class MultiplicityFunction:
    """Finite map from roots of unity != 1 to positive multiplicities."""

    entries: tuple[tuple[CycNumber, int], ...]

    @classmethod
    def of(cls, mapping) -> "MultiplicityFunction":
        items = mapping.items() if isinstance(mapping, dict) else mapping
        seen: list[tuple[CycNumber, int]] = []
        for key, mult in items:
            key = CycNumber.coerce(key)
            mult = int(mult)
            if mult <= 0:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            if key.multiplicative_order() is None:
                raise NotRootOfUnity(f"{key} is not a root of unity")
            if key.is_one():
                raise ValueError("1 is not an allowed key of a multiplicity function")
            if any(key == k for k, _ in seen):
                raise ValueError(f"repeated key {key}")
            seen.append((key, mult))
        seen.sort(key=lambda kv: kv[0].sort_key())
        return cls(tuple(seen))

    @property
    def rank(self) -> int:
        return sum(mult for _, mult in self.entries)

    def items(self):
        return self.entries


def hypergeometric_tuple(a_params, b_params, order: int) -> MonodromyTuple:
    """Tuple on punctures {0, 1} from two parameter lists of roots of unity,
    at the lcm of ``order`` and the parameters' orders as CycNumbers."""
    a_list = [CycNumber.coerce(a, order) for a in a_params]
    b_list = [CycNumber.coerce(b, order) for b in b_params]
    if not a_list or not b_list:
        raise EmptyParameters("parameter lists must be nonempty")
    if len(a_list) != len(b_list):
        raise DimensionMismatch("parameter lists must have equal length")
    for value in a_list + b_list:
        if value.multiplicative_order() is None:
            raise NotRootOfUnity(f"{value} is not a root of unity")
    params, order = _lift_to_common(a_list + b_list, order)
    n = len(a_list)
    alpha, beta = poly.from_roots(params[:n]), poly.from_roots(params[n:])
    zero, one = CycNumber.zero(order), CycNumber.one(order)
    # B^-1: ones on the superdiagonal, column 0 = -beta_0^-1 (beta_1, ..., beta_n)
    f = -beta[0].conjugate()
    at_zero = [f * beta[i + 1] if j == 0 else one if j == i + 1 else zero for i in range(n) for j in range(n)]
    # A^-1 B = I + w e_n^T, w = A^-1 d for d = alpha - beta, whose d_n is 0
    d = [x - y for x, y in zip(alpha, beta)]
    f = d[0] * alpha[0].conjugate()
    at_one = [one if i == j else zero for i in range(n) for j in range(n)]
    for i in range(n):
        at_one[i * n + n - 1] += d[i + 1] - f * alpha[i + 1]
    matrices = [ExactMatrix(n, n, entries, order=order) for entries in (at_zero, at_one)]
    return MonodromyTuple(order, ["0", "1"], matrices)


def from_multiplicity_function(m: MultiplicityFunction | dict, order: int) -> MonodromyTuple:
    """Hypergeometric tuple with a_j = 1 and b-parameters read off m.

    Rank is the total multiplicity; the result carries a single unipotent
    block at infinity, one block of size m(zeta) with eigenvalue zeta^-1 per
    key at 0, and a quasi-reflection at 1.
    """
    if not isinstance(m, MultiplicityFunction):
        m = MultiplicityFunction.of(m)
    if not m.entries:
        raise EmptySupport("multiplicity function needs nonempty support")
    n = m.rank
    ones = [CycNumber.one(order)] * n
    b_params: list[CycNumber] = []
    for key, mult in m.items():
        b_params.extend([key] * mult)
    return hypergeometric_tuple(ones, b_params, order)
