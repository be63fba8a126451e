"""Hypergeometric monodromy tuples on P^1 - {0, 1, infinity}.

Given parameter lists a_1..a_n and b_1..b_n of roots of unity, let A and B
be the companion matrices of prod(T - a_j) and prod(T - b_j).  The tuple
places B^-1 at 0 and A^-1 B at 1, so the derived monodromy at infinity is
B^-1 A B; local eigenvalue data is therefore b_j^-1 at 0 and a_j at infinity,
and A^-1 B - I has rank at most 1 (a pseudo-reflection at 1).

A multiplicity function m on roots of unity != 1 selects a_j = 1 (n times)
and each key zeta repeated m(zeta) times, which produces one unipotent
Jordan block of full size at infinity and one block of size m(zeta) per key
at 0.  The puncture assignment (maximal unipotent block at infinity,
quasi-reflection at 1) is a convention of this library.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import poly
from .cyclotomic import CycNumber
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
    """Tuple on punctures {0, 1} from two parameter lists in mu_N."""
    a_list = [CycNumber.coerce(a, order) for a in a_params]
    b_list = [CycNumber.coerce(b, order) for b in b_params]
    if not a_list or not b_list:
        raise EmptyParameters("parameter lists must be nonempty")
    if len(a_list) != len(b_list):
        raise DimensionMismatch("parameter lists must have equal length")
    # A root of unity of Q(zeta_N) can have order 2N (-1 lies in Q).
    common = order
    for value in a_list + b_list:
        exponent = value.multiplicative_order()
        if exponent is None:
            raise NotRootOfUnity(f"{value} is not a root of unity")
        common = math.lcm(common, value.order, exponent)
    a_poly = poly.from_roots([v.lift(common) for v in a_list])
    b_poly = poly.from_roots([v.lift(common) for v in b_list])
    a_mat = ExactMatrix.companion(a_poly, order=common)
    b_mat = ExactMatrix.companion(b_poly, order=common)
    at_zero = b_mat.inverse()
    at_one = a_mat.inverse() * b_mat
    return MonodromyTuple(common, ["0", "1"], [at_zero, at_one])


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
