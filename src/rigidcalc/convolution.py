"""Rank-one systems, twists, middle convolution, and Katz rank reduction.

Middle convolution MC_lambda acts on a tuple (A_1, ..., A_r) of rank n by
first forming the rn x rn generators B_k: each B_k is the identity outside
block row k, and block row k holds (A_j - I) for j < k, lambda*A_k at j = k,
and lambda*(A_j - I) for j > k.  Two canonical subspaces are invariant under
every B_k: the direct sum of ker(A_j - I) embedded slotwise, and the common
fixed space of all B_k.  The output is the induced action on the quotient by
their sum.

The recursive family build_F follows rank-one twists alternating with
MC_(-1), starting from the rank-one system with local scalars (-1, -1) at
the punctures 0 and 1; build_F(i) has rank i + 1 over Q(zeta_2).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .cyclotomic import CycNumber
from .errors import (
    AlreadyRankOne,
    NegativeIndex,
    NoProgress,
    NotIrreducible,
    NotRigid,
    NotRootOfUnity,
    PunctureMismatch,
    ZeroLambda,
    ZeroScalar,
)
from .linalg import ExactMatrix
from .monodromy import (
    MonodromyTuple,
    _rank_sequences,
    is_absolutely_irreducible,
    rigidity_index,
)


@dataclass(frozen=True)
class RankOneData:
    """Nonzero scalars, one per finite puncture, of a rank-one local system."""

    scalars: tuple[CycNumber, ...]

    @classmethod
    def of(cls, values, order: int = 1) -> "RankOneData":
        scalars = tuple(CycNumber.coerce(v, order) for v in values)
        if any(s.is_zero() for s in scalars):
            raise ZeroScalar("rank-one scalars must be nonzero")
        return cls(scalars)

    @property
    def at_infinity(self) -> CycNumber:
        """The derived scalar at infinity: inverse of the product."""
        product = CycNumber.one()
        for s in self.scalars:
            product = product * s
        return product.inverse()

    def __len__(self):
        return len(self.scalars)


@dataclass(frozen=True)
class ReductionStep:
    twist: RankOneData
    lam: CycNumber
    rank: int


@dataclass(frozen=True)
class ReductionTrace:
    """Record of a Katz reduction: ranks strictly decrease down to 1."""

    steps: tuple[ReductionStep, ...]


def rank_one_system(punctures, scalars, order: int) -> MonodromyTuple:
    """Rank-one tuple with A_k = [scalar_k].

    The classical sheaf attached to a pair of characters (chi_1, chi_2) is
    the special case punctures (0, 1) with scalars (chi_1, chi_2); the scalar
    at infinity is derived so the total product is 1.
    """
    data = RankOneData.of(scalars, order)
    for s in data.scalars:
        if (s ** order) != 1:
            raise NotRootOfUnity(f"{s} is not a root of unity of order dividing {order}")
    matrices = [ExactMatrix(1, 1, [s], order=order) for s in data.scalars]
    return MonodromyTuple(order, punctures, matrices)


def tensor_rank_one(t: MonodromyTuple, data: RankOneData) -> MonodromyTuple:
    """Twist: A_k -> scalar_k * A_k; infinity scales by the derived scalar."""
    if len(data) != len(t.punctures):
        raise PunctureMismatch(
            f"twist has {len(data)} scalars for {len(t.punctures)} punctures"
        )
    matrices = [m * s for m, s in zip(t.matrices, data.scalars)]
    return MonodromyTuple(t.order, t.punctures, matrices)


def _block_rows(t: MonodromyTuple, lam: CycNumber) -> list[ExactMatrix]:
    # Block row k of each generator B_k of the convolution, an n x rn
    # matrix: (A_j - I) for j < k, lam*A_k at j = k, lam*(A_j - I) for
    # j > k.  Outside block row k, B_k is the identity.
    order = math.lcm(t.order, lam.order)
    lam = lam.lift(order)
    mats = [m.lift(order) for m in t.matrices]
    identity = ExactMatrix.identity(t.rank, order=order)
    shifted = [m - identity for m in mats]
    scaled = [s * lam for s in shifted]
    return [
        ExactMatrix.from_blocks([shifted[:k] + [m * lam] + scaled[k + 1 :]])
        for k, m in enumerate(mats)
    ]


def middle_convolution(t: MonodromyTuple, lam) -> MonodromyTuple:
    """MC_lambda of a tuple, on the same punctures.

    Output rank is rn - dim(K + L) where K is the slotwise sum of
    ker(A_j - I) and L the common fixed space of the block generators.
    Each generator B_k is held as its block row k alone: B_k v equals v
    outside block k, and L is the kernel of the rn x rn stack of the block
    rows of B_k - I.
    """
    lam = CycNumber.coerce(lam)
    if lam.is_zero():
        raise ZeroLambda("middle convolution requires lambda != 0")
    r = len(t.matrices)
    n = t.rank
    big = r * n
    order = math.lcm(t.order, lam.order)
    zero = CycNumber.zero(order)
    one = CycNumber.one(order)
    identity = ExactMatrix.identity(n, order=order)

    spanning: list[list[CycNumber]] = []
    for j, m in enumerate(t.matrices):
        for v in (m.lift(order) - identity).kernel_basis():
            embedded = [zero] * big
            embedded[j * n : (j + 1) * n] = list(v)
            spanning.append(embedded)

    block_rows = _block_rows(t, lam)
    stacked_rows = []
    for k, block_row in enumerate(block_rows):
        rows = block_row.to_lists()
        for i, row in enumerate(rows):
            row[k * n + i] -= one
        stacked_rows.extend(rows)
    for v in ExactMatrix.from_rows(stacked_rows, order=order).kernel_basis():
        spanning.append(list(v))

    reduced, pivots = ExactMatrix.from_rows(spanning, order=order).rref()
    subspace = [reduced.row(i) for i in range(len(pivots))]
    pivot_cols = set(pivots)
    complement = [i for i in range(big) if i not in pivot_cols]
    if not complement:
        raise ValueError("middle convolution collapsed to rank 0")

    # Each reduced row is 1 at its own pivot and 0 at every other pivot, so
    # subtracting v[pivot] times each row leaves v's coordinates in the
    # quotient basis e_i + (K + L), i not a pivot column, on the non-pivot
    # columns.  Those e_i extend the subspace basis to a basis of the whole.
    def quotient_coords(v):
        for c, row in zip(pivots, subspace):
            f = v[c]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return [v[i] for i in complement]

    quotient_mats = []
    for k, block_row in enumerate(block_rows):
        block = slice(k * n, (k + 1) * n)
        for v in subspace:
            image = list(v)
            image[block] = block_row.mul_vector(v)
            if any(quotient_coords(image)):  # pragma: no cover
                raise RuntimeError("convolution subspace is not invariant")
        columns = []
        for j in complement:
            column = [zero] * big
            column[j] = one
            column[block] = block_row.column(j)
            columns.append(quotient_coords(column))
        quotient_mats.append(ExactMatrix.from_rows(columns, order=order).transpose())
    return MonodromyTuple(order, t.punctures, quotient_mats)


_MINUS_ONE = CycNumber.from_rational(-1, 2)
_ONE = CycNumber.one(2)


@functools.lru_cache(maxsize=None)
def build_F(i: int) -> MonodromyTuple:
    """The recursive family: rank i + 1 over Q(zeta_2) on punctures {0, 1}.

    build_F(0) is the rank-one system with scalars (-1, -1); odd steps twist
    MC_(-1) of the previous member by (1, -1), even steps by (-1, 1).
    """
    if i < 0:
        raise NegativeIndex(f"family index must be >= 0, got {i}")
    if i == 0:
        return rank_one_system(["0", "1"], [_MINUS_ONE, _MINUS_ONE], 2)
    previous = build_F(i - 1)
    convolved = middle_convolution(previous, _MINUS_ONE)
    if i % 2 == 1:
        twist = RankOneData.of([_ONE, _MINUS_ONE])
    else:
        twist = RankOneData.of([_MINUS_ONE, _ONE])
    return tensor_rank_one(convolved, twist)


def _dominant_exponent(matrix: ExactMatrix, order: int, shift: int = 0) -> int:
    # The t in range(order) maximizing the eigenspace of zeta_order^t for
    # zeta_order^shift * matrix, i.e. n - r_1 of zeta_order^(t - shift) for
    # the matrix; ties go to the smallest t.  For a tuple's matrices the
    # sequences over mu_lcm(2, N) are those centralizer_dim left on them.
    big = math.lcm(2, matrix.order, order)
    step = big // order
    dims = {
        u // step: matrix.rows - ranks[1]
        for u, ranks in _rank_sequences(matrix, big).items()
        if u % step == 0
    }
    return max(range(order), key=lambda t: (dims.get((t - shift) % order, 0), -t))


def katz_reduce_step(t: MonodromyTuple):
    """One reduction step: twist each finite puncture so its dominant
    eigenvalue becomes 1, then convolve with the dominant eigenvalue of the
    twisted monodromy at infinity.

    The convolution parameter must equal that dominant eigenvalue: the
    common fixed space of the convolution generators is isomorphic to the
    eigenspace of the infinity monodromy at the parameter, so any other
    choice shrinks the quotient less and can fail to reduce the rank.

    With dominant eigenvalues zeta_N^(a_k) the twisted monodromy at
    infinity is zeta_N^e times the parent's, e = sum of a_k, so both
    choices read the rank sequences the rigidity check left on the parent's
    matrices, and the twisted tuple's infinity monodromy is never formed.

    Returns (twist, lam, result) where result = MC_lam(twist applied to t).
    """
    if t.rank == 1:
        raise AlreadyRankOne("tuple already has rank 1")
    if not is_absolutely_irreducible(t):
        raise NotIrreducible("reduction requires an absolutely irreducible tuple")
    index = rigidity_index(t)
    if index != 2:
        raise NotRigid(f"rigidity index is {index}, not 2")
    exponents = [_dominant_exponent(m, t.order) for m in t.matrices]
    twist = RankOneData.of([CycNumber.zeta(t.order, -a) for a in exponents], t.order)
    lam = CycNumber.zeta(t.order, _dominant_exponent(t.at_infinity, t.order, sum(exponents)))
    result = middle_convolution(tensor_rank_one(t, twist), lam)
    return twist, lam, result


def katz_reduce(t: MonodromyTuple) -> ReductionTrace:
    """Iterate reduction steps down to rank 1."""
    steps: list[ReductionStep] = []
    current = t
    while current.rank > 1:
        twist, lam, result = katz_reduce_step(current)
        if result.rank >= current.rank:
            raise NoProgress(
                f"reduction step did not decrease rank ({current.rank} -> {result.rank})"
            )
        steps.append(ReductionStep(twist, lam, result.rank))
        current = result
    return ReductionTrace(tuple(steps))
