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


def _convolution_generators(t: MonodromyTuple, lam: CycNumber) -> list[ExactMatrix]:
    # The rn x rn block generators B_k of the convolution, before quotienting.
    r = len(t.matrices)
    n = t.rank
    order = math.lcm(t.order, lam.order)
    lam = lam.lift(order)
    mats = [m.lift(order) for m in t.matrices]
    identity = ExactMatrix.identity(n, order=order)
    zero = ExactMatrix.zeros(n, n, order=order)
    generators = []
    for k in range(r):
        grid = []
        for block_row in range(r):
            if block_row != k:
                grid.append([identity if j == block_row else zero for j in range(r)])
                continue
            row = []
            for j in range(r):
                if j < k:
                    row.append(mats[j] - identity)
                elif j == k:
                    row.append(mats[k] * lam)
                else:
                    row.append((mats[j] - identity) * lam)
            grid.append(row)
        generators.append(ExactMatrix.from_blocks(grid))
    return generators


def middle_convolution(t: MonodromyTuple, lam) -> MonodromyTuple:
    """MC_lambda of a tuple, on the same punctures.

    Output rank is rn - dim(K + L) where K is the slotwise sum of
    ker(A_j - I) and L the common fixed space of the block generators.
    """
    lam = CycNumber.coerce(lam)
    if lam.is_zero():
        raise ZeroLambda("middle convolution requires lambda != 0")
    r = len(t.matrices)
    n = t.rank
    generators = _convolution_generators(t, lam)
    order = generators[0].order
    big = r * n
    identity_big = ExactMatrix.identity(big, order=order)
    identity_small = ExactMatrix.identity(n, order=order)

    spanning: list[list[CycNumber]] = []
    zero = CycNumber.zero(order)
    for j, m in enumerate(t.matrices):
        shifted = m.lift(order) - identity_small
        for v in shifted.kernel_basis():
            embedded = [zero] * big
            embedded[j * n : (j + 1) * n] = list(v)
            spanning.append(embedded)

    stacked_rows = []
    for b in generators:
        diff = b - identity_big
        stacked_rows.extend(diff.to_lists())
    fixed = ExactMatrix.from_rows(stacked_rows, order=order)
    for v in fixed.kernel_basis():
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
        v = list(v)
        for c, row in zip(pivots, subspace):
            f = v[c]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return [v[i] for i in complement]

    quotient_mats = []
    for b in generators:
        for row in subspace:
            if any(quotient_coords(b.mul_vector(row))):  # pragma: no cover
                raise RuntimeError("convolution subspace is not invariant")
        columns = [quotient_coords(b.column(j)) for j in complement]
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


def _eigenvalue_with_max_eigenspace(matrix: ExactMatrix, order: int) -> CycNumber:
    # The eigenspace of zeta_N^t has dimension n - r_1 from its rank
    # sequence, and 0 when zeta_N^t is no eigenvalue; ties break toward the
    # smallest power of zeta_N.
    dims = {t: matrix.rows - ranks[1] for t, ranks in _rank_sequences(matrix, order).items()}
    return CycNumber.zeta(order, max(range(order), key=lambda t: (dims.get(t, 0), -t)))


def katz_reduce_step(t: MonodromyTuple):
    """One reduction step: twist each finite puncture so its dominant
    eigenvalue becomes 1, then convolve with the dominant eigenvalue of the
    twisted monodromy at infinity.

    The convolution parameter must equal that dominant eigenvalue: the
    common fixed space of the convolution generators is isomorphic to the
    eigenspace of the infinity monodromy at the parameter, so any other
    choice shrinks the quotient less and can fail to reduce the rank.

    Returns (twist, lam, result) where result = MC_lam(twist applied to t).
    """
    if t.rank == 1:
        raise AlreadyRankOne("tuple already has rank 1")
    if not is_absolutely_irreducible(t):
        raise NotIrreducible("reduction requires an absolutely irreducible tuple")
    index = rigidity_index(t)
    if index != 2:
        raise NotRigid(f"rigidity index is {index}, not 2")
    alphas = [
        _eigenvalue_with_max_eigenspace(m, t.order) for m in t.matrices
    ]
    twist = RankOneData.of([a.inverse() for a in alphas], t.order)
    twisted = tensor_rank_one(t, twist)
    lam = _eigenvalue_with_max_eigenspace(twisted.at_infinity, t.order)
    result = middle_convolution(twisted, lam)
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
