"""Rank-one systems, twists, middle convolution, and Katz rank reduction.

Middle convolution MC_lambda acts on a tuple (A_1, ..., A_r) of rank n by
first forming the rn x rn generators B_k: each B_k is the identity outside
block row k, and block row k holds (A_j - I) for j < k, lambda*A_k at j = k,
and lambda*(A_j - I) for j > k.  Two canonical subspaces are invariant under
every B_k: the direct sum of ker(A_j - I) embedded slotwise, and the common
fixed space of all B_k.  The output is the induced action on the quotient by
their sum.  The B_k are never formed: each differs from the identity only
in the n x rn block row D_k of B_k - I, the fixed space comes from an n-row
system, and the quotient action is I + C_k D_k on the complement columns
(see middle_convolution).

The recursive family build_F follows rank-one twists alternating with
MC_(-1), starting from the rank-one system with local scalars (-1, -1) at
the punctures 0 and 1; build_F(i) has rank i + 1 over Q(zeta_2).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .cyclotomic import CycNumber, _root_of_unity
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
        if (k := s.multiplicative_order()) is None or order % k:
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


def _shifts(shifted: list[ExactMatrix], lam: CycNumber) -> list[ExactMatrix]:
    # D_k, the block row k of B_k - I, for each k: the n x rn matrix
    # [A_1 - I, ..., A_(k-1) - I, lam*A_k - I, lam*(A_(k+1) - I), ...].
    # lam*A_k - I is lam*(A_k - I) plus lam - 1 on the diagonal.
    n = shifted[0].rows
    scaled = [s * lam for s in shifted]
    step = lam - 1
    shifts = []
    for k in range(len(shifted)):
        blocks = shifted[:k] + scaled[k:]
        rows = [[e for b in blocks for e in b.row(i)] for i in range(n)]
        for i in range(n):
            rows[i][k * n + i] += step
        shifts.append(ExactMatrix.from_rows(rows, lam.order))
    return shifts


def _fixed_space(mats: list[ExactMatrix], shifts: list[ExactMatrix], lam: CycNumber):
    # A basis of L, the common kernel of the D_k (see middle_convolution),
    # each vector checked against every D_k.
    if lam.is_one():
        fixed = [list(w) for w in shifts[0].kernel_basis()]
    else:
        product = mats[0]
        for a in mats[1:]:
            product = a * product
        identity = ExactMatrix.identity(product.rows, order=product.order)
        fixed = []
        for v in (product * lam - identity).kernel_basis():
            w = list(v)
            for a in mats[:-1]:
                v = a.mul_vector(v)
                w.extend(v)
            fixed.append(w)
    for shift in shifts:
        for w in fixed:
            if any(shift.mul_vector(w)):  # pragma: no cover
                raise RuntimeError("convolution fixed vector is not fixed")
    return fixed


def middle_convolution(t: MonodromyTuple, lam) -> MonodromyTuple:
    """MC_lambda of a tuple, on the same punctures.

    Output rank is rn - dim(K + L) where K is the slotwise sum of
    ker(A_j - I) and L the common fixed space of the generators B_k.  Each
    step works at the size of its answer, and two checks guard it.

    L from an n-row system.  B_k - I is zero outside block row k, where it
    is D_k = [A_1 - I, ..., A_(k-1) - I, lam*A_k - I, lam*(A_(k+1) - I),
    ..., lam*(A_r - I)], so L is the common kernel of the D_k.  For
    w = (v_1, ..., v_r), D_k w - D_(k+1) w = (lam - 1)(A_k v_k - v_(k+1)).
    - lam != 1: then v_(k+1) = A_k v_k, so v_k = P_(k-1) v_1 with P_0 = I
      and P_k = A_k ... A_1.  As (A_j - I) P_(j-1) = P_j - P_(j-1), the sum
      in D_1 w telescopes to (lam*P_r - I) v_1, and every D_k w is equal.
      So L is the image of ker(lam*A_r ... A_1 - I), an n x n kernel, under
      v -> (v, A_1 v, A_2 A_1 v, ..., A_(r-1) ... A_1 v).
    - lam = 1: every D_k is [A_1 - I, ..., A_r - I], and L is its kernel.
    The branch depends on the value of lam alone, and every vector of L is
    checked against D_k w = 0 for every k.

    The quotient action.  Let S be the reduced-echelon basis of K + L.  The
    e_c with c off its pivot columns give a basis of the quotient.  At a
    pivot c, e_c is congruent to e_c minus the reduced row of c, which
    vanishes on the pivots.  So the quotient coordinates of e_c are the
    unit vector of c off the pivots, and minus that reduced row on the
    complement at a pivot; C_k is the m x n matrix of those coordinates for
    the columns of block k.  As B_k e = e + iota_k(D_k e), with iota_k the
    inclusion of block k, the quotient action is
    Q_k = I + C_k D_k[:, complement], and K + L is invariant under B_k iff
    C_k (D_k S^T) = 0, checked for every k.  The reduced-echelon form
    depends on the subspace alone, so neither the pivots nor the Q_k depend
    on the basis found for L.
    """
    lam = CycNumber.coerce(lam)
    if lam.is_zero():
        raise ZeroLambda("middle convolution requires lambda != 0")
    n = t.rank
    big = len(t.matrices) * n
    order = math.lcm(t.order, lam.order)
    lam = lam.lift(order)
    zero = CycNumber.zero(order)
    mats = [a.lift(order) for a in t.matrices]
    identity = ExactMatrix.identity(n, order=order)
    shifted = [a - identity for a in mats]
    shifts = _shifts(shifted, lam)

    spanning: list[list[CycNumber]] = []
    for j, s in enumerate(shifted):
        for v in s.kernel_basis():
            embedded = [zero] * big
            embedded[j * n : (j + 1) * n] = v
            spanning.append(embedded)
    spanning.extend(_fixed_space(mats, shifts, lam))

    reduced, pivots = ExactMatrix.from_rows(spanning, order=order).rref()
    subspace = [reduced.row(i) for i in range(len(pivots))]
    pivot_cols = set(pivots)
    complement = [i for i in range(big) if i not in pivot_cols]
    if not complement:
        raise ValueError("middle convolution collapsed to rank 0")

    m = len(complement)
    quotient_identity = ExactMatrix.identity(m, order=order)
    position = {c: a for a, c in enumerate(complement)}
    by_pivot = dict(zip(pivots, subspace))
    coords = [
        quotient_identity.row(position[c]) if c in position
        else [-by_pivot[c][j] for j in complement]
        for c in range(big)
    ]
    basis_t = ExactMatrix(len(subspace), big, [e for v in subspace for e in v], order).transpose()
    quotient_mats = []
    for k, shift in enumerate(shifts):
        block = coords[k * n : (k + 1) * n]
        c_k = ExactMatrix(m, n, [column[a] for a in range(m) for column in block], order)
        if not (c_k * (shift * basis_t)).is_zero():  # pragma: no cover
            raise RuntimeError("convolution subspace is not invariant")
        restricted = ExactMatrix(n, m, [shift[i, c] for i in range(n) for c in complement], order)
        quotient_mats.append(quotient_identity + c_k * restricted)
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
    # the matrix; ties go to the smallest t.
    dims = {t: matrix.rows - ranks[1] for t, ranks in _rank_sequences(matrix, order).items()}
    return max(range(order), key=lambda t: (dims.get((t - shift) % order, 0), -t))


def katz_reduce_step(t: MonodromyTuple):
    """One reduction step: twist each finite puncture so its dominant
    eigenvalue becomes 1, then convolve with the dominant eigenvalue of the
    twisted monodromy at infinity.

    The convolution parameter must equal that dominant eigenvalue: the
    common fixed space of the convolution generators is isomorphic to the
    eigenspace of the infinity monodromy at the parameter, so any other
    choice shrinks the quotient less and can fail to reduce the rank.

    Both range over mu_m, m = lcm(2, N), all the roots of unity of K =
    Q(zeta_N), so at odd N one may be -zeta_N^a.  With dominant eigenvalues
    zeta_m^(a_k) the twisted monodromy at infinity is zeta_m^e times the
    parent's, e = sum of a_k, so both choices read the rank sequences the
    rigidity check left on the parent's matrices, and the twisted tuple's
    infinity monodromy is never formed.

    Returns (twist, lam, result) where result = MC_lam(twist applied to t).
    """
    if t.rank == 1:
        raise AlreadyRankOne("tuple already has rank 1")
    if not is_absolutely_irreducible(t):
        raise NotIrreducible("reduction requires an absolutely irreducible tuple")
    index = rigidity_index(t)
    if index != 2:
        raise NotRigid(f"rigidity index is {index}, not 2")
    m = math.lcm(2, t.order)
    exponents = [_dominant_exponent(a, m) for a in t.matrices]
    twist = RankOneData.of([_root_of_unity(t.order, -u) for u in exponents], t.order)
    lam = _root_of_unity(t.order, _dominant_exponent(t.at_infinity, m, sum(exponents)))
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
