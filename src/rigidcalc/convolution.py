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
from collections import Counter
from dataclasses import dataclass

from .cyclotomic import CycNumber, _lift_to_common, _root_of_unity, _unity_order
from .errors import (
    AlreadyRankOne,
    NegativeIndex,
    NoProgress,
    NotIrreducible,
    NotRigid,
    NotRootOfUnity,
    PunctureMismatch,
    ZeroLambda,
    ZeroRank,
    ZeroScalar,
)
from .linalg import ExactMatrix
from .monodromy import MonodromyTuple, _blocks, is_absolutely_irreducible, rigidity_index


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

    Each scalar must be a root of unity of Q(zeta_N), N = order, so in
    mu_lcm(2, N).  The classical sheaf attached to a pair of characters
    (chi_1, chi_2) is the special case punctures (0, 1) with scalars
    (chi_1, chi_2); the scalar at infinity is derived so the product is 1.
    """
    data = RankOneData.of(scalars, order)
    for s in data.scalars:
        if (k := s.multiplicative_order()) is None or _unity_order(order) % k:
            raise NotRootOfUnity(f"{s} is not a root of unity of Q(zeta_{order})")
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
    ker(A_j - I) and L the common fixed space of the generators B_k; when
    it is 0, ZeroRank is raised.  Each step works at the size of its
    answer, and two checks guard it.

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
    (lam, *mats), order = _lift_to_common((lam, *t.matrices), t.order)
    zero = CycNumber.zero(order)
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
        raise ZeroRank("middle convolution collapsed to rank 0")

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


def _shifted(blocks: list[tuple[int, int]], e: int, m: int) -> list[tuple[int, int]]:
    # The blocks after multiplying the matrix by zeta_m^e.
    return [((u + e) % m, size) for u, size in blocks]


def _dominant(blocks: list[tuple[int, int]], m: int) -> int:
    # The u in range(m) with the most blocks of zeta_m^u, that is, the
    # largest eigenspace; ties go to the smallest u.
    counts = Counter(u for u, _ in blocks)
    return max(range(m), key=lambda u: (counts[u], -u))


def _katz_choice(local: list, order: int):
    # Katz's twist and the exponent of his lambda from the blocks at the
    # finite punctures and at infinity, with the blocks of the twisted
    # tuple: the twist by zeta_m^(-a_k) moves puncture k by -a_k and
    # infinity, the inverse of the product, by sum a_k.
    m = _unity_order(order)
    *finite, infinity = local
    exponents = [_dominant(b, m) for b in finite]
    twisted = [_shifted(b, -a, m) for b, a in zip(finite, exponents)]
    twisted.append(_shifted(infinity, sum(exponents), m))
    twist = RankOneData.of([_root_of_unity(order, -a) for a in exponents], order)
    return twist, _dominant(twisted[-1], m), twisted


def katz_reduce_step(t: MonodromyTuple):
    """One reduction step: twist each finite puncture so its dominant
    eigenvalue becomes 1, then convolve with the dominant eigenvalue of the
    twisted monodromy at infinity.

    The convolution parameter must equal that dominant eigenvalue: the
    common fixed space of the convolution generators is isomorphic to the
    eigenspace of the infinity monodromy at the parameter, so any other
    choice shrinks the quotient less and can fail to reduce the rank.

    Both range over mu_m, m = lcm(2, N), all the roots of unity of K =
    Q(zeta_N), so at odd N one may be -zeta_N^a; dominant means most Jordan
    blocks, ties to the smallest exponent of zeta_m.  With dominant
    eigenvalues zeta_m^(a_k) the twisted monodromy at infinity is
    zeta_m^e times the parent's, e = sum of a_k, so both choices read the
    Jordan blocks the rigidity check left on the parent's matrices, and
    the twisted tuple's infinity monodromy is never formed.  An eigenvalue
    outside mu_m is never chosen, so when one has the largest eigenspace
    at some point the result may keep the rank (see katz_reduce).

    Returns (twist, lam, result) where result = MC_lam(twist applied to t).
    """
    if t.rank == 1:
        raise AlreadyRankOne("tuple already has rank 1")
    if not is_absolutely_irreducible(t):
        raise NotIrreducible("reduction requires an absolutely irreducible tuple")
    index = rigidity_index(t)
    if index != 2:
        raise NotRigid(f"rigidity index is {index}, not 2")
    twist, ell, _ = _katz_choice([_blocks(a) for a in (*t.matrices, t.at_infinity)], t.order)
    lam = _root_of_unity(t.order, ell)
    result = middle_convolution(tensor_rank_one(t, twist), lam)
    return twist, lam, result


def _planned_steps(t: MonodromyTuple):
    # Katz's steps from t's Jordan blocks in mu_m alone; see katz_reduce for
    # the argument.  Exponents are taken mod m, and every tuple of the chain
    # keeps order N.  The total size of a point's blocks outside mu_m, which
    # _blocks does not list, is the same at every step.
    n, m = t.rank, _unity_order(t.order)
    local = [_blocks(a) for a in (*t.matrices, t.at_infinity)]
    outside = [n - sum(size for _, size in b) for b in local]

    def convolved(blocks, e, grow, fill, rank):
        # Dettweiler-Reiter at one point: zeta_m^u moves to zeta_m^(u + e);
        # its blocks grow by `grow` at u = 0 and shrink by it where u + e =
        # 0; then blocks (fill, 1) make up the size `rank`.
        moved = []
        for u, size in blocks:
            v = (u + e) % m
            size += grow * ((u == 0) - (v == 0))
            if size:
                moved.append((v, size))
        return moved + [(fill, 1)] * (rank - sum(size for _, size in moved))

    while n > 1:
        twist, ell, (*finite, infinity) = _katz_choice(local, t.order)
        rank = sum(n - sum(u == 0 for u, _ in b) for b in finite) - sum(u == ell for u, _ in infinity)
        rank = rank if ell else n  # MC_1 keeps the rank
        yield ReductionStep(twist, _root_of_unity(t.order, ell), rank)
        local = [convolved(b, ell, -1, 0, rank - o) for b, o in zip(finite, outside)]
        local.append(convolved(infinity, -ell, 1, -ell % m, rank - outside[-1]))
        n = rank


def katz_reduce(t: MonodromyTuple) -> ReductionTrace:
    """Reduce t to rank 1 by Katz's steps.

    The first step is katz_reduce_step, exact, with its irreducibility and
    rigidity checks on t.  Every step, the first included, is also read off
    t's Jordan blocks in mu_m, m = lcm(2, N), as integer bookkeeping on
    exponents mod m with no matrix built (_planned_steps), and the planned
    first step must equal the exact one.

    The argument.  Twists by rank-one systems and MC_lambda for lambda != 1
    keep absolute irreducibility and the rigidity index (Katz, Rigid Local
    Systems (1996), ch. 5; Dettweiler-Reiter, J. Symbolic Comput. 30 (2000),
    section 3), so every tuple of the chain is irreducible and rigid.  For
    lambda != 1 Dettweiler-Reiter give the local data of MC_lambda, with
    A_inf = (A_r ... A_1)^-1, the product whose lambda-eigenspace is the
    fixed space of middle_convolution, and J(alpha, l) a Jordan block:
    - rank sum_k rk(A_k - 1) + rk(A_inf - lambda) - n, where rk(A - alpha)
      is n minus the number of blocks of alpha;
    - at a finite puncture J(1, l) -> J(lambda, l - 1), J(lambda^-1, l) ->
      J(1, l + 1), J(alpha, l) -> J(alpha lambda, l) otherwise, then
      J(1, 1) blocks up to the new rank;
    - at infinity J(1, l) -> J(lambda^-1, l + 1), J(lambda, l) ->
      J(1, l - 1), J(alpha, l) -> J(alpha lambda^-1, l) otherwise, then
      J(lambda^-1, 1) blocks up to the new rank;
    and a twist by scalars c_k multiplies the eigenvalues at puncture k by
    c_k and at infinity by (prod c_k)^-1.  Three consequences:
    - A block whose eigenvalue lies outside mu_m never meets 1 or
      lambda^(+-1), which lie in mu_m, so every twist and every MC_lambda
      keeps its size and keeps it outside mu_m.  The blocks in mu_m are
      thus known at every step, and the new blocks fill them up to the new
      rank less the fixed size outside.
    - MC_1 has rank n.  W = sum_k im(A_k - 1) is invariant, as A_j w = w +
      (A_j - 1) w, and nonzero (not every A_k is 1), so W = V for an
      irreducible tuple of rank n > 1.  Then L = ker [A_1 - 1 | ... |
      A_r - 1] has dimension rn - n, and it contains K, the slotwise sum
      of the ker(A_j - 1), so the quotient by K + L has dimension n.
    - NoProgress fires only when Katz's choice, which ranges over mu_m,
      misses a largest eigenspace at some point, which needs an eigenvalue
      outside mu_m there.  Let r be the number of finite punctures and d_i
      the largest eigenspace at each of the r + 1 points.  The centralizer
      of a matrix has dimension at most n d_i, so rigidity, sum of
      centralizer dimensions = (r - 1) n^2 + 2, gives sum d_i >= (r - 1) n
      + 2/n.  If the choice twists each d_i onto 1 at the finite punctures
      and onto lambda at infinity, Scott's lemma for an irreducible tuple
      of rank n > 1, sum over all points of dim ker(A_i - 1) <= (r - 1) n,
      rules out lambda = 1, and the rank is rn - sum d_i <= n - 2/n < n.
    ZeroRank never fires: MC_lambda is invertible for lambda != 1, and MC_1
    keeps the rank.
    """
    steps: list[ReductionStep] = []
    rank = t.rank
    if rank > 1:
        twist, lam, result = katz_reduce_step(t)
        exact = ReductionStep(twist, lam, result.rank)
        for step in _planned_steps(t):
            if not steps and step != exact:  # pragma: no cover
                raise RuntimeError("planned reduction step differs from the exact step")
            if step.rank >= rank:
                raise NoProgress(f"reduction step did not decrease rank ({rank} -> {step.rank})")
            steps.append(step)
            rank = step.rank
    return ReductionTrace(tuple(steps))
