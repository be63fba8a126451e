"""Monodromy tuples on the projective line minus punctures.

A local system of rank n on P^1 minus r finite punctures and infinity is
stored as the ordered matrices (A_1, ..., A_r) at the finite punctures; the
monodromy at infinity is derived as (A_1 ... A_r)^-1 so the product over all
punctures is the identity.

The module also provides the conjugation-invariant local data: Jordan types
of quasi-unipotent matrices, centralizer dimensions, the rigidity index
(2 - r')n^2 + sum of centralizer dimensions, absolute irreducibility via the
Burnside span criterion, and the somewhere-maximal regularity certificate.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycNumber, residue_prime
from .errors import (
    DimensionMismatch,
    DuplicatePuncture,
    NotQuasiUnipotent,
    SingularMatrix,
    UnknownPuncture,
)
from .linalg import ExactMatrix


@dataclass(frozen=True)
class Puncture:
    """A point of P^1(Q): a finite rational label, or infinity (label None)."""

    label: Fraction | None

    @classmethod
    def finite(cls, value) -> "Puncture":
        if isinstance(value, Puncture):
            if value.is_infinity:
                raise ValueError("expected a finite puncture")
            return value
        try:
            return cls(Fraction(value))
        except ZeroDivisionError:  # a malformed label, not an arithmetic fault
            raise ValueError(f"puncture label {value!r} has a zero denominator") from None

    @classmethod
    def parse(cls, text: str) -> "Puncture":
        text = text.strip()
        if text in ("inf", "infinity", "oo"):
            return INFINITY
        return cls.finite(text)

    @property
    def is_infinity(self) -> bool:
        return self.label is None

    def __str__(self):
        return "inf" if self.label is None else str(self.label)


INFINITY = Puncture(None)


def _eigenvalue_class(value: CycNumber):
    # 1 first, then -1, then the rest by canonical key: matches how the
    # tables in this domain are usually written.
    if value.is_one():
        return (0,)
    if value == -1:
        return (1,)
    return (2,) + value.sort_key()


@dataclass(frozen=True)
class JordanType:
    """Multiset of (eigenvalue, block size) pairs of a quasi-unipotent matrix.

    blocks are stored sorted (eigenvalue class, size descending) with
    repetitions, so equal multisets compare equal as tuples.
    """

    blocks: tuple[tuple[CycNumber, int], ...]

    @classmethod
    def from_blocks(cls, blocks) -> "JordanType":
        items = [(CycNumber.coerce(e), int(s)) for e, s in blocks]
        items.sort(key=lambda b: (_eigenvalue_class(b[0]), -b[1]))
        return cls(tuple(items))

    @property
    def total_size(self) -> int:
        return sum(size for _, size in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def with_multiplicities(self) -> list[tuple[CycNumber, int, int]]:
        """Distinct (eigenvalue, size, multiplicity) triples, sorted."""
        out = []
        for (eig, size), group in itertools.groupby(self.blocks):
            out.append((eig, size, sum(1 for _ in group)))
        return out

    def eigenvalue_multiplicities(self) -> dict[CycNumber, int]:
        counts: dict[CycNumber, int] = {}
        for eig, size in self.blocks:
            counts[eig] = counts.get(eig, 0) + size
        return counts

    def notation(self) -> str:
        """Display string in the usual direct-sum notation.

        A unipotent block of size k >= 2 prints as U(k); other blocks print
        their eigenvalue, tensored with U(k) when k >= 2; multiplicities
        become ^{+m} exponents, e.g. "1^{+3} (+) (-1)^{+4}" or "U(7)".
        """
        parts = []
        for eig, size, mult in self.with_multiplicities():
            if eig.is_one() and size >= 2:
                atom = f"U({size})"
            else:
                text = str(eig)
                atom = text if text.lstrip("-").isdigit() and not text.startswith("-") else f"({text})"
                if size >= 2:
                    atom = f"{atom} (x) U({size})"
            if mult >= 2:
                atom = f"{atom}^{{+{mult}}}"
            parts.append(atom)
        return " (+) ".join(parts)

    def __str__(self):
        return self.notation()


@dataclass(frozen=True)
class RegularityCertificate:
    """Outcome of the single-Jordan-block sufficient test for regularity."""

    witness: Puncture | None

    @classmethod
    def via_lemma(cls, witness: Puncture) -> "RegularityCertificate":
        return cls(witness)

    @classmethod
    def unknown(cls) -> "RegularityCertificate":
        return cls(None)

    @property
    def is_regular_via_lemma(self) -> bool:
        return self.witness is not None

    def __str__(self):
        if self.witness is None:
            return "Unknown"
        return f"RegularViaLemma({self.witness})"


class MonodromyTuple:
    """Ordered invertible matrices at labeled finite punctures."""

    __slots__ = ("order", "rank", "punctures", "matrices", "_at_infinity")

    def __init__(self, order: int, punctures, matrices):
        punctures = tuple(Puncture.finite(p) for p in punctures)
        matrices = tuple(matrices)
        if not punctures:
            raise ValueError("a tuple needs at least one finite puncture")
        if len(punctures) != len(matrices):
            raise DimensionMismatch("one matrix per finite puncture required")
        if len(set(punctures)) != len(punctures):
            raise DuplicatePuncture(f"repeated finite puncture in {punctures}")
        n = matrices[0].rows
        for m in matrices:
            if not m.is_square or m.rows != n:
                raise DimensionMismatch("matrices must be square and of equal size")
        if n == 0:
            raise DimensionMismatch("a tuple needs rank at least 1")
        common = order
        for m in matrices:
            common = math.lcm(common, m.order)
        matrices = tuple(m.lift(common) for m in matrices)
        p, _ = residue_prime(common)
        for point, m in zip(punctures, matrices):
            residues = _residue_rows(m)
            if residues is not None and _full_rank_mod_p(residues, p):
                continue
            if m.rank() != n:
                raise SingularMatrix(f"monodromy at {point} is singular")
        self.order = common
        self.rank = n
        self.punctures = punctures
        self.matrices = matrices
        self._at_infinity = None

    @property
    def at_infinity(self) -> ExactMatrix:
        """(A_1 ... A_r)^-1, the derived monodromy at infinity."""
        if self._at_infinity is None:
            product = self.matrices[0]
            for m in self.matrices[1:]:
                product = product * m
            self._at_infinity = product.inverse()
        return self._at_infinity

    def monodromy_at(self, point) -> ExactMatrix:
        if isinstance(point, str):
            point = Puncture.parse(point)
        elif not isinstance(point, Puncture):
            point = Puncture.finite(point)
        if point.is_infinity:
            return self.at_infinity
        for p, m in zip(self.punctures, self.matrices):
            if p == point:
                return m
        raise UnknownPuncture(f"{point} is not a puncture of this tuple")

    def jordan_at(self, point) -> JordanType:
        return jordan_type(self.monodromy_at(point), self.order)

    def conjugate_by(self, p: ExactMatrix) -> "MonodromyTuple":
        """Simultaneous conjugation A_k -> P A_k P^-1."""
        p_inv = p.inverse()
        return MonodromyTuple(
            self.order, self.punctures, [p * m * p_inv for m in self.matrices]
        )

    def __eq__(self, other):
        if not isinstance(other, MonodromyTuple):
            return NotImplemented
        return self.punctures == other.punctures and self.matrices == other.matrices

    def __repr__(self):
        pts = ", ".join(str(p) for p in self.punctures)
        return f"MonodromyTuple(rank={self.rank}, N={self.order}, punctures=[{pts}])"


def make_tuple(order: int, punctures, matrices) -> MonodromyTuple:
    """Validate and assemble a monodromy tuple."""
    return MonodromyTuple(order, punctures, matrices)


def is_quasi_unipotent(matrix: ExactMatrix, order: int) -> bool:
    """True iff (matrix^N - I)^n = 0, i.e. all eigenvalues lie in mu_N."""
    if not matrix.is_square:
        raise DimensionMismatch("quasi-unipotence requires a square matrix")
    n = matrix.rows
    power = (matrix ** order) - ExactMatrix.identity(n, order=matrix.order)
    return (power ** n).is_zero()


def _residue_rows(matrix: ExactMatrix) -> list[list[int]] | None:
    # The entries mapped to F_p by CycNumber.residue, with (p, r) =
    # residue_prime(matrix.order); None when p divides a denominator.
    rows = [[e.residue() for e in matrix.row(i)] for i in range(matrix.rows)]
    return None if any(None in row for row in rows) else rows


def _full_rank_mod_p(rows: list[list[int]], p: int) -> bool:
    """True when the square matrix of residues ``rows`` is invertible mod p.

    That proves the exact matrix invertible over K: the residue map of the
    prime (p, zeta - r) is a ring homomorphism on Z_(p)[zeta], so the
    residue of the exact determinant is the determinant of the residues,
    and a determinant that is nonzero mod the prime is nonzero.  False says
    nothing over K.
    """
    basis = _ModularSpanBasis(p)
    return all(basis.insert(row) for row in rows)


def _rank_sequences(matrix: ExactMatrix, order: int) -> dict[int, list[int]]:
    """{t: [n, r_1, ..., r_k]} for each t in range(order) such that
    zeta = zeta_order^t is an eigenvalue, with r_j = rank((matrix - zeta I)^j)
    and r_k the stable rank: the first repeat, or 0.

    Each candidate is screened first: with big = lcm(matrix.order, order)
    and (p, r) = residue_prime(big), matrix - zeta I reduces to the residues
    of matrix minus r^(t big / order) on the diagonal.  Full rank there
    proves full rank over K (see _full_rank_mod_p), so zeta is skipped as
    no eigenvalue.  When p divides a denominator of the matrix, or the rank
    mod p is short, the exact ranks decide.

    The sequences are kept on the matrix, per order, so the Jordan type, the
    centralizer and Katz's eigenvalue choice of one matrix share one
    computation.  Callers must not mutate the returned dict.
    """
    memo = matrix._sequences
    if memo is None:
        memo = matrix._sequences = {}
    if order in memo:
        return memo[order]
    n = matrix.rows
    big = math.lcm(matrix.order, order)
    matrix = matrix.lift(big)
    p, r = residue_prime(big)
    residues = _residue_rows(matrix)
    sequences = {}
    for t in range(order):
        exponent = t * (big // order)
        if residues is not None:
            shifted_rows = [row[:] for row in residues]
            z = pow(r, exponent, p)
            for i in range(n):
                shifted_rows[i][i] = (shifted_rows[i][i] - z) % p
            if _full_rank_mod_p(shifted_rows, p):
                continue
        entries = list(matrix.entries)
        zeta = CycNumber.zeta(big, exponent)
        for i in range(n):
            entries[i * n + i] = entries[i * n + i] - zeta
        shifted = ExactMatrix(n, n, entries, order=big)
        ranks = [n, shifted.rank()]
        power = shifted
        while 0 < ranks[-1] < ranks[-2]:
            power = power * shifted
            ranks.append(power.rank())
        if ranks[1] < n:
            sequences[t] = ranks
    memo[order] = sequences
    return sequences


def _blocks_at_least(ranks: list[int]) -> list[int]:
    # r_(j-1) - r_j is the number of Jordan blocks of size >= j.
    return [a - b for a, b in zip(ranks, ranks[1:]) if a != b]


def jordan_type(matrix: ExactMatrix, order: int) -> JordanType:
    """Jordan type of a quasi-unipotent matrix from its rank sequences.

    For each eigenvalue zeta in mu_N, with r_j = rank((m - zeta I)^j), the
    number of blocks of size at least j is r_(j-1) - r_j, so the number of
    size exactly j is r_(j-1) - 2 r_j + r_(j+1).
    """
    if not matrix.is_square:
        raise DimensionMismatch("jordan type requires a square matrix")
    blocks: list[tuple[CycNumber, int]] = []
    for t, ranks in _rank_sequences(matrix, order).items():
        zeta = CycNumber.zeta(order, t)
        at_least = _blocks_at_least(ranks)
        for size, (a, b) in enumerate(zip(at_least, at_least[1:] + [0]), start=1):
            blocks.extend([(zeta, size)] * (a - b))
    if sum(size for _, size in blocks) != matrix.rows:
        raise NotQuasiUnipotent(
            f"eigenvalues are not all roots of unity of order dividing {order}; "
            "try a larger order"
        )
    return JordanType.from_blocks(blocks)


def centralizer_dim(matrix: ExactMatrix) -> int:
    """dim of {X : MX = XM}.

    The rank sequences over mu_m, m = lcm(2, N), which are all the roots of
    unity in K = Q(zeta_N), give it as sum over eigenvalues zeta and j >= 1
    of (r_(j-1) - r_j)^2, the squared parts of each eigenvalue's conjugate
    block partition.  When the multiplicities found there fall short of n
    (some eigenvalue is not a root of unity in K), it is the nullity of the
    n^2 x n^2 commutation system instead.
    """
    if not matrix.is_square:
        raise DimensionMismatch("centralizer requires a square matrix")
    sequences = _rank_sequences(matrix, math.lcm(2, matrix.order))
    at_least = [d for ranks in sequences.values() for d in _blocks_at_least(ranks)]
    if sum(at_least) == matrix.rows:
        return sum(d * d for d in at_least)
    return _commutation_nullity(matrix)


def _commutation_nullity(matrix: ExactMatrix) -> int:
    # dim of {X : MX = XM}, as the kernel of the n^2 x n^2 linear system.
    n = matrix.rows
    zero = CycNumber.zero(matrix.order)
    rows = []
    for p in range(n):
        for q in range(n):
            row = [zero] * (n * n)
            for k in range(n):
                row[k * n + q] = row[k * n + q] + matrix[p, k]
            for l in range(n):
                row[p * n + l] = row[p * n + l] - matrix[l, q]
            rows.append(row)
    system = ExactMatrix.from_rows(rows, order=matrix.order)
    return n * n - system.rank()


def rigidity_index(t: MonodromyTuple) -> int:
    """(2 - r') n^2 + sum of centralizer dimensions over all punctures.

    r' counts the punctures including infinity.  An irreducible tuple is
    cohomologically rigid exactly when this index equals 2.
    """
    r_prime = len(t.punctures) + 1
    n = t.rank
    total = (2 - r_prime) * n * n
    for m in t.matrices:
        total += centralizer_dim(m)
    total += centralizer_dim(t.at_infinity)
    return total


class _SpanBasis:
    # Echelonized basis of flattened matrices, used for span closures.

    def __init__(self):
        self.rows: list[tuple] = []
        self.pivots: list[int] = []

    def insert(self, word: ExactMatrix) -> bool:
        v = list(word.entries)
        for pivot, row in zip(self.pivots, self.rows):
            if not v[pivot].is_zero():
                f = v[pivot]
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((i for i, a in enumerate(v) if not a.is_zero()), None)
        if lead is None:
            return False
        inv = v[lead].inverse()
        v = [a * inv for a in v]
        self.rows.append(tuple(v))
        self.pivots.append(lead)
        return True

    def __len__(self):
        return len(self.rows)


class _ModularSpanBasis:
    # The same echelon basis over F_p, on flattened matrices of plain ints.

    def __init__(self, p: int):
        self.p = p
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def insert(self, word: list[int]) -> bool:
        p = self.p
        v = word
        for pivot, row in zip(self.pivots, self.rows):
            f = v[pivot]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, row)]
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is None:
            return False
        inv = pow(v[lead], -1, p)
        self.rows.append([a * inv % p for a in v])
        self.pivots.append(lead)
        return True

    def __len__(self):
        return len(self.rows)


def _spans_all_matrices(n: int, identity, generators, multiply, basis) -> bool:
    # Close the span of the words under left multiplication by the
    # generators, starting from the identity.  The dimension strictly
    # increases each productive round, so at most n^2 rounds are needed.
    target = n * n
    basis.insert(identity)
    frontier = [identity]
    rounds = 0
    while frontier and len(basis) < target and rounds <= target:
        new_frontier = []
        for word in frontier:
            for generator in generators:
                candidate = multiply(generator, word)
                if basis.insert(candidate):
                    if len(basis) == target:
                        return True
                    new_frontier.append(candidate)
        frontier = new_frontier
        rounds += 1
    return len(basis) == target


def _spans_all_matrices_mod_p(t: MonodromyTuple) -> bool:
    """The Burnside closure on the generators reduced mod p, over F_p.

    (p, r) = residue_prime(t.order).  False when p divides a denominator of
    some entry (the reduction is undefined) or the span mod p is smaller
    than n^2; neither says anything about the tuple over K.
    """
    n = t.rank
    p, _ = residue_prime(t.order)
    generators = []
    for m in t.matrices:
        rows = _residue_rows(m)
        if rows is None:
            return False
        generators.append(rows)

    def multiply(rows, word):  # generator as rows, word and product flattened
        columns = [word[j::n] for j in range(n)]
        return [sum(map(operator.mul, row, column)) % p for row in rows for column in columns]

    identity = [int(i == j) for i in range(n) for j in range(n)]
    return _spans_all_matrices(n, identity, generators, multiply, _ModularSpanBasis(p))


def is_absolutely_irreducible(t: MonodromyTuple) -> bool:
    """Burnside criterion: the generated matrix algebra spans all of n x n.

    The span of words in the generators is closed under left multiplication
    starting from the identity.  The closure runs first over F_p, with (p, r)
    from residue_prime(t.order), and a full span there returns True.  That is
    sound: reduction zeta -> r mod p is a ring homomorphism from Z_(p)[zeta]
    to F_p, so the words reduced mod p are the reductions of the exact words.
    If n^2 of them are independent mod p, the n^2 x n^2 determinant of the
    corresponding exact words lies in Z_(p)[zeta] and is nonzero mod the
    prime (p, zeta - r), hence nonzero, and those words span M_n(K).

    Otherwise (p divides a denominator, or the span mod p is short, which
    can also happen for an irreducible tuple) the closure runs again over
    K = Q(zeta_N), and only that exact closure returns False.
    """
    if _spans_all_matrices_mod_p(t):
        return True
    identity = ExactMatrix.identity(t.rank, order=t.order)
    return _spans_all_matrices(t.rank, identity, t.matrices, operator.mul, _SpanBasis())


def is_somewhere_maximal(t: MonodromyTuple) -> Puncture | None:
    """First puncture whose local monodromy is a single Jordan block.

    Punctures are scanned with infinity first, then the finite punctures in
    listed order; infinity is where the maximal block of the families built
    here lives, and the certificates in this library name it whenever it
    qualifies.  Returns None when no puncture qualifies.
    """
    for p in (INFINITY,) + t.punctures:
        if t.jordan_at(p).block_count == 1:
            return p
    return None


def certify_regular(t: MonodromyTuple) -> RegularityCertificate:
    """Certificate from the single-block sufficient condition.

    The condition is sufficient, not necessary, so a failed search yields
    Unknown rather than a negative verdict.
    """
    witness = is_somewhere_maximal(t)
    if witness is None:
        return RegularityCertificate.unknown()
    return RegularityCertificate.via_lemma(witness)
