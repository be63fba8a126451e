"""Monodromy tuples on the projective line minus punctures.

A local system of rank n on P^1 minus r finite punctures and infinity is
stored as the ordered matrices (A_1, ..., A_r) at the finite punctures; the
monodromy at infinity is derived as (A_r ... A_1)^-1, so that A_inf A_r ...
A_1 = I.  This is the package's one product relation: middle convolution's
fixed space and Dettweiler-Reiter's local data assume it.

The module also provides the conjugation-invariant local data: Jordan types
of quasi-unipotent matrices, centralizer dimensions, the rigidity index
(2 - r')n^2 + sum of centralizer dimensions, absolute irreducibility via
Norton's test mod p and the Burnside span criterion, and the somewhere-maximal
regularity certificate.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import modp
from .cyclotomic import (
    CycNumber, _lift_to_common, _parse_rational, _root_of_unity, _unity_order, dot, residue_prime
)
from .errors import (
    DimensionMismatch,
    DuplicatePuncture,
    NotQuasiUnipotent,
    SingularMatrix,
    UnknownPuncture,
    _shown,
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
        return cls(_parse_rational(value))

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

    __slots__ = ("order", "rank", "punctures", "matrices", "_at_infinity", "_irreducible")

    def __init__(self, order: int, punctures, matrices):
        punctures = tuple(Puncture.finite(p) for p in punctures)
        matrices = tuple(matrices)
        if not punctures:
            raise ValueError("a tuple needs at least one finite puncture")
        if len(punctures) != len(matrices):
            raise DimensionMismatch("one matrix per finite puncture required")
        if len(set(punctures)) != len(punctures):
            raise DuplicatePuncture(f"repeated finite puncture in {_shown(punctures)}")
        n = matrices[0].rows
        for m in matrices:
            if not m.is_square or m.rows != n:
                raise DimensionMismatch("matrices must be square and of equal size")
        if n == 0:
            raise DimensionMismatch("a tuple needs rank at least 1")
        matrices, common = _lift_to_common(matrices, order)
        # chi-bar(0) = (-1)^n det mod p, so chi-bar(0) != 0 proves a
        # generator invertible (see modp).
        for point, m in zip(punctures, matrices):
            _, chi = _reduced(m)
            if (chi is None or not chi[0]) and m.rank() != n:
                raise SingularMatrix(f"monodromy at {point} is singular")
        self.order = common
        self.rank = n
        self.punctures = punctures
        self.matrices = matrices
        self._at_infinity = None
        self._irreducible = None

    @property
    def at_infinity(self) -> ExactMatrix:
        """(A_r ... A_1)^-1, the derived monodromy at infinity: A_inf A_r
        ... A_1 = I."""
        if self._at_infinity is None:
            product = self.matrices[0]
            for m in self.matrices[1:]:
                product = m * product
            self._at_infinity = product.inverse()
        return self._at_infinity

    @property
    def _reduction(self):
        """(p, residue rows, chi-bars) of the generators, read off each
        generator's one reduction (_reduced); None when p divides a
        denominator of some entry."""
        rows, charpolys = zip(*map(_reduced, self.matrices))
        return None if None in rows else (residue_prime(self.order)[0], rows, charpolys)

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
    """True iff jordan_type(matrix, order) returns: the multiplicities
    n - r_k over mu_lcm(2, N), the roots of unity of Q(zeta_N) for N =
    lcm(order, matrix.order), add up to n."""
    if order != matrix.order:  # callers that pass the matrix's own order lift nothing
        (matrix,), _ = _lift_to_common((matrix,), order)
    if not matrix.is_square:
        raise DimensionMismatch("quasi-unipotence requires a square matrix")
    sequences = _rank_sequences(matrix).values()
    return sum(ranks[0] - ranks[-1] for ranks in sequences) == matrix.rows


def _reduced(matrix: ExactMatrix):
    """(rows, chi-bar): the residues of a square matrix mod p =
    residue_prime(matrix.order)[0], row by row, and their characteristic
    polynomial over F_p; (None, None) when p divides a denominator.  A
    matrix is reduced once: the pair stays in matrix._residues, which the
    tuple's constructor, Norton's test, the F_p closure and the rank
    sequences read and never change."""
    if matrix._residues is None:
        rows = modp.rows(matrix)
        chi = None if rows is None else modp.charpoly(rows, residue_prime(matrix.order)[0])
        matrix._residues = (rows, chi)
    return matrix._residues


def _rank_sequences(matrix: ExactMatrix) -> dict[int, list[int]]:
    """{u: [n, r_1, ..., r_k]} for each u in range(m), m = lcm(2, N), N =
    matrix.order, such that zeta = zeta_m^u is an eigenvalue, with r_j =
    rank((matrix - zeta I)^j) and r_k the stable rank: the first repeat, or
    0.  mu_m are the roots of unity of Q(zeta_N), written at order N, so the
    matrix is ranked at its own order, once: the table stays in
    matrix._sequences, and a larger field ranks a lifted copy.

    Only the u whose residue z is a root of chi, the characteristic
    polynomial of the residues of the matrix, are ranked, and each stops
    early.  With p from residue_prime(N) and g the residue of zeta_m,
    zeta reduces to z = g^u, and by the residue map (see modp):
    - chi(z) != 0 gives full rank mod p, hence over K: zeta is skipped;
    - zeta's multiplicity a is at most the multiplicity b of z in chi,
      since (X - zeta)^a f reduces to (X - z)^a f-bar;
    - n - r_j <= a, so a nullity n - r_j = b proves r_j stable, and the
      next power is never ranked.
    When p divides a denominator of the matrix, every u is a candidate with
    b = n, ranked until its ranks repeat or reach 0.  The candidates run in
    decreasing b, ties by u, and the trace names the last eigenvalue.

    The trace is the sum of the eigenvalues with multiplicity, and no residue
    enters: the finished zeta_u have exact multiplicities a_u = n - r_k summing
    to found, and zeta has at least d = n - r_j, so when found + d = n - 1 one
    is left, lambda = tr - sum a_u zeta_u - d zeta.  zeta's multiplicity is
    d + 1 if lambda = zeta, else d; a later zeta is simple iff it is lambda.
    """
    if matrix._sequences is not None:
        return matrix._sequences
    n, order = matrix.rows, matrix.order
    units = range(_unity_order(order))
    p, _ = residue_prime(order)
    g = _root_of_unity(order, 1).residue()
    _, chi = _reduced(matrix)
    if chi is None:  # n binds no nullity: the ranks stop at 0 first
        bounds = dict.fromkeys(units, n)
    else:
        bounds = {u: modp.multiplicity(chi, pow(g, u, p), p) for u in units}
    rest = matrix.trace()  # tr - sum of a_u zeta_u over the finished u
    found = 0
    sequences = {}
    for u in sorted((u for u in bounds if bounds[u]), key=lambda u: (-bounds[u], u)):
        if found == n:
            break
        zeta = _root_of_unity(order, u)
        ranks = [n]
        power = None
        while True:
            nullity = n - ranks[-1]
            if found + nullity == n - 1:
                if rest == (nullity + 1) * zeta:  # lambda = zeta
                    ranks.append(ranks[-1] - 1)
                    if ranks[-1]:
                        ranks.append(ranks[-1])
                elif nullity:
                    ranks.append(ranks[-1])
                break
            if power is None:
                entries = list(matrix.entries)
                for i in range(n):
                    entries[i * n + i] = entries[i * n + i] - zeta
                power = shifted = ExactMatrix(n, n, entries, order=order)
            else:
                power = power * shifted
            ranks.append(power.rank())
            if not 0 < ranks[-1] < ranks[-2]:
                break
            if n - ranks[-1] == bounds[u]:
                ranks.append(ranks[-1])
                break
        if ranks[-1] < n:
            sequences[u] = ranks
            found += n - ranks[-1]
            rest = rest - (n - ranks[-1]) * zeta
    matrix._sequences = dict(sorted(sequences.items()))
    return matrix._sequences


def _blocks_at_least(ranks: list[int]) -> list[int]:
    # r_(j-1) - r_j is the number of Jordan blocks of size >= j.
    return [a - b for a, b in zip(ranks, ranks[1:]) if a != b]


def _blocks(matrix: ExactMatrix) -> list[tuple[int, int]]:
    # The Jordan blocks (u, size) of the eigenvalues zeta_m^u, m = lcm(2,
    # matrix.order): with r_j = rank((matrix - zeta I)^j), zeta has r_(j-1)
    # - r_j blocks of size at least j.  Their sizes add up to n exactly
    # when every eigenvalue is in mu_m.
    blocks = []
    for u, ranks in _rank_sequences(matrix).items():
        at_least = _blocks_at_least(ranks)
        for size, (a, b) in enumerate(zip(at_least, at_least[1:] + [0]), start=1):
            blocks += [(u, size)] * (a - b)
    return blocks


def jordan_type(matrix: ExactMatrix, order: int) -> JordanType:
    """Jordan type of a matrix whose eigenvalues are roots of unity of
    Q(zeta_N), N = lcm(order, matrix.order): mu_m, m = lcm(2, N), each
    written at order N (see _blocks)."""
    (matrix,), _ = _lift_to_common((matrix,), order)
    if not is_quasi_unipotent(matrix, matrix.order):  # also rejects a non-square matrix
        raise NotQuasiUnipotent(f"eigenvalues are not all roots of unity of Q(zeta_{matrix.order})")
    return JordanType.from_blocks((_root_of_unity(matrix.order, u), size) for u, size in _blocks(matrix))


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
    if not is_quasi_unipotent(matrix, matrix.order):
        return _commutation_nullity(matrix)
    sequences = _rank_sequences(matrix).values()
    return sum(d * d for ranks in sequences for d in _blocks_at_least(ranks))


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
        # Every word of one closure is at the same order, so each update
        # a - f * b is one dot product of (1, -f) with (a, b).
        n = word.order
        one = CycNumber.one(n)
        v = list(word.entries)
        for pivot, row in zip(self.pivots, self.rows):
            f = v[pivot]
            if f:
                coeffs = (one, -f)
                v = [dot(coeffs, (a, b), n) if b else a for a, b in zip(v, row)]
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


def _spans_all_matrices(target: int, start, generators, multiply, basis) -> bool:
    # Close the span of ``start`` under left multiplication by the
    # generators: words times the identity span the matrix algebra (target
    # n^2), words times a vector its spin (target n).  The dimension
    # strictly increases each productive round, so at most target rounds
    # are needed.
    basis.insert(start)
    frontier = [start]
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

    On the rows of t._reduction.  False when p divides a denominator of some
    entry (the reduction is undefined) or the span mod p is smaller than
    n^2; neither says anything about the tuple over K.
    """
    reduction = t._reduction
    if reduction is None:
        return False
    n = t.rank
    p, generators, _ = reduction

    def multiply(rows, word):  # generator as rows, word and product flattened
        columns = [word[j::n] for j in range(n)]
        return [entry for row in modp.mul(rows, columns, p) for entry in row]

    identity = [int(i == j) for i in range(n) for j in range(n)]
    return _spans_all_matrices(n * n, identity, generators, multiply, modp.EchelonBasis(p))


def _norton_mod_p(t: MonodromyTuple) -> bool | None:
    """Norton's irreducibility test on the generators reduced mod p.

    On the rows and chi-bars of t._reduction.  theta runs over A_k - zI and
    P - zI, P = A_r ... A_1 = A_inf^-1 mod p, for z over the residues g^u
    of the roots of unity zeta_m^u of K, m = lcm(2, N), u < m, in turn, but
    only where z is a root of that matrix's characteristic polynomial mod
    p (P's is the one taken here): elsewhere theta is invertible, so its
    nullity is 0, and one Horner evaluation shows it.  The first theta of
    nullity exactly 1 mod p is taken, with ker theta = F_p v and ker
    theta^T = F_p w; by Norton's lemma the verdict does not depend on which
    comes first.  Every theta lies in the algebra A generated by the
    reduced generators.  True when v spins to F_p^n under A and w under
    A^T; False when a spin is short, which proves the reduction reducible;
    None when p divides a denominator or no theta has nullity 1.  See
    is_absolutely_irreducible for what True proves.
    """
    reduction = t._reduction
    if reduction is None:
        return None
    n = t.rank
    p, generators, charpolys = reduction
    g = _root_of_unity(t.order, 1).residue()
    product = generators[0]
    for rows in generators[1:]:
        product = modp.mul(rows, zip(*product), p)
    matrices = generators + (product,)
    charpolys = charpolys + (modp.charpoly(product, p),)

    def apply(rows, vector):
        return modp.mul([vector], rows, p)[0]

    for z in (pow(g, u, p) for u in range(_unity_order(t.order))):
        for rows, chi in zip(matrices, charpolys):
            if not modp.multiplicity(chi, z, p):
                continue
            theta = modp.shift(rows, z, p)
            cokernel = modp.left_kernel(theta, p)  # ker theta^T
            if len(cokernel) != 1:
                continue
            (v,) = modp.left_kernel([list(column) for column in zip(*theta)], p)
            (w,) = cokernel
            transposed = [[list(column) for column in zip(*a)] for a in generators]
            return _spans_all_matrices(
                n, v, generators, apply, modp.EchelonBasis(p)
            ) and _spans_all_matrices(n, w, transposed, apply, modp.EchelonBasis(p))
    return None


def is_absolutely_irreducible(t: MonodromyTuple) -> bool:
    """Burnside criterion: the generated matrix algebra spans all of n x n.

    Three stages; only the last can return False.  The first two read the
    residues of the generators mod p = residue_prime(t.order)[0], taken
    once per generator (_reduced).

    1. Norton's test mod p (_norton_mod_p; Parker, "The computer
       calculation of modular characters (the MeatAxe)", 1984, in the form
       Holt and Rees give for absolute irreducibility, "Testing modules for
       irreducibility", J. Austral. Math. Soc. A 57 (1994)).  When both
       spins are full, V = F_p^n is irreducible under the reduced algebra A
       (Norton's lemma: a proper submodule U either meets ker theta, and
       then contains v, or theta is singular on V/U, and then the
       annihilator of U is a proper A^T-submodule meeting ker theta^T, so
       it contains w).  Every endomorphism phi of the module commutes with
       theta, so phi(v) = cv for some c, and phi - c kills the cyclic vector
       v, hence all of V: End_A(V) = F_p, so V is absolutely irreducible
       and, by Burnside over F_p, the reduced words span M_n(F_p).  Stage
       2's argument carries that up to K.  A short spin proves the
       reduction reducible, so stage 2 cannot succeed and is skipped.
    2. The closure of the words under left multiplication, from the
       identity, on the same residues (_spans_all_matrices_mod_p); a full
       span returns True, since the reduced words are the residues of the
       exact words, and n^2 of them independent mod p are independent over K.
    3. Otherwise (p divides a denominator, or the reduction is not
       absolutely irreducible, which can also happen for an irreducible
       tuple) the closure runs over K = Q(zeta_N), and its verdict is exact.

    The verdict is taken once per tuple and kept in t._irreducible.
    """
    if t._irreducible is None:
        verdict = _norton_mod_p(t)
        if verdict or (verdict is None and _spans_all_matrices_mod_p(t)):
            t._irreducible = True
        else:
            identity = ExactMatrix.identity(t.rank, order=t.order)
            t._irreducible = _spans_all_matrices(t.rank ** 2, identity, t.matrices, operator.mul, _SpanBasis())
    return t._irreducible


def is_somewhere_maximal(t: MonodromyTuple) -> Puncture | None:
    """First puncture whose local monodromy is a single Jordan block with
    its eigenvalue in mu_m, m = lcm(2, N), the roots of unity of Q(zeta_N).

    Punctures are scanned with infinity first, then the finite punctures in
    listed order; infinity is where the maximal block of the families built
    here lives, and the certificates in this library name it whenever it
    qualifies.  A point with an eigenvalue outside mu_m is no witness, but
    the scan goes on past it.  When no puncture qualifies, returns None if
    every point is quasi-unipotent and raises NotQuasiUnipotent otherwise.
    """
    points = (INFINITY,) + t.punctures
    for p in points:
        if [size for _, size in _blocks(t.monodromy_at(p))] == [t.rank]:
            return p
    if not all(is_quasi_unipotent(t.monodromy_at(p), t.order) for p in points):
        raise NotQuasiUnipotent(f"eigenvalues are not all roots of unity of Q(zeta_{t.order})")
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
