"""Linear algebra and Euclid over F_p on plain ints: every computation the
package does on residues.

With (p, r) = residue_prime(N), the residue map zeta -> r of the prime
(p, zeta - r) of K = Q(zeta_N) (CycNumber.residue) is a ring homomorphism
on Z_(p)[zeta].  So each product, minor or discriminant of residues is the
residue of the exact one, and one nonzero mod p is nonzero: rank mod p <=
rank over K, and full rank mod p proves the exact rank; a short rank says
nothing.  The functions take p and never see K; each caller keeps its own
argument for what a verdict mod p proves.
"""
from __future__ import annotations

import operator

from . import poly


def residues(values) -> list[int] | None:
    """The residues of the CycNumbers ``values``; None when p divides a denominator."""
    out = [v.residue() for v in values]
    return None if None in out else out


def rows(matrix) -> list[list[int]] | None:
    """The residues of an ExactMatrix, row by row, or None as for residues."""
    out = [residues(matrix.row(i)) for i in range(matrix.rows)]
    return None if None in out else out


class EchelonBasis:
    """Echelon basis over F_p of the vectors (entries in [0, p)) inserted so far."""

    def __init__(self, p: int):
        self.p = p
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def insert(self, word: list[int]) -> bool:
        """Add word to the basis; False, adding nothing, when it lies in the span."""
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


def rank(rows: list[list[int]], p: int) -> int:
    basis = EchelonBasis(p)
    return sum(basis.insert(row) for row in rows)


def mul(rows, columns, p: int) -> list[list[int]]:
    """The product whose entry (i, j) is rows[i] . columns[j]: a matrix
    product A B is mul(A, zip(*B), p), a vector B v is mul([v], B, p)[0]."""
    columns = list(columns)
    return [[sum(map(operator.mul, row, column)) % p for column in columns] for row in rows]


def shift(rows: list[list[int]], z: int, p: int) -> list[list[int]]:
    """M - zI."""
    return [[(a - z) % p if i == j else a for j, a in enumerate(row)] for i, row in enumerate(rows)]


def left_kernel(rows: list[list[int]], p: int) -> list[list[int]]:
    """A basis of {w : w^T M = 0} for M = rows: the identity halves of the
    echelon rows of [M | I] whose pivot lies in that half.  Rows with
    distinct leading positions are independent, so the M halves of the
    other rows span the row space of M, and these are n - rank(M) many."""
    width = len(rows[0])
    basis = EchelonBasis(p)
    for i, row in enumerate(rows):
        basis.insert(row + [int(i == k) for k in range(len(rows))])
    return [row[width:] for row, pivot in zip(basis.rows, basis.pivots) if pivot >= width]


def is_squarefree(a: list[int], p: int) -> bool:
    """True iff the polynomial a over F_p (constant term first, leading
    coefficient nonzero mod p) is squarefree: iff gcd(a, a') = 1, since F_p
    is perfect.  The gcd comes from Euclid."""
    a = list(a)
    b = poly.trim([k * c % p for k, c in enumerate(a)][1:])
    while b:
        inv, deg = pow(b[-1], -1, p), len(b) - 1
        for k in range(len(a) - 1, deg - 1, -1):
            c = a[k] * inv % p
            for j, t in enumerate(b):
                a[k - deg + j] = (a[k - deg + j] - c * t) % p
        a, b = b, poly.trim(a[:deg])
    return len(a) == 1
