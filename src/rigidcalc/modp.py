"""Linear algebra and Euclid over F_p on plain ints: every computation the
package does on residues.

With (p, r) = residue_prime(N), the residue map zeta -> r of the prime
(p, zeta - r) of K = Q(zeta_N) (CycNumber.residue) is a ring homomorphism
on Z_(p)[zeta].  So each product, minor or resultant of residues is the
residue of the exact one, and one nonzero mod p is nonzero.  The one
full-rank certificate for a square M - zeta I is chi-bar(z) != 0, chi-bar
the charpoly of the residues of M, z the residue of zeta: chi-bar(z) is the
residue of det(zeta I - M), (-1)^n det M at z = 0; a zero says nothing, and
no rank is taken mod p.  The functions take p and never see K; each caller
keeps its own argument for what a verdict mod p proves.
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


def coprime(a: list[int], b: list[int], p: int) -> bool:
    """True iff the polynomials a and b over F_p (constant terms first) have
    gcd 1.  One Euclid; the gcd of a nonzero a and 0 is a, and of 0 and 0
    is 0."""
    a, b = poly.trim([c % p for c in a]), poly.trim([c % p for c in b])
    while b:
        inv, deg = pow(b[-1], -1, p), len(b) - 1
        for k in range(len(a) - 1, deg - 1, -1):
            c = a[k] * inv % p
            for j, t in enumerate(b):
                a[k - deg + j] = (a[k - deg + j] - c * t) % p
        a, b = b, poly.trim(a[:deg])
    return len(a) == 1


def charpoly(rows: list[list[int]], p: int) -> list[int]:
    """det(XI - M) over F_p for M = rows, constant term first.

    M is brought to upper Hessenberg form H by similarities: for each
    column, a row swap with the matching column swap puts a nonzero entry
    on the subdiagonal, and each row operation below it is undone on the
    columns.  The characteristic polynomials c_k of the leading k x k
    blocks of H then satisfy c_0 = 1 and c_(k+1) = (X - h_kk) c_k - sum
    over i < k of h_ik h_(i+1,i) h_(i+2,i+1) ... h_(k,k-1) c_i (Cohen,
    GTM 138, Alg. 2.2.9).  O(n^3) operations.
    """
    h = [list(row) for row in rows]
    n = len(h)
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        inv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:
                h[i] = [(a - u * b) % p for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    chars = [[1]]
    for k in range(n):
        out = [0] + chars[k]
        for j, c in enumerate(chars[k]):
            out[j] -= h[k][k] * c
        product = 1
        for i in range(k - 1, -1, -1):
            product = product * h[i + 1][i] % p
            if not product:
                break
            f = product * h[i][k]
            for j, c in enumerate(chars[i]):
                out[j] -= f * c
        chars.append([c % p for c in out])
    return chars[n]


def multiplicity(coeffs: list[int], z: int, p: int) -> int:
    """The multiplicity of z as a root of the polynomial coeffs over F_p
    (constant term first, not zero mod p): how many synthetic divisions by
    X - z in a row leave remainder 0.  A non-root costs one Horner pass."""
    count = 0
    while True:
        value, quotient = 0, []
        for c in reversed(coeffs):
            value = (value * z + c) % p
            quotient.append(value)
        if value:
            return count
        coeffs, count = quotient[-2::-1], count + 1
