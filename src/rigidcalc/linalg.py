"""Dense exact linear algebra over Q(zeta_N).

Matrices are immutable, row-major, and keep every entry at one common
cyclotomic order.  Rank and kernel go through fraction-free (Bareiss-style)
forward elimination with exact division, followed by a single normalization
pass to reduced row echelon form; pivots are always the first nonzero entry
scanning rows top to bottom, so results are deterministic.  Every product
entry and every elimination update is one call of the dot-product kernel
``cyclotomic.dot``, so each computed entry is normalized once.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import CycNumber, dot
from .errors import DimensionMismatch, SingularMatrix


class ExactMatrix:
    """A dense matrix over Q(zeta_N).

    ``_sequences`` is the memo of ``monodromy._rank_sequences``, filled on
    first use; it takes no part in equality, hashing or display.
    """

    __slots__ = ("rows", "cols", "order", "entries", "_sequences")

    def __init__(self, rows: int, cols: int, entries, order: int | None = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("matrix dimensions must be nonnegative")
        values = tuple(entries)
        if order is not None:
            common = order
        elif values and values[0].__class__ is CycNumber:
            common = values[0].order
        else:
            common = 1
        # Entries already CycNumbers at the common order are kept as they
        # are; only when some entry is not is the common order widened to
        # every entry's order and the rest coerced and lifted.
        for e in values:
            if e.__class__ is not CycNumber or e.order != common:
                for v in values:
                    if isinstance(v, CycNumber) and common % v.order:
                        common = math.lcm(common, v.order)
                values = tuple(
                    [v if v.__class__ is CycNumber and v.order == common
                     else CycNumber.coerce(v, common) for v in values]
                )
                break
        if len(values) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(values)}"
            )
        self.rows = rows
        self.cols = cols
        self.order = common
        self.entries = values
        self._sequences = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, data, order: int | None = None) -> "ExactMatrix":
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise DimensionMismatch("ragged rows")
        return cls(rows, cols, [e for row in data for e in row], order=order)

    @classmethod
    def identity(cls, n: int, order: int = 1) -> "ExactMatrix":
        one, zero = CycNumber.one(order), CycNumber.zero(order)
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)], order=order)

    @classmethod
    def zeros(cls, rows: int, cols: int, order: int = 1) -> "ExactMatrix":
        return cls(rows, cols, [CycNumber.zero(order)] * (rows * cols), order=order)

    @classmethod
    def diagonal(cls, values, order: int | None = None) -> "ExactMatrix":
        values = list(values)
        n = len(values)
        entries = [values[i] if i == j else 0 for i in range(n) for j in range(n)]
        return cls(n, n, entries, order=order)

    @classmethod
    def companion(cls, monic_coeffs, order: int | None = None) -> "ExactMatrix":
        """Companion matrix of a monic polynomial (constant term first).

        Ones on the subdiagonal, negated coefficients in the last column.
        """
        coeffs = [CycNumber.coerce(c) for c in monic_coeffs]
        if not coeffs or coeffs[-1] != 1:
            raise ValueError("companion matrix needs a monic polynomial")
        common = math.lcm(order or 1, *(c.order for c in coeffs))
        n = len(coeffs) - 1
        one, zero = CycNumber.one(common), CycNumber.zero(common)
        entries = [zero] * (n * n)
        for i in range(1, n):
            entries[i * n + (i - 1)] = one
        for i in range(n):
            entries[i * n + (n - 1)] = -coeffs[i].lift(common)
        return cls(n, n, entries, order=common)

    @classmethod
    def from_blocks(cls, grid) -> "ExactMatrix":
        """Assemble a matrix from a 2-D grid of matrices."""
        grid = [list(row) for row in grid]
        row_heights = [row[0].rows for row in grid]
        col_widths = [block.cols for block in grid[0]]
        for row in grid:
            if len(row) != len(col_widths):
                raise DimensionMismatch("ragged block grid")
            for block, w in zip(row, col_widths):
                if block.cols != w or block.rows != row[0].rows:
                    raise DimensionMismatch("inconsistent block shapes")
        total_rows = sum(row_heights)
        total_cols = sum(col_widths)
        data = [[CycNumber.zero() for _ in range(total_cols)] for _ in range(total_rows)]
        r0 = 0
        for row, h in zip(grid, row_heights):
            c0 = 0
            for block, w in zip(row, col_widths):
                for i in range(h):
                    for j in range(w):
                        data[r0 + i][c0 + j] = block[i, j]
                c0 += w
            r0 += h
        return cls.from_rows(data)

    # -- access -----------------------------------------------------------

    def __getitem__(self, key) -> CycNumber:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[CycNumber, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[CycNumber, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[CycNumber]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def lift(self, order: int) -> "ExactMatrix":
        if order == self.order:
            return self
        return ExactMatrix(self.rows, self.cols, self.entries, order=order)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in subtraction")
        return ExactMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            return ExactMatrix(self.rows, self.cols, [a * other for a in self.entries])
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, b = self, other
        if a.order != b.order:
            n = math.lcm(a.order, b.order)
            a, b = a.lift(n), b.lift(n)
        n = a.order
        b_cols = [b.column(j) for j in range(b.cols)]
        out = [dot(a.row(i), bc, n) for i in range(a.rows) for bc in b_cols]
        return ExactMatrix(a.rows, b.cols, out, order=n)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            return self * other
        return NotImplemented

    __matmul__ = __mul__

    def __pow__(self, exponent: int):
        if not self.is_square:
            raise DimensionMismatch("matrix power requires a square matrix")
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = ExactMatrix.identity(self.rows, order=base.order)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def mul_vector(self, vector) -> tuple[CycNumber, ...]:
        vec = [v if v.__class__ is CycNumber and v.order == self.order
               else CycNumber.coerce(v, self.order) for v in vector]
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        n = math.lcm(self.order, *(v.order for v in vec))
        m = self.lift(n)
        vec = [v.lift(n) for v in vec]
        return tuple(dot(m.row(i), vec, n) for i in range(self.rows))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
            order=self.order,
        )

    def trace(self) -> CycNumber:
        if not self.is_square:
            raise DimensionMismatch("trace requires a square matrix")
        acc = CycNumber.zero(self.order)
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a == b for a, b in zip(self.entries, other.entries))

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: [{body}])"

    # -- elimination ---------------------------------------------------------

    def _forward_eliminate(self):
        # Fraction-free (Bareiss) forward pass.  Each produced entry is (up to
        # sign) a minor of the input, which keeps coefficient growth
        # polynomial.  The division by the previous pivot is exact; its
        # inverse is taken only once the next pivot needs it, and ``rref``
        # reuses ``inverses``.  The update (p * x - f * y) / prev of a cell
        # is the dot product of (u, v) = (p / prev, -f / prev) with (x, y):
        # the same value, built with one normalization.
        n = self.order
        data = self.to_lists()
        inv, inverses = 1, []
        pivots: list[int] = []
        sign = 1
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if data[i][c]), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                data[r], data[pivot_row] = data[pivot_row], data[r]
                sign = -sign
            if pivots:
                inv = data[r - 1][pivots[-1]].inverse()
                inverses.append(inv)
            p = data[r][c]
            top = data[r]
            zero = p * 0
            u = p * inv
            neg_inv = -inv
            for i in range(r + 1, self.rows):
                row_i = data[i]
                f = row_i[c]
                if f:
                    uv = (u, f * neg_inv)
                    for j in range(c + 1, self.cols):
                        row_i[j] = dot(uv, (row_i[j], top[j]), n)
                elif not u.is_one():
                    for j in range(c + 1, self.cols):
                        if row_i[j]:
                            row_i[j] = row_i[j] * u
                row_i[c] = zero
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return data, tuple(pivots), sign, inverses

    def rref(self):
        """Reduced row echelon form and its pivot columns."""
        data, pivots, _, inverses = self._forward_eliminate()
        n = self.order
        one = CycNumber.one(n)
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            inv = inverses[r] if r < len(inverses) else data[r][c].inverse()
            top = data[r] = [e * inv if e else e for e in data[r]]
            for i in range(r):
                f = data[i][c]
                if f:
                    coeffs = (one, -f)
                    data[i] = [dot(coeffs, (a, b), n) if b else a for a, b in zip(data[i], top)]
        flat = [e for row in data for e in row]
        return ExactMatrix(self.rows, self.cols, flat, order=self.order), pivots

    def rank(self) -> int:
        _, pivots, _, _ = self._forward_eliminate()
        return len(pivots)

    def kernel_basis(self) -> tuple[tuple[CycNumber, ...], ...]:
        """Reduced-echelon basis of the right kernel; deterministic.

        One RREF, of the matrix with its columns reversed: there the kernel
        vector of a free column f is 1 at f and 0 at the other free columns
        and at the pivots right of f.  Reversed back and sorted by f, these
        vectors are in RREF, and the RREF of a subspace is unique.
        """
        n, zero, one = self.cols, CycNumber.zero(self.order), CycNumber.one(self.order)
        flipped = [e for i in range(self.rows) for e in self.row(i)[::-1]]
        reduced, pivots = ExactMatrix(self.rows, n, flipped, self.order).rref()
        vectors = []
        for f in reversed(range(n)):
            if f not in pivots:
                v = [zero] * n
                v[f] = one
                for r, c in enumerate(pivots):
                    v[c] = -reduced[r, f]
                vectors.append(tuple(v[::-1]))
        return tuple(vectors)

    def rank_kernel(self):
        """(rank, kernel basis); rank + len(basis) = cols."""
        basis = self.kernel_basis()
        return self.cols - len(basis), basis

    def inverse(self) -> "ExactMatrix":
        if not self.is_square:
            raise DimensionMismatch("inverse requires a square matrix")
        n = self.rows
        one, zero = CycNumber.one(self.order), CycNumber.zero(self.order)
        aug_rows = [list(self.row(i)) + [one if i == j else zero for j in range(n)]
                    for i in range(n)]
        reduced, pivots = ExactMatrix.from_rows(aug_rows, order=self.order).rref()
        if tuple(pivots) != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        entries = [reduced[i, n + j] for i in range(n) for j in range(n)]
        return ExactMatrix(n, n, entries, order=self.order)

    def det(self) -> CycNumber:
        if not self.is_square:
            raise DimensionMismatch("determinant requires a square matrix")
        if self.rows == 0:
            return CycNumber.one()
        data, pivots, sign, _ = self._forward_eliminate()
        if len(pivots) < self.rows:
            return CycNumber.zero(self.order)
        d = data[self.rows - 1][pivots[-1]]
        return d if sign == 1 else -d

    def charpoly(self) -> tuple[CycNumber, ...]:
        """Characteristic polynomial det(X*I - A), constant term first.

        Faddeev-LeVerrier: only divisions by integers, so exact everywhere.
        """
        if not self.is_square:
            raise DimensionMismatch("characteristic polynomial requires a square matrix")
        n = self.rows
        coeffs = [CycNumber.zero(self.order) for _ in range(n + 1)]
        coeffs[n] = CycNumber.one(self.order)
        m = ExactMatrix.identity(n, order=self.order)
        for k in range(1, n + 1):
            m = self * m
            c = -(m.trace() / k)
            coeffs[n - k] = c
            if k < n:
                m = m + ExactMatrix.identity(n, order=self.order) * c
        return tuple(coeffs)
