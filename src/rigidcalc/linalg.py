"""Dense exact linear algebra over Q(zeta_N).

Matrices are immutable, row-major, and keep every entry at one common
cyclotomic order.  Rank and kernel go through fraction-free (Bareiss-style)
forward elimination with exact division, followed by a single normalization
pass to reduced row echelon form; pivots are always the first nonzero entry
scanning rows top to bottom, so results are deterministic.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import CycNumber
from .errors import DimensionMismatch, SingularMatrix

Entry = CycNumber | int | Fraction


class ExactMatrix:
    """A dense matrix over Q(zeta_N).

    ``_sequences`` is the memo of ``monodromy._rank_sequences``, filled on
    first use; it takes no part in equality, hashing or display.
    """

    __slots__ = ("rows", "cols", "order", "entries", "_sequences")

    def __init__(self, rows: int, cols: int, entries, order: int | None = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("matrix dimensions must be nonnegative")
        common = order if order is not None else 1
        values = [CycNumber.coerce(e, common) for e in entries]
        if len(values) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(values)}"
            )
        for v in values:
            common = math.lcm(common, v.order)
        self.rows = rows
        self.cols = cols
        self.order = common
        self.entries = tuple(v.lift(common) for v in values)
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
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)], order=order)

    @classmethod
    def zeros(cls, rows: int, cols: int, order: int = 1) -> "ExactMatrix":
        return cls(rows, cols, [0] * (rows * cols), order=order)

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
        coeffs = list(monic_coeffs)
        if not coeffs or CycNumber.coerce(coeffs[-1]) != 1:
            raise ValueError("companion matrix needs a monic polynomial")
        n = len(coeffs) - 1
        entries: list[Entry] = [0] * (n * n)
        for i in range(1, n):
            entries[i * n + (i - 1)] = 1
        for i in range(n):
            entries[i * n + (n - 1)] = -CycNumber.coerce(coeffs[i])
        return cls(n, n, entries, order=order)

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
        zero = CycNumber.zero(a.order)
        out = []
        b_cols = [b.column(j) for j in range(b.cols)]
        for i in range(a.rows):
            arow = a.row(i)
            for bc in b_cols:
                acc = zero
                for x, y in zip(arow, bc):
                    if not (x.is_zero() or y.is_zero()):
                        acc = acc + x * y
                out.append(acc)
        return ExactMatrix(a.rows, b.cols, out, order=a.order)

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
        vec = [CycNumber.coerce(v) for v in vector]
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = CycNumber.zero(self.order)
            for x, y in zip(self.row(i), vec):
                if not (x.is_zero() or y.is_zero()):
                    acc = acc + x * y
            out.append(acc)
        return tuple(out)

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
        # polynomial.  The division by the previous pivot is exact, so its
        # inverse is taken once per pivot; before the first pivot it is the
        # plain int 1.
        data = self.to_lists()
        prev = prev_inv = 1
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
            p = data[r][c]
            top = data[r]
            zero = p * 0
            for i in range(r + 1, self.rows):
                row_i = data[i]
                f = row_i[c]
                if f:
                    for j in range(c + 1, self.cols):
                        row_i[j] = (p * row_i[j] - f * top[j]) * prev_inv
                elif p != prev:
                    for j in range(c + 1, self.cols):
                        if row_i[j]:
                            row_i[j] = p * row_i[j] * prev_inv
                row_i[c] = zero
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
            prev, prev_inv = p, p.inverse()
        return data, tuple(pivots), sign

    def rref(self):
        """Reduced row echelon form and its pivot columns."""
        data, pivots, _ = self._forward_eliminate()
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            inv = data[r][c].inverse()
            data[r] = [e * inv for e in data[r]]
            for i in range(r):
                f = data[i][c]
                if f:
                    data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        flat = [e for row in data for e in row]
        return ExactMatrix(self.rows, self.cols, flat, order=self.order), pivots

    def rank(self) -> int:
        _, pivots, _ = self._forward_eliminate()
        return len(pivots)

    def kernel_basis(self) -> tuple[tuple[CycNumber, ...], ...]:
        """Reduced-echelon basis of the right kernel; deterministic."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free_cols = [c for c in range(self.cols) if c not in pivot_set]
        if not free_cols:
            return ()
        vectors = []
        for f in free_cols:
            v = [CycNumber.zero(self.order) for _ in range(self.cols)]
            v[f] = CycNumber.one(self.order)
            for r, c in enumerate(pivots):
                v[c] = -reduced[r, f]
            vectors.append(v)
        stacked = ExactMatrix.from_rows(vectors)
        normalized, _ = stacked.rref()
        return tuple(normalized.row(i) for i in range(normalized.rows))

    def rank_kernel(self):
        """(rank, kernel basis); rank + len(basis) = cols."""
        basis = self.kernel_basis()
        return self.cols - len(basis), basis

    def inverse(self) -> "ExactMatrix":
        if not self.is_square:
            raise DimensionMismatch("inverse requires a square matrix")
        n = self.rows
        aug_rows = []
        for i in range(n):
            aug_rows.append(list(self.row(i)) + [1 if i == j else 0 for j in range(n)])
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
        data, pivots, sign = self._forward_eliminate()
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
