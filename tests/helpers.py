"""Shared helpers for the test suite: random exact objects and slow oracles."""
from __future__ import annotations

import random
from fractions import Fraction

from rigidcalc import CycNumber, ExactMatrix, MonodromyTuple, MultiplicityFunction, make_tuple


def product_relation(t: MonodromyTuple) -> ExactMatrix:
    """A_inf A_r ... A_1, the identity by the package's one product relation."""
    product = t.at_infinity
    for m in reversed(t.matrices):
        product = product * m
    return product


def random_rational(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_cyc(rng: random.Random, order: int, span: int = 4) -> CycNumber:
    from rigidcalc import euler_phi

    return CycNumber(order, [random_rational(rng, span) for _ in range(euler_phi(order))])


def random_invertible(rng: random.Random, n: int, order: int = 1) -> ExactMatrix:
    """L * U with unit diagonals and small entries: always invertible."""
    lower = [[0] * n for _ in range(n)]
    upper = [[0] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = 1
        upper[i][i] = 1
        for j in range(i):
            lower[i][j] = rng.randint(-2, 2)
        for j in range(i + 1, n):
            upper[i][j] = rng.randint(-2, 2)
    product = ExactMatrix.from_rows(lower, order=order) * ExactMatrix.from_rows(upper, order=order)
    return product


def jordan_matrix(blocks, order: int = 1) -> ExactMatrix:
    """Direct sum over (eigenvalue, size) of eigenvalue * I + (ones on the
    superdiagonal)."""
    n = sum(size for _, size in blocks)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for eig, size in blocks:
        for i in range(size):
            rows[start + i][start + i] = eig
            if i + 1 < size:
                rows[start + i][start + i + 1] = 1
        start += size
    return ExactMatrix.from_rows(rows, order=order)


def random_small_invertible(rng: random.Random, n: int) -> ExactMatrix:
    """Invertible matrix with entries in {0, +-1, +-2}, by rejection."""
    while True:
        rows = [[rng.choice([-2, -1, 0, 1, 2]) for _ in range(n)] for _ in range(n)]
        m = ExactMatrix.from_rows(rows)
        if m.rank() == n:
            return m


def random_multiplicity(rng: random.Random, max_rank: int = 6):
    """A seeded multiplicity function and its order, as criterion 4 draws them."""
    order = rng.choice([2, 3, 4, 6, 8, 12])
    total = rng.randint(1, max_rank)
    keys = [CycNumber.zeta(order, k) for k in range(1, order)]
    rng.shuffle(keys)
    chosen = keys[: rng.randint(1, min(3, len(keys), total))]
    counts = [1] * len(chosen)
    for _ in range(total - len(chosen)):
        counts[rng.randrange(len(chosen))] += 1
    return MultiplicityFunction.of(list(zip(chosen, counts))), order


def count_points_x3_plus_x(p: int) -> int:
    """#E(F_p) for y^2 = x^3 + x, by brute force, point at infinity included."""
    count = 1
    for x in range(p):
        for y in range(p):
            if (y * y - (x ** 3 + x)) % p == 0:
                count += 1
    return count


def brute_force_irreducible(t: MonodromyTuple) -> bool:
    """Word-enumeration span check, independent of the Burnside closure.

    Collects every word in the generators level by level, stacking the
    flattened matrices and recomputing the rank of the whole stack per level;
    once a level adds no rank the span is multiplication-closed and final.
    """
    n = t.rank
    target = n * n
    words = [ExactMatrix.identity(n, order=t.order)]
    stacked = [list(words[0].entries)]
    rank = 1
    level = list(words)
    while True:
        next_level = []
        for w in level:
            for g in t.matrices:
                next_level.append(g * w)
        candidate_rows = stacked + [list(m.entries) for m in next_level]
        new_rank = ExactMatrix.from_rows(candidate_rows, order=t.order).rank()
        if new_rank == rank:
            return rank == target
        stacked = candidate_rows
        rank = new_rank
        if rank == target:
            return True
        level = next_level


def hypergeometric_over_q(a, b):
    """(C_a, C_a^-1 C_b) at 0 and 1 for rational parameters, which may be no
    roots of unity: irreducible when no a_i equals a b_j."""
    def companion(roots):
        coeffs = [1]
        for r in roots:
            coeffs = [0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        return ExactMatrix.companion(coeffs)

    ca, cb = companion(a), companion(b)
    return make_tuple(1, ["0", "1"], [ca, ca.inverse() * cb])
