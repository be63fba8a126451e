"""Kernel cells: single field and matrix operations at fixed sizes and orders.

Each cell is the median time of one operation on seeded random operands, at
order N = 2 (the rational field every family member lives in) and N = 12
(phi = 4, the largest field of the hypergeometric corpus).
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

ORDERS = (2, 12)
SIZES = (8, 16)
SIZES_SMOKE = (3,)


def _random_cyc(rc, rng, order: int):
    # Nonzero coefficients, so every value is invertible.
    phi = rc.euler_phi(order)
    return rc.CycNumber(
        order, [Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(phi)]
    )


def _median_time(op, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        op()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _random_invertible(rc, rng, n: int, order: int):
    # Entries 0 or +-zeta^k, about half of them nonzero; rejected until
    # invertible.
    while True:
        entries = [
            rc.CycNumber.zeta(order, rng.randrange(order)) * rng.choice((1, -1))
            if rng.random() < 0.5 else 0
            for _ in range(n * n)
        ]
        m = rc.ExactMatrix(n, n, entries, order=order)
        if m.rank() == n:
            return m


def cyclotomic_cells(rc, rng, smoke: bool) -> dict[str, float]:
    """Microseconds per add, mul and inverse, over batches of operands."""
    batch = 50 if smoke else 500
    out = {}
    for order in ORDERS:
        xs = [_random_cyc(rc, rng, order) for _ in range(batch)]
        ys = [_random_cyc(rc, rng, order) for _ in range(batch)]
        pairs = list(zip(xs, ys))
        ops = {
            "add": lambda: [x + y for x, y in pairs],
            "mul": lambda: [x * y for x, y in pairs],
            "inverse": lambda: [x.inverse() for x in xs],
        }
        for name, op in ops.items():
            out[f"cyclotomic.{name}_us.N{order}"] = _median_time(op, 5) / batch * 1e6
    return out


def linalg_cells(rc, rng, smoke: bool) -> dict[str, float]:
    """Seconds per product, rank, rref and inverse of one n x n matrix."""
    out = {}
    for order in ORDERS:
        for n in SIZES_SMOKE if smoke else SIZES:
            a = _random_invertible(rc, rng, n, order)
            b = _random_invertible(rc, rng, n, order)
            ops = {"mul": lambda: a * b, "rank": a.rank, "rref": a.rref, "inverse": a.inverse}
            for name, op in ops.items():
                out[f"linalg.{name}_s.N{order}-n{n}"] = _median_time(op, 3)
    return out


def kernel_cells(rc, seed: int, smoke: bool) -> dict[str, float]:
    rng = random.Random(f"kernels:{seed}")
    return {**cyclotomic_cells(rc, rng, smoke), **linalg_cells(rc, rng, smoke)}
