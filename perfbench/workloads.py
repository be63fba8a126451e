"""The three workloads: seeded corpora, the calls each item makes, and the
checks of each item's output against the oracles in ``oracles``.

An item is timed only while the program works on it.  Making its inputs
and checking its outputs happen outside the timed region, with tracing
paused, so neither shows in the metrics.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import oracles as orc

# Items are timed in CPU seconds of this single-threaded process: on an idle
# core that equals wall time, and unlike wall time it does not count the
# time another process held the core.
clock = time.process_time


class Paused:
    """Stand-in for a tracer when tracing is off: pausing costs nothing."""

    @contextlib.contextmanager
    def paused(self):
        yield


@dataclass
class Item:
    name: str
    params: dict
    expected: dict


# -- family ----------------------------------------------------------------------

FAMILY_TOP = 5
FAMILY_TOP_SMOKE = 3


def family_corpus(seed: int, smoke: bool) -> list[Item]:
    """The members build_F(0..K).  The family has no free parameter, so the
    seed is not used: conjugating each member by a seeded signed
    permutation changed the cost of the top member by up to 15% from seed
    to seed, more than the run-to-run noise.
    """
    top = FAMILY_TOP_SMOKE if smoke else FAMILY_TOP
    return [Item(f"F{i}", {"i": i}, {"jordan": orc.table1_jordan(i)}) for i in range(top + 1)]


def run_family_item(rc, item: Item, tracer) -> tuple[float, dict]:
    start = clock()
    t = rc.build_F(item.params["i"])
    jordan = {point: t.jordan_at(point) for point in ("0", "1", "inf")}
    index = rc.rigidity_index(t)
    irreducible = rc.is_absolutely_irreducible(t)
    certificate = rc.certify_regular(t)
    trace = rc.katz_reduce(t)
    elapsed = clock() - start
    with tracer.paused():
        out = {
            "rank": t.rank,
            "jordan": {
                point: orc.jordan_key(
                    (orc.decode_root_of_unity(e.order, e.coeffs), s) for e, s in jt.blocks
                )
                for point, jt in jordan.items()
            },
            "index": index,
            "irreducible": irreducible,
            "witness": None if certificate.witness is None else str(certificate.witness),
            "katz_ranks": [step.rank for step in trace.steps],
        }
    return elapsed, out


def check_family_item(item: Item, out: dict) -> list[str]:
    i = item.params["i"]
    errors = []
    if out["rank"] != i + 1:
        errors.append(f"rank {out['rank']} != {i + 1}")
    for point, blocks in item.expected["jordan"].items():
        if out["jordan"][point] != blocks:
            errors.append(f"Jordan type at {point}: {out['jordan'][point]} != table {blocks}")
    recomputed = orc.rigidity_from_jordan(i + 1, list(out["jordan"].values()))
    if out["index"] != 2 or recomputed != 2:
        errors.append(f"rigidity index {out['index']}, from Jordan types {recomputed}; want 2")
    if out["irreducible"] is not True:
        errors.append("not absolutely irreducible")
    witness = orc.single_block_witness(item.expected["jordan"])
    if out["witness"] != witness:
        errors.append(f"regularity witness {out['witness']} != {witness}")
    if not orc.ranks_strictly_decrease_to_one(i + 1, out["katz_ranks"]):
        errors.append(f"Katz ranks {out['katz_ranks']} do not fall strictly to 1")
    return errors


# -- hypergeometric ------------------------------------------------------------------

# (kind, N, multiplicity pattern of a, of b).  A multiplicity
# function has a = 1 with multiplicity n.  phi(N) is 2 for N in {3, 4, 6}
# and 4 for N in {5, 8, 10, 12}.
HYPERGEOMETRIC_SLOTS = (
    ("mult", 3, (2,), (2,)),
    ("ab", 4, (1, 1), (2,)),
    ("mult", 12, (2,), (2,)),
    ("ab", 8, (1, 1), (1, 1)),
    ("ab", 6, (2, 1), (1, 1, 1)),
    ("mult", 4, (3,), (2, 1)),
    ("ab", 3, (3,), (2, 1)),
    ("mult", 6, (3,), (1, 1, 1)),
    ("ab", 4, (1, 1, 1), (3,)),
    ("ab", 5, (1, 1, 1), (2, 1)),
    ("mult", 8, (3,), (1, 1, 1)),
    ("ab", 12, (2, 1), (2, 1)),
    ("mult", 10, (3,), (2, 1)),
    ("mult", 5, (4,), (4,)),
)
HYPERGEOMETRIC_SLOTS_SMOKE = (("mult", 3, (2,), (2,)), ("ab", 12, (1, 1), (2,)))


def _galois_stable(exps, n_order: int) -> bool:
    # True when the multiset of exponents is fixed by every unit, i.e. the
    # polynomial prod(T - zeta^k) has rational coefficients.
    base = sorted(k % n_order for k in exps)
    return all(sorted(u * k % n_order for k in exps) == base for u in orc.units(n_order))


def _root_token(k: int, n_order: int) -> str:
    k %= n_order
    return "1" if k == 0 else f"zeta{n_order}^{k}"


def _draw_parameters(rng, kind: str, n_order: int, a_pattern, b_pattern):
    # Disjoint exponent multisets with the given multiplicity patterns,
    # neither Galois-stable, so no companion matrix is rational.
    for _ in range(1000):
        if kind == "mult":
            a_keys = [0]
            b_keys = rng.sample(range(1, n_order), len(b_pattern))
        else:
            keys = rng.sample(range(n_order), len(a_pattern) + len(b_pattern))
            a_keys, b_keys = keys[: len(a_pattern)], keys[len(a_pattern):]
        a = [k for k, m in zip(a_keys, a_pattern) for _ in range(m)]
        b = [k for k, m in zip(b_keys, b_pattern) for _ in range(m)]
        if not _galois_stable(b, n_order) and (kind == "mult" or not _galois_stable(a, n_order)):
            return sorted(a), sorted(b)
    raise ValueError(f"no parameters with patterns {a_pattern}, {b_pattern} in Z/{n_order}")


def hypergeometric_corpus(seed: int, smoke: bool) -> list[Item]:
    """Each slot's parameters are drawn once, from a stream of their own;
    the seed picks a unit u mod N and the corpus holds the Galois conjugate
    zeta -> zeta^u of each.  Conjugates share their block structure and
    verdicts and cost within a few percent of each other, where parameters
    drawn afresh per seed changed a slot's cost by up to 15%.
    """
    rng = random.Random(f"hypergeometric:{seed}")
    slots = HYPERGEOMETRIC_SLOTS_SMOKE if smoke else HYPERGEOMETRIC_SLOTS
    items = []
    for slot in slots:
        kind, n_order, a_pattern, b_pattern = slot
        n = sum(a_pattern)
        template = random.Random(f"hypergeometric-slot:{slot}")
        a, b = _draw_parameters(template, kind, n_order, a_pattern, b_pattern)
        u = rng.choice(orc.units(n_order))
        a, b = sorted(u * k % n_order for k in a), sorted(u * k % n_order for k in b)
        if kind == "mult":
            counts: dict[int, int] = {}
            for k in b:
                counts[k] = counts.get(k, 0) + 1
            document = {
                "N": n_order,
                "m": [{"zeta": _root_token(k, n_order), "mult": m} for k, m in sorted(counts.items())],
            }
            argv = ["hypergeom", "--multiplicity", orc.canonical_json(document)]
        else:
            argv = [
                "hypergeom",
                "--a", ",".join(_root_token(k, n_order) for k in a),
                "--b", ",".join(_root_token(k, n_order) for k in b),
                "--order", str(n_order),
            ]
        items.append(
            Item(
                f"{kind}-N{n_order}-n{n}",
                {"argv": argv + ["--format", "json"], "N": n_order, "n": n},
                {"jordan": orc.hypergeometric_jordan(a, b, n_order)},
            )
        )
    return items


_TUPLE_COMMANDS = (
    ("jordan:0", ["jordan", "-", "--point", "0"]),
    ("jordan:1", ["jordan", "-", "--point", "1"]),
    ("jordan:inf", ["jordan", "-", "--point", "inf"]),
    ("rigidity", ["rigidity", "-", "--expect-rigid"]),
    ("irreducible", ["irreducible", "-"]),
    ("regular", ["regular", "-"]),
    ("katz-reduce", ["katz-reduce", "-"]),
)


def _call_cli(rc, argv, stdin_text: str) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = rc.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def run_hypergeometric_item(rc, item: Item, tracer) -> tuple[float, dict]:
    outputs = {}
    start = clock()
    code, text = _call_cli(rc, item.params["argv"], "")
    outputs["hypergeom"] = (code, text)
    for label, argv in _TUPLE_COMMANDS:
        outputs[label] = _call_cli(rc, argv + ["--format", "json"], text)
    return clock() - start, outputs


def _decode_jordan(document) -> list[tuple[Fraction, int]]:
    blocks = []
    for entry in document:
        e = entry["eigenvalue"]
        f = orc.decode_root_of_unity(e["N"], [Fraction(int(x), int(y)) for x, y in e["coeffs"]])
        blocks.extend([(f, entry["size"])] * entry["mult"])
    return orc.jordan_key(blocks)


def check_hypergeometric_item(item: Item, outputs: dict) -> list[str]:
    errors = []
    documents = {}
    for label, (code, text) in outputs.items():
        if code != 0:
            errors.append(f"{label} exited {code}")
            continue
        lines = text.splitlines()
        try:
            documents[label] = json.loads(lines[0]) if len(lines) == 1 else None
        except json.JSONDecodeError:
            documents[label] = None
        if documents[label] is None or orc.canonical_json(documents[label]) != lines[0]:
            errors.append(f"{label} output is not one canonical JSON document")
    if errors:
        return errors
    n = item.params["n"]
    tup = documents["hypergeom"]
    if tup["n"] != n or tup["N"] != item.params["N"]:
        errors.append(f"tuple has n={tup['n']}, N={tup['N']}")
    jordan = {p: _decode_jordan(documents[f"jordan:{p}"]) for p in ("0", "1", "inf")}
    for point, blocks in item.expected["jordan"].items():
        if jordan[point] != blocks:
            errors.append(f"Jordan type at {point}: {jordan[point]} != construction {blocks}")
    at_one_rank = sum(s - 1 if e == 0 else s for e, s in jordan["1"])
    if at_one_rank > 1:
        errors.append(f"rank(A_1 - I) = {at_one_rank} > 1")
    recomputed = orc.rigidity_from_jordan(n, list(jordan.values()))
    if documents["rigidity"] != {"rigidity_index": 2} or recomputed != 2:
        errors.append(f"rigidity {documents['rigidity']}, from Jordan types {recomputed}; want 2")
    # Beukers-Heckman: disjoint parameters give an irreducible tuple.
    if documents["irreducible"] != {"absolutely_irreducible": True}:
        errors.append(f"irreducible: {documents['irreducible']}")
    witness = orc.single_block_witness(item.expected["jordan"])
    want = {"verdict": "RegularViaLemma" if witness else "Unknown", "witness": witness}
    if documents["regular"] != want:
        errors.append(f"regular: {documents['regular']} != {want}")
    ranks = [step["rank"] for step in documents["katz-reduce"]["steps"]]
    if not orc.ranks_strictly_decrease_to_one(n, ranks):
        errors.append(f"Katz ranks {ranks} do not fall strictly to 1")
    return errors


# -- weil ------------------------------------------------------------------------------

WEIL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
WEIL_SQUARE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29)
# (p, d distinct traces, total degree).  The distinct traces are the window
# of d integers around 0, each the point count of a seeded curve, and the
# seed picks which factors repeat to fill the degree.  So the squarefree
# part, where root finding spends its time, is the same for every seed.
WEIL_PRODUCTS = ((11, 4, 12), (31, 6, 16), (59, 6, 20), (101, 7, 20))
# (N, p, number of Jacobi sums): p = 1 mod N.
WEIL_JACOBI = ((3, 7, 2), (4, 13, 3), (5, 11, 2), (6, 19, 3), (8, 17, 2), (12, 13, 2))


def _curve(rng, p: int) -> tuple[int, int]:
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if orc.is_elliptic(a, b, p):
            return a, b


def _frobenius(p: int, t: int) -> list[int]:
    return [p, -t, 1]


def weil_corpus(seed: int, smoke: bool) -> list[dict]:
    """Polynomials whose verdicts follow from how they were made.

    Returns plain descriptions; ``weil_items`` turns them into program
    inputs.  Every trace is a brute-force point count.
    """
    rng = random.Random(f"weil:{seed}")
    primes = WEIL_PRIMES[:2] if smoke else WEIL_PRIMES
    out = []

    def pure(label, coeffs, q, w):
        out.append({"name": label, "coeffs": coeffs, "q": q, "w": w, "verdict": "Pass"})

    for p in primes:
        for _ in range(6):
            a, b = _curve(rng, p)
            t = orc.trace_fp(a, b, p)
            if t * t > 4 * p:
                raise AssertionError(f"Hasse bound fails for y^2=x^3+{a}x+{b} mod {p}")
            pure(f"E/F{p}", _frobenius(p, t), p, 1)
    for p in WEIL_SQUARE_PRIMES[: 1 if smoke else None]:
        a, b = _curve(rng, p)
        t, t2 = orc.trace_fp(a, b, p), orc.trace_fp2(a, b, p)
        if t2 != t * t - 2 * p:
            raise AssertionError(f"a_(p^2) = {t2} but a_p^2 - 2p = {t * t - 2 * p} at p={p}")
        pure(f"E/F{p}^2", [p * p, -t2, 1], p * p, 1)
        # Sym^2: roots alpha^2, alpha*beta = p, beta^2, all of modulus p.
        pure(f"Sym2 E/F{p}", orc.poly_mul_int([-p, 1], [p * p, -t2, 1]), p, 2)
    for p, distinct, degree in WEIL_PRODUCTS[:1] if smoke else WEIL_PRODUCTS:
        window = range(-(distinct // 2), distinct - distinct // 2)
        traces: list[int] = []
        while len(traces) < distinct:
            t = orc.trace_fp(*_curve(rng, p), p)
            if t in window and t not in traces:
                traces.append(t)
        factors = traces + [rng.choice(traces) for _ in range(degree // 2 - distinct)]
        coeffs = [1]
        for t in factors:
            coeffs = orc.poly_mul_int(coeffs, _frobenius(p, t))
        pure(f"prod{degree}/F{p}", coeffs, p, 1)
    jacobi = WEIL_JACOBI[-1:] if smoke else WEIL_JACOBI
    for n_order, p, count in jacobi:
        sums = []
        while len(sums) < count:
            a, b = rng.randrange(1, n_order), rng.randrange(1, n_order)
            if (a + b) % n_order:
                sums.append(orc.jacobi_sum_raw(p, n_order, a, b))
        for raw in sums:
            for u in orc.units(n_order):
                if abs(abs(orc.embed_raw(raw, n_order, u)) ** 2 - p) > 1e-6:
                    raise AssertionError(f"|J|^2 != {p} for a Jacobi sum mod {p}")
        poly = [[1] + [0] * (n_order - 1)]
        for raw in sums:
            poly = orc.times_x_minus(poly, raw, n_order)
        out.append({"name": f"jacobi{count}/Q(zeta{n_order})", "raw": poly, "N": n_order,
                    "q": p, "w": 1, "verdict": "Pass"})
        # 2J has |2J|^2 = 4p != p, so conj(c_0) c_0 = q^w fails.
        double = [[-2 * c for c in sums[0]], [1] + [0] * (n_order - 1)]
        out.append({"name": f"2J/Q(zeta{n_order})", "raw": double, "N": n_order,
                    "q": p, "w": 1, "verdict": "FailFunctionalEquation"})
    for p in primes[::3]:
        t = orc.trace_fp(*_curve(rng, p), p)
        past = 2 * math.isqrt(p) + 1 + rng.randrange(3)
        while past * past <= 4 * p:
            past += 1
        sign = rng.choice((1, -1))
        out.append({"name": f"hasse+/F{p}", "coeffs": _frobenius(p, sign * past), "q": p,
                    "w": 1, "verdict": "FailMagnitude"})
        broken = [p + 1, -t, 1]
        if orc.functional_equation_holds_int(broken, p, 1):
            raise AssertionError("a constant term p + 1 satisfied the functional equation")
        out.append({"name": f"const/F{p}", "coeffs": broken, "q": p, "w": 1,
                    "verdict": "FailFunctionalEquation"})
    for entry in out:
        if "coeffs" in entry:
            holds = orc.functional_equation_holds_int(entry["coeffs"], entry["q"], entry["w"])
            if holds != (entry["verdict"] != "FailFunctionalEquation"):
                raise AssertionError(f"functional equation oracle disagrees on {entry['name']}")
    return out


def weil_items(rc, corpus: list[dict]) -> list[Item]:
    """Program inputs for the Weil corpus: integer or Q(zeta_N) coefficients."""
    items = []
    for entry in corpus:
        if "coeffs" in entry:
            coeffs = entry["coeffs"]
        else:
            coeffs = [rc.CycNumber.from_raw(raw, entry["N"]) for raw in entry["raw"]]
        items.append(
            Item(entry["name"], {"coeffs": coeffs, "q": entry["q"], "w": entry["w"]},
                 {"verdict": entry["verdict"]})
        )
    return items


def run_weil_item(rc, item: Item, tracer) -> tuple[float, dict]:
    p = item.params
    start = clock()
    verdict = rc.weil_check(rc.WeilPolynomial(p["coeffs"], p["q"], p["w"]))
    return clock() - start, {"verdict": str(verdict)}


def check_weil_item(item: Item, out: dict) -> list[str]:
    if out["verdict"] != item.expected["verdict"]:
        return [f"verdict {out['verdict']} != {item.expected['verdict']}"]
    return []


# -- dispatch --------------------------------------------------------------------------------

def make_items(rc, workload: str, seed: int, smoke: bool) -> list[Item]:
    if workload == "family":
        return family_corpus(seed, smoke)
    if workload == "hypergeometric":
        return hypergeometric_corpus(seed, smoke)
    if workload == "weil":
        return weil_items(rc, weil_corpus(seed, smoke))
    raise ValueError(f"unknown workload {workload!r}")


RUNNERS = {
    "family": (run_family_item, check_family_item),
    "hypergeometric": (run_hypergeometric_item, check_hypergeometric_item),
    "weil": (run_weil_item, check_weil_item),
}


def warm_up(rc, items: list[Item], workload: str) -> None:
    """Fill the per-process cyclotomic tables for every order the pass uses."""
    orders = {2}
    if workload == "hypergeometric":
        orders |= {item.params["N"] for item in items}
    elif workload == "weil":
        orders |= {c.order for item in items for c in item.params["coeffs"]
                   if isinstance(c, rc.CycNumber)}
    for order in sorted(orders):
        rc.CycNumber.zeta(order) * rc.CycNumber.zeta(order)


# Wrapped boundaries each workload must call; a traced pass that shows zero
# calls of one of them fails instead of reporting a low self time.
_LINALG = ("linalg.rank", "linalg.rref", "linalg.inverse", "linalg.matmul", "linalg.kernel_basis")
_LOCAL_DATA = (
    "monodromy.tuple_init", "monodromy.jordan_type", "monodromy.centralizer_dim",
    "monodromy.rigidity_index", "monodromy.burnside", "monodromy.certify_regular",
)
_REDUCTION = (
    "convolution.middle_convolution", "convolution.katz_reduce_step",
    "convolution.katz_reduce", "convolution.tensor_rank_one",
)
_FIELD = ("cyclotomic.add", "cyclotomic.mul", "cyclotomic.inverse", "cyclotomic.new")
MUST_REACH = {
    "family": _LINALG + _LOCAL_DATA + _REDUCTION + _FIELD + ("convolution.build_F",),
    "hypergeometric": _LINALG + _LOCAL_DATA + _REDUCTION + _FIELD + (
        "cyclotomic.mul_nonrational", "hypergeometric.build", "hypergeometric.from_multiplicity",
        "serialization.parse", "serialization.emit", "cli.main",
    ),
    "weil": _FIELD + (
        "cyclotomic.embed", "purity.weil_check", "purity.functional_equation", "purity.magnitude",
    ),
}
