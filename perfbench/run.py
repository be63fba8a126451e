"""Benchmark for rigidcalc: three workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload family --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload weil --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --smoke

Each pass over a workload's corpus runs in a fresh worker process (see
worker.py); passes repeat, one at a time, for about --seconds seconds and
never fewer than MIN_PASSES times.  With --trace 0 the last line of standard
output is a JSON object holding the end-to-end metrics, medians over the
passes.  With --trace 1 untraced and traced passes alternate, the kernel
cells are timed once, and the object holds the per-layer metrics, including
the tracing overhead.  --smoke runs every workload once, untraced and
traced, on reduced corpora with the same checks.

The exit code is 0 only when every output passed its check.
"""
from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("family", "hypergeometric", "weil")
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
WORKER_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "item_p50_s": "s",
    "item_max_s": "s",
    "peak_rss_mib": "MiB",
}

_CALLS_AND_SELF = (
    "linalg.rank", "linalg.rref", "linalg.inverse", "linalg.matmul",
    "monodromy.burnside", "monodromy.centralizer_dim", "monodromy.jordan_type",
    "monodromy.tuple_init", "convolution.middle_convolution", "convolution.katz_reduce_step",
    "hypergeometric.build", "cli.main", "purity.functional_equation", "purity.magnitude",
)
_CALLS_ONLY = (
    "cyclotomic.mul", "cyclotomic.mul_nonrational", "cyclotomic.add", "cyclotomic.inverse",
    "cyclotomic.new", "cyclotomic.embed", "linalg.kernel_basis",
)
_SELF_ONLY = (
    "monodromy.certify_regular", "convolution.tensor_rank_one",
    "serialization.parse", "serialization.emit",
    "linalg", "monodromy", "convolution", "hypergeometric", "purity", "serialization", "cli",
)
_TOTAL = (
    "monodromy.burnside", "monodromy.centralizer_dim", "convolution.middle_convolution",
    "convolution.katz_reduce_step", "purity.magnitude", "cli.main",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _CALLS_AND_SELF + _CALLS_ONLY},
    **{f"{name}.self_s": "s" for name in _CALLS_AND_SELF + _SELF_ONLY},
    **{f"{name}.total_s": "s" for name in _TOTAL},
    "linalg.elim_cells": "count",
    "linalg.max_height_bits": "bits",
    "serialization.bytes_out": "bytes",
    **{f"cyclotomic.{op}_us.N{n}": "us" for op in ("add", "mul", "inverse") for n in (2, 12)},
    **{
        f"linalg.{op}_s.N{n}-n{size}": "s"
        for op in ("mul", "rank", "rref", "inverse") for n in (2, 12) for size in (8, 16)
    },
    "trace.spans": "count",
    "trace.run_s_untraced": "s",
    "trace.run_s_traced": "s",
    "trace.overhead_s": "s",
    "host.reference_ms": "ms",
    "host.run_raw_s": "s",
}


class BenchmarkError(RuntimeError):
    pass


def run_worker(args: list[str], smoke: bool = False) -> dict:
    """Run one worker process to its end and return its JSON result."""
    command = [sys.executable, str(WORKER), *args] + (["--smoke"] if smoke else [])
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {' '.join(args)} ran past {WORKER_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchmarkError(
            f"worker {' '.join(args)} exited {done.returncode}:\n{done.stderr.strip()}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _pass_args(workload: str, seed: int, traced: bool) -> list[str]:
    return ["--workload", workload, "--seed", str(seed)] + (["--trace"] if traced else [])


def _timed_passes(workload: str, seed: int, seconds: float, min_passes: int, traced_too: bool):
    """Passes until the next one would end after ``seconds``.

    With ``traced_too`` each untraced pass is followed by a traced one.
    """
    plain, traced = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        plain.append(run_worker(_pass_args(workload, seed, False)))
        if traced_too:
            traced.append(run_worker(_pass_args(workload, seed, True)))
        took = time.monotonic() - began
        if len(plain) >= min_passes and time.monotonic() - start + took > seconds:
            return plain, traced


def _outcome(passes: list[dict]) -> tuple[bool, int, int, list[str]]:
    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return not errors, attempted, failed, errors


def end_to_end(passes: list[dict]) -> dict[str, float]:
    median = statistics.median
    return {
        "setup_s": median(p["setup_s"] for p in passes),
        "run_s": median(p["run_s"] for p in passes),
        "item_p50_s": median(median(p["item_s"]) for p in passes),
        "item_max_s": median(max(p["item_s"]) for p in passes),
        "peak_rss_mib": median(p["peak_rss_mib"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict], kernels: dict) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in PER_LAYER:
        samples = [p["layers"].get(name, 0) for p in traced]
        values[name] = statistics.median(samples)
    values.update(kernels)
    untraced_s = statistics.median(p["run_s"] for p in plain)
    traced_s = statistics.median(p["run_s"] for p in traced)
    values["trace.run_s_untraced"] = untraced_s
    values["trace.run_s_traced"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["host.reference_ms"] = 1000 * statistics.median(
        t for p in plain for t in p["reference_s"]
    )
    values["host.run_raw_s"] = statistics.median(p["run_raw_s"] for p in plain)
    return values


def _write_spans(workload: str, seed: int, traced: dict) -> None:
    # The spans of the last traced pass, one JSON array per line:
    # [id, parent id, name, start, end], after a header with the run id.
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"run_id": traced["run_id"], "workload": workload}) + "\n")
        for span in traced["spans"]:
            handle.write(json.dumps(span) + "\n")


def _report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not trace:
        passes, _ = _timed_passes(workload, seed, seconds, MIN_PASSES, False)
        correct, attempted, failed, errors = _outcome(passes)
        metrics, units = end_to_end(passes), END_TO_END
    else:
        began = time.monotonic()
        kernels = run_worker(["--kernels", "--seed", str(seed)])["kernels"]
        remaining = seconds - (time.monotonic() - began)
        plain, traced = _timed_passes(workload, seed, remaining, MIN_TRACE_PAIRS, True)
        correct, attempted, failed, errors = _outcome(plain + traced)
        metrics, units = per_layer(plain, traced, kernels), PER_LAYER
        _write_spans(workload, seed, traced[-1])
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(_report(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


def check_manifest() -> list[str]:
    """Differences between BENCHMARK.json and the metrics this file prints."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return []
    manifest = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for key, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != expected:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(expected.items()))}")
    if sorted(w["name"] for w in manifest["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    return problems


def smoke() -> int:
    """Every workload once untraced and once traced, on reduced corpora."""
    summary, problems = {}, check_manifest()
    for workload in WORKLOADS:
        plain = run_worker(_pass_args(workload, 1, False), smoke=True)
        traced = run_worker(_pass_args(workload, 1, True), smoke=True)
        correct, attempted, failed, errors = _outcome([plain, traced])
        problems += errors
        summary[workload] = {"correct": correct, "attempted": attempted, "failed": failed,
                             "run_s": plain["run_s"], "traced_run_s": traced["run_s"]}
    kernels = run_worker(["--kernels", "--seed", "1"], smoke=True)["kernels"]
    summary["kernel_cells"] = len(kernels)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": True, "correct": not problems, "workloads": summary}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-scale check of every workload")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running worker before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rigidcalc" / "__init__.py").is_file():
        print(f"error: no rigidcalc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required without --smoke")
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
