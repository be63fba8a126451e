"""One fresh process: set up, then make one pass over a workload's corpus.

    python3 perfbench/worker.py --workload family --seed 1 [--trace] [--smoke]
    python3 perfbench/worker.py --kernels --seed 1 [--smoke]

A fresh process per pass means no pass is served by memoisation left behind
by another (the build_F cache, cached monodromy at infinity, the cyclotomic
tables).  Set-up covers what every process pays once: importing the
package, making the corpus and filling the cyclotomic tables.  The last
line of standard output is one JSON object.

Times are CPU seconds scaled to a reference core speed (see ``Speed``).
"""
from __future__ import annotations

import time

_STARTED = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


class Speed:
    """How fast the core runs now, from a fixed loop of Fraction arithmetic.

    The loop imports nothing from rigidcalc, so no change to the program
    changes its time.  A shared core can run this loop, and the program,
    up to twice as slowly at one moment as at the next.  Each calibration
    is the median of three runs of the loop.  A stretch of work between two
    calibrations is scaled by REFERENCE_S over their mean, which gives its
    time on a core that runs the loop in REFERENCE_S seconds.
    """

    #: CPU seconds of one loop on an uncontended core of a 2-vCPU Xeon VM
    #: under Python 3.11.7
    REFERENCE_S = 0.016
    #: longest stretch of items between two calibrations
    EVERY_S = 0.25

    def __init__(self):
        self.samples = [self.calibrate()]

    @staticmethod
    def loop() -> float:
        start = time.process_time()
        acc = Fraction(0)
        for k in range(1, 4000):
            acc += Fraction(k % 7 + 1, k % 5 + 1) * Fraction(3, k % 11 + 1)
        return time.process_time() - start

    @classmethod
    def calibrate(cls) -> float:
        return statistics.median(cls.loop() for _ in range(3))

    def recalibrate(self) -> float:
        """Calibrate again; return the factor for the work since the last."""
        self.samples.append(self.calibrate())
        return self.REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2)

    def factor(self) -> float:
        return self.REFERENCE_S / statistics.median(self.samples)


def import_program():
    """rigidcalc from the checkout's own source tree, and nowhere else."""
    sys.path.insert(0, str(SOURCE))
    import rigidcalc
    import rigidcalc.cli  # noqa: F401

    location = Path(rigidcalc.__file__).resolve()
    if SOURCE.resolve() not in location.parents:
        raise ImportError(f"rigidcalc was imported from {location}, not from {SOURCE}")
    return rigidcalc


def run_pass(rc, workload: str, seed: int, trace: bool, smoke: bool) -> dict:
    import tracer as tracing
    import workloads as wl

    items = wl.make_items(rc, workload, seed, smoke)
    wl.warm_up(rc, items, workload)
    setup_raw = time.process_time() - _STARTED
    speed = Speed()

    tracer = tracing.Tracer(f"{workload}-{seed}-{time.time_ns()}") if trace else wl.Paused()
    if trace:
        tracing.install(tracer)
        tracer.on = True
    run_item, check_item = wl.RUNNERS[workload]
    raw, scaled, pending, errors, failed = [], [], [], [], 0
    since = time.process_time()
    for number, item in enumerate(items, start=1):
        try:
            elapsed, output = run_item(rc, item, tracer)
        except Exception as exc:  # a program fault: count it, keep going
            failed += 1
            errors.append(f"{item.name}: raised {type(exc).__name__}: {exc}")
        else:
            raw.append(elapsed)
            pending.append(elapsed)
            with tracer.paused():
                errors.extend(f"{item.name}: {e}" for e in check_item(item, output))
        if number == len(items) or time.process_time() - since >= Speed.EVERY_S:
            with tracer.paused():
                factor = speed.recalibrate()
            scaled.extend(t * factor for t in pending)
            pending = []
            since = time.process_time()
    if trace:
        tracer.on = False
    result = {
        "setup_s": setup_raw * Speed.REFERENCE_S / speed.samples[0],
        "setup_raw_s": setup_raw,
        "run_s": sum(scaled),
        "run_raw_s": sum(raw),
        "item_s": scaled,
        "reference_s": speed.samples,
        "attempted": len(items),
        "failed": failed,
        "errors": errors,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        layers = tracer.metrics()
        missing = [name for name in wl.MUST_REACH[workload] if not layers.get(f"{name}.calls")]
        if missing:
            raise RuntimeError(
                f"traced {workload} pass shows zero calls of {', '.join(missing)}: "
                "a wrapper did not bind, or the workload no longer reaches it"
            )
        factor = speed.factor()
        result["layers"] = {k: v * factor if k.endswith("_s") else v for k, v in layers.items()}
        result["spans"] = tracer.spans
        result["run_id"] = tracer.run_id
    return result


def run_kernels(rc, seed: int, smoke: bool) -> dict:
    import kernels

    speed = Speed()
    cells = kernels.kernel_cells(rc, seed, smoke)
    speed.recalibrate()
    return {"kernels": {k: v * speed.factor() for k, v in cells.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--kernels", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    rc = import_program()
    if args.kernels:
        result = run_kernels(rc, args.seed, args.smoke)
    else:
        result = run_pass(rc, args.workload, args.seed, args.trace, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
