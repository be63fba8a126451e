"""Spans at the module boundaries of rigidcalc, recorded from outside it.

``install`` wraps the public functions and methods of each module of the
package.  A module-level function is rebound in every rigidcalc module that
holds it, so a name imported with ``from .monodromy import ...`` is traced
too; a method is replaced on its class.  Each call of a span-wrapped
function records (id, parent id, name, start, end) under one run id, and
its self time is its duration minus the time its child spans cover.  Spans
are timed in CPU seconds of the process, like the items of a pass.  The
hottest cyclotomic operations are only counted: a span per field operation
would cost more than the operation.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

ELIMINATIONS = ("linalg.rank", "linalg.rref", "linalg.inverse")

# (module, function, span name)
FUNCTION_SPANS = (
    ("monodromy", "is_absolutely_irreducible", "monodromy.burnside"),
    ("monodromy", "centralizer_dim", "monodromy.centralizer_dim"),
    ("monodromy", "jordan_type", "monodromy.jordan_type"),
    ("monodromy", "rigidity_index", "monodromy.rigidity_index"),
    ("monodromy", "certify_regular", "monodromy.certify_regular"),
    ("convolution", "build_F", "convolution.build_F"),
    ("convolution", "middle_convolution", "convolution.middle_convolution"),
    ("convolution", "katz_reduce_step", "convolution.katz_reduce_step"),
    ("convolution", "katz_reduce", "convolution.katz_reduce"),
    ("convolution", "tensor_rank_one", "convolution.tensor_rank_one"),
    ("hypergeometric", "hypergeometric_tuple", "hypergeometric.build"),
    ("hypergeometric", "from_multiplicity_function", "hypergeometric.from_multiplicity"),
    ("purity", "weil_check", "purity.weil_check"),
    ("purity", "functional_equation_check", "purity.functional_equation"),
    ("purity", "magnitude_check", "purity.magnitude"),
    ("serialization", "tuple_from_json", "serialization.parse"),
    ("serialization", "multiplicity_from_json", "serialization.parse"),
    ("serialization", "weil_coeffs_from_json", "serialization.parse"),
    ("serialization", "parse_root_of_unity", "serialization.parse"),
    ("serialization", "parse_scalar", "serialization.parse"),
    ("serialization", "parse_integer_polynomial", "serialization.parse"),
    ("serialization", "canonical_dumps", "serialization.emit"),
    ("serialization", "tuple_to_json", "serialization.emit"),
    ("serialization", "jordan_to_json", "serialization.emit"),
    ("serialization", "trace_to_json", "serialization.emit"),
    ("cli", "main", "cli.main"),
)


def _height_bits(values) -> int:
    best = 0
    for value in values:
        for c in value.coeffs:
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    """Spans, call counts and self times of one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.on = False
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.spans: list[tuple] = []
        self.elim_cells = 0
        self.max_height_bits = 0
        self.bytes_out = 0
        self._stack: list[list] = []  # [span id, child seconds, name]
        self._ids = 0

    @contextlib.contextmanager
    def paused(self):
        saved, self.on = self.on, False
        try:
            yield
        finally:
            self.on = saved

    def span(self, name: str, fn, skip=None, after=None):
        """Wrap fn so each call records a span; ``after(args, result)`` runs
        outside every span's time."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on or (skip is not None and skip(args)):
                return fn(*args, **kwargs)
            stack = tracer._stack
            tracer._ids += 1
            frame = [tracer._ids, 0.0, name]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                stack.pop()
            duration = end - start
            hook = 0.0
            if after is not None:
                after(args, result)
                hook = time.process_time() - end
            tracer.counts[name] += 1
            tracer.self_s[name] += duration - frame[1]
            if not any(f[2] == name for f in stack):
                tracer.total_s[name] += duration
            if stack:
                stack[-1][1] += duration + hook
            tracer.spans.append((frame[0], parent, name, start, end))
            return result

        return wrapper

    def counter(self, name: str, fn, extra=None):
        """Wrap fn so each call is counted; ``extra(args)`` may count more."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.on:
                counts[name] += 1
                if extra is not None:
                    extra(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks --------------------------------------------------------------

    def _outermost_elimination(self) -> bool:
        return not any(f[2] in ELIMINATIONS for f in self._stack)

    def _after_rank(self, args, result):
        if self._outermost_elimination():
            self.elim_cells += args[0].rows * args[0].cols

    def _after_rref(self, args, result):
        if self._outermost_elimination():
            self.elim_cells += args[0].rows * args[0].cols
        self.max_height_bits = max(self.max_height_bits, _height_bits(result[0].entries))

    def _after_inverse(self, args, result):
        if self._outermost_elimination():
            self.elim_cells += 2 * args[0].rows * args[0].cols
        self.max_height_bits = max(self.max_height_bits, _height_bits(result.entries))

    def _after_kernel(self, args, result):
        self.max_height_bits = max(
            self.max_height_bits, max((_height_bits(v) for v in result), default=0)
        )

    def _after_dumps(self, args, result):
        self.bytes_out += len(result.encode("utf-8"))

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, calls in self.counts.items():
            out[f"{name}.calls"] = calls
        for name, seconds in self.self_s.items():
            out[f"{name}.self_s"] = seconds
            out[f"{name}.total_s"] = self.total_s[name]
            layer = name.split(".")[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + seconds
        out["linalg.elim_cells"] = self.elim_cells
        out["linalg.max_height_bits"] = self.max_height_bits
        out["serialization.bytes_out"] = self.bytes_out
        out["trace.spans"] = len(self.spans)
        return out


def _rebind(original, wrapper) -> int:
    # Replace every reference a rigidcalc module holds to ``original``.
    found = 0
    for module_name, module in list(sys.modules.items()):
        if module_name != "rigidcalc" and not module_name.startswith("rigidcalc."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                found += 1
    return found


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the already imported rigidcalc package."""
    import rigidcalc  # noqa: F401  (loads every module below)
    from rigidcalc import cyclotomic, linalg, monodromy

    for module_name, function, name in FUNCTION_SPANS:
        original = getattr(sys.modules[f"rigidcalc.{module_name}"], function)
        after = tracer._after_dumps if function == "canonical_dumps" else None
        if _rebind(original, tracer.span(name, original, after=after)) == 0:
            raise RuntimeError(f"could not rebind rigidcalc.{module_name}.{function}")

    cyc = cyclotomic.CycNumber

    def nonrational(args):
        a, b = args
        if isinstance(b, cyc) and not a.is_rational() and not b.is_rational():
            tracer.counts["cyclotomic.mul_nonrational"] += 1

    _patch(cyc, ("__add__", "__radd__"), tracer.counter("cyclotomic.add", cyc.__add__))
    _patch(cyc, ("__mul__", "__rmul__"),
           tracer.counter("cyclotomic.mul", cyc.__mul__, extra=nonrational))
    _patch(cyc, ("inverse",), tracer.counter("cyclotomic.inverse", cyc.inverse))
    _patch(cyc, ("__init__",), tracer.counter("cyclotomic.new", cyc.__init__))
    _patch(cyc, ("embed",), tracer.counter("cyclotomic.embed", cyc.embed))

    mat = linalg.ExactMatrix
    _patch(mat, ("rank",), tracer.span("linalg.rank", mat.rank, after=tracer._after_rank))
    _patch(mat, ("rref",), tracer.span("linalg.rref", mat.rref, after=tracer._after_rref))
    _patch(mat, ("inverse",),
           tracer.span("linalg.inverse", mat.inverse, after=tracer._after_inverse))
    _patch(mat, ("kernel_basis",),
           tracer.span("linalg.kernel_basis", mat.kernel_basis, after=tracer._after_kernel))
    _patch(mat, ("__mul__", "__matmul__"),
           tracer.span("linalg.matmul", mat.__mul__, skip=lambda a: not isinstance(a[1], mat)))

    tup = monodromy.MonodromyTuple
    _patch(tup, ("__init__",), tracer.span("monodromy.tuple_init", tup.__init__))


def _patch(cls, names, wrapper) -> None:
    for name in names:
        if name not in vars(cls):
            raise RuntimeError(f"{cls.__name__}.{name} is gone; the trace cannot bind it")
        setattr(cls, name, wrapper)
