"""Spans recorded from outside the program, and the per-layer metrics.

The tracer replaces functions by name in the module where their callers look
them up at call time (``finprint.cli.load_dataset``, ``numpy.linalg.svd``,
...), so the program itself is not edited. A function that no longer exists
is skipped and every metric that depends on it is reported as absent. Spans
are kept in memory while the traced operations run and written out when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute, span name). The same function may be looked up in more
# than one module (validate_dataset is called from cli and from variance);
# each site is wrapped and both record under one span name.
TARGETS = (
    ("finprint.cli", "load_dataset", "io.load_dataset"),
    ("finprint.cli", "validate_dataset", "dataset.validate_dataset"),
    ("finprint.cli", "fit_optimal", "variance.fit_optimal"),
    ("finprint.variance", "validate_dataset", "dataset.validate_dataset"),
    ("finprint.dataset", "compute_sample_covariance", "dataset.compute_sample_covariance"),
    ("finprint.variance", "build_cache", "spectral.build_cache"),
    ("finprint.variance", "select_lambda", "variance.select_lambda"),
    ("finprint.variance", "evaluate_lambda", "variance.evaluate_lambda"),
    ("finprint.variance", "tls_fit", "tls.tls_fit"),
    ("finprint.inference", "build_fit_result", "inference.build_fit_result"),
)
# numpy.linalg re-exports these from a private module whose own functions
# (norm(x, 2) -> svd) call them through that module's globals; wrap both.
LINALG_MODULES = ("numpy.linalg", "numpy.linalg._linalg")
LINALG_FUNCTIONS = ("eigh", "eigvalsh", "svd")

# name -> (unit, better, span names the value is computed from). Time and
# call metrics are per operation: one CLI fit, or one Monte Carlo replicate.
# cli.main and simulate.* spans are opened by the benchmark's own loops.
PER_LAYER = {
    "io.load_dataset_s": ("s", "lower", ("io.load_dataset",)),
    "io.input_mb": ("MB", "lower", ()),
    "dataset.sample_cov_s": ("s", "lower", ("dataset.compute_sample_covariance",)),
    "dataset.sample_cov_calls": ("count", "lower", ("dataset.compute_sample_covariance",)),
    "dataset.validate_s": ("s", "lower", ("dataset.validate_dataset",)),
    "dataset.validate_calls": ("count", "lower", ("dataset.validate_dataset",)),
    "linalg.nn_decomp_calls": ("count", "lower", ("linalg.eigh", "linalg.eigvalsh")),
    "linalg.nn_decomp_s": ("s", "lower", ("linalg.eigh", "linalg.eigvalsh")),
    "linalg.small_eigh_calls": ("count", "lower", ("linalg.eigh", "linalg.eigvalsh")),
    "linalg.svd_calls": ("count", "lower", ("linalg.svd",)),
    "spectral.build_cache_s": ("s", "lower", ("spectral.build_cache",)),
    "spectral.build_cache_calls": ("count", "lower", ("spectral.build_cache",)),
    "variance.select_lambda_s": ("s", "lower", ("variance.select_lambda",)),
    "variance.evaluate_lambda_calls": ("count", "lower", ("variance.evaluate_lambda",)),
    "variance.feasible_ratio": ("ratio", "higher", ("variance.select_lambda",)),
    "tls.tls_fit_s": ("s", "lower", ("tls.tls_fit",)),
    "tls.tls_fit_calls": ("count", "lower", ("tls.tls_fit",)),
    "inference.build_fit_result_s": ("s", "lower", ("inference.build_fit_result",)),
    "simulate.generator_init_s": ("s", "lower", ("simulate.generator_init",)),
    "simulate.make_s": ("s", "lower", ("simulate.make",)),
    "simulate.replicate_ms_p50": ("ms", "lower", ("simulate.replicate",)),
    "simulate.replicate_ms_p95": ("ms", "lower", ("simulate.replicate",)),
    "simulate.failed_replicates": ("count", "lower", ("simulate.replicate",)),
    "cli.main_s": ("s", "lower", ("cli.main",)),
    "cli.self_s": ("s", "lower", ("cli.main",)),
    "trace.overhead_frac": ("ratio", "lower", ()),
}


class Tracer:
    """Records nested spans (name, start, end, parent, run id, shape)."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.missing: set[str] = set()
        self.found: set[str] = set()
        self.grid_points = 0
        self.feasible_points = 0
        self.curve_readable = True
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, name: str, shape=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, shape])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _wrap(self, fn, name: str, linalg: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, np.shape(args[0]) if linalg and args else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if name == "variance.select_lambda":
                self._observe_curve(result)
            return result

        return traced

    def _observe_curve(self, curve) -> None:
        feasible = getattr(curve, "feasible", None)
        if feasible is None:
            self.curve_readable = False
            return
        self.grid_points += len(feasible)
        self.feasible_points += int(np.count_nonzero(feasible))

    def _targets(self):
        yield from ((m, a, n, False) for m, a, n in TARGETS)
        for module in LINALG_MODULES:
            for fn in LINALG_FUNCTIONS:
                yield module, fn, f"linalg.{fn}", True

    def install(self) -> None:
        """Replace every target that exists; remember the originals."""
        originals = {}
        for module_name, attr, name, linalg in self._targets():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            self.found.add(name)
            # One wrapper per original function, so a call that passes
            # through two re-exports of the same function records one span.
            wrapper = originals.setdefault(id(fn), self._wrap(fn, name, linalg))
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def absent(self) -> set[str]:
        return self.missing - self.found

    def write(self, path: Path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "run_id", "shape"],
            "spans": [[n, s, e, p, r, list(sh) if sh is not None else None] for n, s, e, p, r, sh in self.spans],
        }
        path.write_text(json.dumps(doc))


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, n_ops: int, n_dim: int, extra: dict) -> tuple[dict, list[str]]:
    """Per-layer metric values, and the names whose spans do not exist.

    ``extra`` supplies what spans cannot: io.input_mb, trace.overhead_frac and
    simulate.failed_replicates. Absent metrics read 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_total: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    nn_calls = nn_time = small_eigh = 0.0
    for (name, start, end, _parent, _run, shape), own in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + own
        durations.setdefault(name, []).append(end - start)
        if name in ("linalg.eigh", "linalg.eigvalsh") and shape is not None:
            if len(shape) == 2 and shape[0] == shape[1] == n_dim:
                nn_calls += 1
                nn_time += end - start
            elif shape[-1] < n_dim:
                small_eigh += 1

    def per_op(value: float) -> float:
        return value / n_ops if n_ops else 0.0

    def pct(name: str, q: float) -> float:
        d = durations.get(name)
        return float(np.percentile(d, q)) * 1e3 if d else 0.0

    values = {
        "io.load_dataset_s": per_op(total.get("io.load_dataset", 0.0)),
        "io.input_mb": extra["io.input_mb"],
        "dataset.sample_cov_s": per_op(total.get("dataset.compute_sample_covariance", 0.0)),
        "dataset.sample_cov_calls": per_op(count.get("dataset.compute_sample_covariance", 0)),
        "dataset.validate_s": per_op(total.get("dataset.validate_dataset", 0.0)),
        "dataset.validate_calls": per_op(count.get("dataset.validate_dataset", 0)),
        "linalg.nn_decomp_calls": per_op(nn_calls),
        "linalg.nn_decomp_s": per_op(nn_time),
        "linalg.small_eigh_calls": per_op(small_eigh),
        "linalg.svd_calls": per_op(count.get("linalg.svd", 0)),
        "spectral.build_cache_s": per_op(total.get("spectral.build_cache", 0.0)),
        "spectral.build_cache_calls": per_op(count.get("spectral.build_cache", 0)),
        "variance.select_lambda_s": per_op(total.get("variance.select_lambda", 0.0)),
        "variance.evaluate_lambda_calls": per_op(count.get("variance.evaluate_lambda", 0)),
        "variance.feasible_ratio": (
            tracer.feasible_points / tracer.grid_points if tracer.grid_points else 0.0
        ),
        "tls.tls_fit_s": per_op(total.get("tls.tls_fit", 0.0)),
        "tls.tls_fit_calls": per_op(count.get("tls.tls_fit", 0)),
        "inference.build_fit_result_s": per_op(total.get("inference.build_fit_result", 0.0)),
        "simulate.generator_init_s": (
            float(np.median(durations["simulate.generator_init"]))
            if "simulate.generator_init" in durations
            else 0.0
        ),
        "simulate.make_s": per_op(total.get("simulate.make", 0.0)),
        "simulate.replicate_ms_p50": pct("simulate.replicate", 50),
        "simulate.replicate_ms_p95": pct("simulate.replicate", 95),
        "simulate.failed_replicates": extra["simulate.failed_replicates"],
        "cli.main_s": per_op(total.get("cli.main", 0.0)),
        "cli.self_s": per_op(self_total.get("cli.main", 0.0)),
        "trace.overhead_frac": extra["trace.overhead_frac"],
    }
    gone = tracer.absent() | set(extra.get("absent_spans", ()))
    if not tracer.curve_readable:
        gone.add("variance.select_lambda")
    absent = sorted(
        name
        for name, (_unit, _better, needs) in PER_LAYER.items()
        if needs and all(n in gone for n in needs)
    )
    for name in absent:
        values[name] = 0.0
    return values, absent
