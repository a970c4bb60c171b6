#!/usr/bin/env python3
"""One child process of the benchmark; every role runs in a fresh interpreter.

    worker.py probe   OUT
    worker.py prepare OUT WORKLOAD SEED DIR
    worker.py measure OUT WORKLOAD SEED DIR SECONDS TRACE SNAPSHOT

Each role writes one JSON document to OUT. ``imported_at`` in it is the
CLOCK_MONOTONIC time at which ``import finprint`` returned; the parent
subtracts the time it spawned the process to get the set-up time.
"""

import time

import finprint  # the import whose duration setup_s measures

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not Path(finprint.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"finprint was imported from {finprint.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    ALPHA,
    BATCH_REPLICATES,
    SNAPSHOT_REPLICATES,
    TRUE_BETA,
    WORKLOADS,
    build_inputs,
    derived_seed,
    scenario,
)

MAX_FAILURE_MESSAGES = 10


class Tally:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.messages: list[str] = []

    def new_op(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, reason: str) -> None:
        self.failed_ops.add(op)
        if reason not in self.messages and len(self.messages) < MAX_FAILURE_MESSAGES:
            self.messages.append(reason)


def no_span(_name):
    return contextlib.nullcontext()


def run_cli_fit(cli, manifest: Path, out: Path) -> str | None:
    """One in-process ``finprint fit``; the reason it failed, or None."""
    try:
        code = cli.main(["fit", str(manifest), "--output", str(out)])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an escaping error is a failed operation, not a benchmark crash
        return "fit raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    return None if code == 0 else f"fit exited with code {code}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_fit(wl, directory, seconds, trace, tracer, tally):
    from finprint import cli

    manifest = directory / "manifest.json"
    out = directory / "report.json"
    times = {False: [], True: []}
    reports: dict[bytes, list[int]] = {}
    first = None
    start = time.perf_counter()
    while tally.attempted < 1 + trace or time.perf_counter() - start < seconds:
        traced = bool(trace) and tally.attempted % 2 == 1
        op = tally.new_op()
        out.unlink(missing_ok=True)
        span = no_span
        if traced:
            tracer.run_id = op
            tracer.install()
            span = tracer.span
        t0 = time.perf_counter()
        try:
            with span("cli.main"):
                problem = run_cli_fit(cli, manifest, out)
        finally:
            elapsed = time.perf_counter() - t0
            tracer.restore()
        times[traced].append(elapsed)
        if problem is None:
            report = out.read_bytes()
            first = report if first is None else first
            if report != first:
                problem = "fit report differs from the first run's; reruns must be byte-identical"
            reports.setdefault(report, []).append(op)
        if problem:
            tally.fail(op, problem)
    rss = peak_rss_mb()

    reference = dict(np.load(directory / "reference.npz"))
    sizes = json.loads(manifest.read_text())["ensemble_sizes"]
    for report, ops in reports.items():
        problems = checks.check_fit_report(json.loads(report), reference, sizes, wl.m_runs)
        for op in ops:
            for problem in problems:
                tally.fail(op, problem)
    digest = {}
    if first is not None:
        doc = json.loads(first)
        digest = {
            "beta_hat": doc["beta_hat"],
            "lambda_opt": doc["lambda_opt"],
            "trace_xi": doc["trace_xi"],
            "ci": [[f["ci_lower"], f["ci_upper"]] for f in doc["forcings"]],
        }
    return {
        "times": times,
        "rss": rss,
        "digest": digest,
        "digest_ops": [op for ops in reports.values() for op in ops],
    }


def measure_mc_untraced(wl, seed, seconds, tally):
    """Repeated run_scenario calls, each on fresh replicates of its own seed.

    The first call uses the benchmark seed itself, so its replicates are the
    ones the snapshot and the traced run see.
    """
    import finprint as fp

    times, scaled, digest, digest_ops = [], [], {}, []
    probe = speed.SpeedProbe()
    covered = np.zeros(len(TRUE_BETA), dtype=int)
    n_ok = 0
    call = 0
    start = time.perf_counter()
    probe.run()
    while call < 1 or time.perf_counter() - start < seconds:
        base = seed if call == 0 else derived_seed(seed, 2, call)
        scn = scenario(wl, seed, BATCH_REPLICATES, base_seed=base)
        t0 = time.perf_counter()
        report = fp.run_scenario(scn, jobs=1)
        elapsed = time.perf_counter() - t0
        probe.run()
        times.append(elapsed / BATCH_REPLICATES)
        scaled.append(probe.scale(elapsed) / BATCH_REPLICATES)
        ops = [tally.new_op() for _ in range(BATCH_REPLICATES)]
        records = sorted(report.replicates, key=lambda r: r.index)
        if len(records) != BATCH_REPLICATES:
            for op in ops:
                tally.fail(op, f"run_scenario returned {len(records)} of {BATCH_REPLICATES} replicates")
        for op, rec in zip(ops, records):
            if not rec.ok:
                tally.fail(op, f"replicate failed: {rec.error}")
                continue
            n_ok += 1
            covered += np.asarray(rec.covered, dtype=int)
        if call == 0:
            head = records[:SNAPSHOT_REPLICATES]
            digest = {"replicates": [_row(r.lambda_opt, r.beta_hat, r.ci_lower, r.ci_upper) if r.ok else None for r in head]}
            digest_ops = ops[:SNAPSHOT_REPLICATES]
        call += 1
    rss = peak_rss_mb()
    for problem in checks.check_coverage(covered.tolist(), n_ok, ALPHA):
        for op in range(tally.attempted):
            tally.fail(op, problem)
    return {
        "times": {False: times, True: []},
        "scaled": scaled,
        "speed_kernel_s": probe.times,
        "rss": rss,
        "digest": digest,
        "digest_ops": digest_ops,
    }


def _row(lambda_opt, beta_hat, ci_lower, ci_upper) -> list[float]:
    """One replicate's digest: lambda_opt, then beta_hat, lower and upper CI ends."""
    return [float(v) for v in (lambda_opt, *beta_hat, *ci_lower, *ci_upper)]


def measure_mc_traced(wl, seed, seconds, tracer, tally):
    """Batches of replicates driven through ReplicateGenerator.make + fit_optimal.

    Untraced and traced batches alternate over the same replicates, so every
    traced batch does identical work and per-replicate counts repeat exactly.
    """
    import finprint as fp
    from finprint import variance

    generator = getattr(fp.simulate, "ReplicateGenerator", None)
    options = fp.FitOptions(alpha=ALPHA)
    scn = scenario(wl, seed, BATCH_REPLICATES)
    times = {False: [], True: []}
    first_rows = None
    failed_traced = 0
    batch = 0
    start = time.perf_counter()
    while batch < 2 or time.perf_counter() - start < seconds:
        traced = batch % 2 == 1
        span = tracer.span if traced else no_span
        if traced:
            tracer.install()
        rows = []
        try:
            with span("simulate.generator_init"):
                gen = generator(scn) if generator is not None else None
            for i in range(BATCH_REPLICATES):
                op = tally.new_op()
                tracer.run_id = op
                t0 = time.perf_counter()
                try:
                    with span("simulate.replicate"):
                        with span("simulate.make"):
                            ds = gen.make(i) if gen is not None else fp.generate_replicate(scn, i)
                        with span("variance.fit_optimal"):
                            fit = variance.fit_optimal(ds, options)
                    lower, upper = zip(*fit.intervals)
                    rows.append(_row(fit.lambda_opt, fit.beta_hat, lower, upper))
                except fp.FinprintError as exc:
                    rows.append(None)
                    tally.fail(op, f"replicate failed: {type(exc).__name__}: {exc}")
                    failed_traced += traced
                times[traced].append(time.perf_counter() - t0)
                if first_rows is not None and rows[-1] != first_rows[i]:
                    tally.fail(op, "replicate result changed between batches; tracing must not alter results")
        finally:
            tracer.restore()
        first_rows = rows if first_rows is None else first_rows
        batch += 1
    return {
        "times": times,
        "digest": {"replicates": first_rows[:SNAPSHOT_REPLICATES]},
        "digest_ops": list(range(SNAPSHOT_REPLICATES)),
        "failed_per_batch": failed_traced / (batch // 2),
        "absent_spans": [] if generator is not None else ["simulate.generator_init"],
    }


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(workload: str, seed: int, directory: Path, seconds: float, trace: int, snapshot: str) -> dict:
    wl = WORKLOADS[workload]
    info = json.loads((directory / "inputs.json").read_text())
    tracer = tracing.Tracer()
    tally = Tally()
    if wl.kind != "mc":
        result = measure_fit(wl, directory, seconds, trace, tracer, tally)
    elif trace:
        result = measure_mc_traced(wl, seed, seconds, tracer, tally)
    else:
        result = measure_mc_untraced(wl, seed, seconds, tally)

    if snapshot != "-":
        stored = json.loads(Path(snapshot).read_text()).get(workload)
        if stored is not None:
            for problem in checks.compare_snapshot(result["digest"], stored):
                for op in result["digest_ops"]:
                    tally.fail(op, problem)

    untraced = result["times"][False]
    if trace:
        traced = result["times"][True]
        extra = {
            "io.input_mb": info["input_mb"],
            "simulate.failed_replicates": result.get("failed_per_batch", 0.0),
            "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
            "absent_spans": result.get("absent_spans", []),
        }
        values, absent = tracing.layer_metrics(tracer, len(traced), wl.n_dim, extra)
        metrics = {
            name: {"value": values[name], "unit": unit, "samples": len(traced)}
            for name, (unit, _better, _needs) in tracing.PER_LAYER.items()
        }
        tracer.write(directory / "spans.json")
    else:
        # mc_paper's times are at the reference machine speed (speed.py); its
        # raw wall times stay in the record and the table.
        absent = []
        scaled = result.get("scaled", untraced)
        metrics = {
            "fit_s": {"value": statistics.median(scaled), "unit": "s", "samples": len(scaled)},
            "mc_reps_per_s": {
                "value": len(scaled) / sum(scaled),
                "unit": "1/s",
                "samples": len(scaled) * (BATCH_REPLICATES if wl.kind == "mc" else 1),
            },
            "peak_rss_mb": {"value": result["rss"], "unit": "MB", "samples": 1},
        }
    return {
        "attempted": tally.attempted,
        "failed": len(tally.failed_ops),
        "failures": tally.messages,
        "metrics": metrics,
        "absent": absent,
        "digest": result["digest"],
        "inputs": info,
        "samples_s": {"untraced": untraced, "traced": result["times"][True], "scaled": result.get("scaled", [])},
        "speed_kernel_s": result.get("speed_kernel_s", []),
        "env": environment(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    roles = parser.add_subparsers(dest="role", required=True)
    roles.add_parser("probe").add_argument("out")
    prepare = roles.add_parser("prepare")
    measure_p = roles.add_parser("measure")
    for sub in (prepare, measure_p):
        sub.add_argument("out")
        sub.add_argument("workload", choices=sorted(WORKLOADS))
        sub.add_argument("seed", type=int)
        sub.add_argument("dir", type=Path)
    measure_p.add_argument("seconds", type=float)
    measure_p.add_argument("trace", type=int, choices=(0, 1))
    measure_p.add_argument("snapshot", help="snapshot file to compare with, or - to skip")
    args = parser.parse_args()

    doc = {"imported_at": IMPORTED_AT}
    if args.role == "prepare":
        doc.update(build_inputs(WORKLOADS[args.workload], args.seed, args.dir))
    elif args.role == "measure":
        doc.update(measure(args.workload, args.seed, args.dir, args.seconds, args.trace, args.snapshot))
    Path(args.out).write_text(json.dumps(doc))


if __name__ == "__main__":
    main()
