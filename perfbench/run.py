#!/usr/bin/env python3
"""Benchmark of finprint as its users run it: ``finprint fit`` on a dataset
manifest, and a seeded ``run_scenario`` coverage study.

    python3 perfbench/run.py --workload fit_controls --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every gated workload in turn

Every role runs in a fresh child interpreter with ``src`` on its path and
BLAS threads capped at the number of usable cores (one for mc_paper): one
child builds the inputs from the seed, a few only import finprint (set-up
time), and one measures. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from spans recorded around finprint's
functions. The last line of standard output is one JSON object; the exit
code is non-zero when any operation failed or any output check did not
pass. Working files and the per-run records live in ``.perfbench/`` at the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SNAPSHOT = HERE / "snapshot.json"

# BENCHMARK.json gates the first two; fit_samplecov only runs when named
# (see README.md for why it is not gated).
GATED = ("mc_paper", "fit_controls")
WORKLOADS = GATED + ("fit_samplecov",)
DEFAULT_SEED = 1  # results at this seed must match snapshot.json
# Interpreters started per run whose import time is a setup_s sample: the
# child that writes the inputs, these probes, and the measuring child.
SETUP_PROBES = 6
# Every child of one run must finish within the measuring window plus this
# many seconds: input writing, import probes, the last operation's overrun
# and the output checks.
RUN_MARGIN_S = 100
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads per workload; the rest get one per usable core. mc_paper's
# matrices are 48 x 48, too small to split: with a second thread OpenBLAS
# only spins on the other core (CPU time twice the wall time) and the run
# times the scheduler. One thread is how a replicate stream runs when a
# study fans out one process per core.
BLAS_THREADS = {"mc_paper": 1}


class ChildFailed(RuntimeError):
    pass


def child_env(workload: str, workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    threads = str(BLAS_THREADS.get(workload, len(os.sched_getaffinity(0))))
    for var in BLAS_THREAD_VARS:
        env[var] = threads
    return env


def spawn(args: list, env: dict, log, deadline: float) -> float:
    """Run one worker to completion; return the monotonic time it was spawned."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    try:
        code = proc.wait(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"worker {args[0]} did not finish before the run's deadline")
    if code != 0:
        raise ChildFailed(f"worker {args[0]} exited with code {code}")
    return spawned


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    workdir = STATE / f"run-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(workload, workdir)
    deadline = time.monotonic() + seconds + RUN_MARGIN_S
    log_path = workdir / "children.log"
    try:
        with open(log_path, "w") as log:
            setup = []
            inputs = workdir / "inputs.json"
            spawned = spawn(["prepare", inputs, workload, seed, workdir], env, log, deadline)
            setup.append(json.loads(inputs.read_text())["imported_at"] - spawned)
            for i in range(SETUP_PROBES):
                probe = workdir / f"probe{i}.json"
                spawned = spawn(["probe", probe], env, log, deadline)
                setup.append(json.loads(probe.read_text())["imported_at"] - spawned)
            out = workdir / "measure.json"
            snapshot = SNAPSHOT if seed == DEFAULT_SEED and SNAPSHOT.exists() else "-"
            spawned = spawn(["measure", out, workload, seed, workdir, seconds, trace, snapshot], env, log, deadline)
            result = json.loads(out.read_text())
            setup.append(result["imported_at"] - spawned)
        if not trace:
            result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s", "samples": len(setup)}
        results = STATE / "results"
        results.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{trace}"
        if (workdir / "spans.json").exists():
            shutil.move(workdir / "spans.json", results / f"{stem}.spans.json")
        result.update(workload=workload, seed=seed, seconds=seconds, trace=trace, setup_samples_s=setup)
        (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
        return result
    except ChildFailed:
        tail = log_path.read_text().splitlines()[-20:] if log_path.exists() else []
        sys.stderr.write("\n".join(tail) + "\n")
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def describe(result: dict) -> list[str]:
    env = result["env"]
    commit = (env["commit"] or "not a git checkout")[:12]
    lines = [
        f"finprint benchmark: workload={result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} trace={result['trace']}",
        f"  environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"{env['blas']}, nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
        f"commit {commit}, source sha256 {env['source_sha256'][:12]}",
    ]
    for name, m in sorted(result["metrics"].items()):
        lines.append(f"  {name:<32} {m['value']:>14.6g} {m['unit']:<6} ({m['samples']} samples)")
    raw, kernel = result["samples_s"]["untraced"], result["speed_kernel_s"]
    if kernel:
        lines.append(
            f"  fit_s and mc_reps_per_s are at the reference machine speed (speed.py): "
            f"unscaled fit_s {statistics.median(raw):.6g} s, speed kernel median {statistics.median(kernel):.6g} s"
        )
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"  {'failed_frac':<32} {failed / attempted:>14.6g} {'ratio':<6} ({failed} of {attempted} operations)")
    if result["absent"]:
        lines.append("  absent (read 0, the traced function no longer exists): " + ", ".join(result["absent"]))
    lines += [f"  FAILED: {msg}" for msg in result["failures"]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True, help=f"all runs {', '.join(GATED)}"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "finprint" / "__init__.py").is_file():
        print(f"error: no finprint sources under {SRC}", file=sys.stderr)
        return 2

    # Each workload prints its table and then its result line, so with one
    # workload the last line is that workload's result.
    names = GATED if args.workload == "all" else (args.workload,)
    all_passed = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(result)), flush=True)
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()}
        correct = result["failed"] == 0
        line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
        print(json.dumps(line), flush=True)
        all_passed &= correct
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
