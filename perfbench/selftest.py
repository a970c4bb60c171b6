#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of finprint).

    python3 perfbench/selftest.py

Checks that a malformed input counts as one failed operation, that self time
comes out right on synthetic nested spans, that a removed function marks its
metrics absent instead of crashing, that the output checks reject wrong
reports, that mc_paper's speed scaling does its arithmetic right, and that
BENCHMARK.json lists what the code reports. Prints one line
per check and exits non-zero if any fails.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import ENSEMBLE_SIZES, WORKLOADS, Workload, build_inputs  # noqa: E402

failures = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    if not ok:
        failures.append(name)


def test_malformed_manifest_is_one_failed_op(workdir: Path) -> None:
    small = Workload("small", 8, 6, 100, 0.1, "control_runs")
    build_inputs(small, 5, workdir)
    y = workdir / "y.txt"
    lines = y.read_text().splitlines()
    y.write_text("\n".join(["nan"] + lines[1:]) + "\n")
    tally = worker.Tally()
    worker.measure_fit(small, workdir, 0.0, 0, tracing.Tracer(), tally)
    expect(
        "NaN in y exits 2 and counts as one failed operation",
        tally.attempted == 1 and tally.failed_ops == {0} and "code 2" in tally.messages[0],
        f"attempted={tally.attempted} failed={sorted(tally.failed_ops)} messages={tally.messages}",
    )


def test_self_time() -> None:
    spans = [
        ["root", 0.0, 10.0, None, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["a.1", 2.0, 3.0, 1, 0, None],
        ["b", 5.0, 7.0, 0, 0, None],
        ["overlap", 6.0, 8.0, 0, 0, None],
        ["past_end", 9.5, 11.0, 0, 0, None],
    ]
    got = tracing.self_times(spans)
    # root: 10 minus the union of [1,4], [5,8] and [9.5,10] = 10 - 6.5
    want = [3.5, 2.0, 1.0, 2.0, 2.0, 1.5]
    expect("self time of synthetic nested spans", np.allclose(got, want), f"got {got}, want {want}")


def test_absent_function_is_marked() -> None:
    from finprint import variance

    original = variance.evaluate_lambda
    del variance.evaluate_lambda
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.restore()
    finally:
        variance.evaluate_lambda = original
    extra = {"io.input_mb": 0.0, "simulate.failed_replicates": 0.0, "trace.overhead_frac": 0.0}
    values, absent = tracing.layer_metrics(tracer, 1, 48, extra)
    expect(
        "a removed function marks its metrics absent",
        absent == ["variance.evaluate_lambda_calls"] and values["variance.evaluate_lambda_calls"] == 0.0,
        f"absent={absent}",
    )


def test_linalg_classification() -> None:
    tracer = tracing.Tracer()
    tracer.spans = [
        ["linalg.eigvalsh", 0.0, 2.0, None, 0, (48, 48)],
        ["linalg.eigh", 2.0, 3.0, None, 0, (48, 48)],
        ["linalg.eigh", 3.0, 3.5, None, 0, (3, 3)],
        ["linalg.svd", 3.5, 4.0, None, 0, (2, 2)],
    ]
    extra = {"io.input_mb": 0.0, "simulate.failed_replicates": 0.0, "trace.overhead_frac": 0.0}
    values, _ = tracing.layer_metrics(tracer, 2, 48, extra)
    got = [values[k] for k in ("linalg.nn_decomp_calls", "linalg.nn_decomp_s", "linalg.small_eigh_calls", "linalg.svd_calls")]
    expect("linalg calls are split by shape and counted per operation", got == [1.0, 1.5, 0.5, 0.5], f"got {got}")


def test_checks_reject_wrong_reports(workdir: Path) -> None:
    from finprint import cli

    small = Workload("small", 8, 6, 100, 0.1, "sample_cov")
    build_inputs(small, 6, workdir)
    out = workdir / "report.json"
    code = cli.main(["fit", str(workdir / "manifest.json"), "--output", str(out)])
    doc = json.loads(out.read_text())
    reference = dict(np.load(workdir / "reference.npz"))
    clean = checks.check_fit_report(doc, reference, ENSEMBLE_SIZES, small.m_runs)
    expect("a correct report passes the output checks", code == 0 and clean == [], f"{clean}")

    bent = json.loads(out.read_text())
    bent["beta_hat"][0] *= 1.0 + 1e-4
    expect("a perturbed beta_hat fails the dense reference", len(checks.check_fit_report(bent, reference, ENSEMBLE_SIZES, small.m_runs)) == 1)

    moved = json.loads(out.read_text())
    i = moved["lambda_curve"]["chosen_index"]
    moved["lambda_opt"] = moved["lambda_curve"]["lambda"][i - 1 if i else i + 1]
    expect("a lambda_opt off the argmin fails", len(checks.check_fit_report(moved, reference, ENSEMBLE_SIZES, small.m_runs)) >= 1)

    lo, hi = checks.coverage_band(500, 0.05)
    expect(
        "coverage band holds nominal coverage and rejects 0.85",
        checks.check_coverage([475, 470], 500, 0.05) == [] and len(checks.check_coverage([425, 475], 500, 0.05)) == 1,
        f"band [{lo:.3f}, {hi:.3f}] at n=500",
    )
    expect(
        "coverage band rejects full coverage from 310 replicates on",
        all(len(checks.check_coverage([n, n], n, 0.05)) == 2 for n in (310, 500, 800)),
        f"upper ends {[round(checks.coverage_band(n, 0.05)[1], 4) for n in (310, 500, 800)]}",
    )


def test_speed_scaling() -> None:
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    probe.times[:] = [ref, ref]
    same = probe.scale(3.0)
    probe.times[:] = [ref, 2 * ref, 4 * ref]
    slow = probe.scale(3.0)
    expect(
        "speed scaling keeps a time at the reference speed and divides by the mean of the last two kernel times",
        abs(same - 3.0) < 1e-12 and abs(slow - 1.0) < 1e-12,
        f"got {same}, {slow}",
    )


def test_benchmark_json_matches_code() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    code_layer = {name: (unit, better) for name, (unit, better, _) in tracing.PER_LAYER.items()}
    expect("BENCHMARK.json per_layer matches tracer.PER_LAYER", per_layer == code_layer)
    expect(
        "BENCHMARK.json workloads are the ones run.py gates",
        [w["name"] for w in doc["workloads"]] == list(run.GATED) and set(run.WORKLOADS) == set(WORKLOADS),
    )
    expect(
        "BENCHMARK.json end_to_end names",
        sorted(m["name"] for m in doc["end_to_end"]) == ["fit_s", "mc_reps_per_s", "peak_rss_mb", "setup_s"],
    )


def main() -> int:
    workdir = run.STATE / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for i, test in enumerate((test_malformed_manifest_is_one_failed_op, test_checks_reject_wrong_reports)):
            (workdir / str(i)).mkdir(parents=True)
            test(workdir / str(i))
        test_self_time()
        test_absent_function_is_marked()
        test_linalg_classification()
        test_speed_scaling()
        test_benchmark_json_matches_code()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all harness checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
