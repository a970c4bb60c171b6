"""Batch command-line front end.

Subcommands: ``fit`` (estimate scaling factors from a dataset manifest;
its report holds the whole regularization search under ``lambda_curve``),
``simulate`` (run a Monte Carlo scenario), ``version``. Exit codes:
0 success, 2 input/validation problem, 3 no feasible regularization level,
4 internal numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import as_count, validate_dataset
from .errors import FinprintError, InputError, NoFeasiblePoint
from .inference import FitResult
from .io import load_dataset, manifest_input_paths
from .simulate import SimulationReport, SimulationScenario, load_scenario, run_scenario, scenario_to_dict
from .variance import DEFAULT_BOUNDS, FitOptions, fit_optimal

__all__ = ["main", "entry_point"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_FEASIBLE = 3
EXIT_NUMERIC = 4

_INPUT_ERRORS = (InputError, OSError)
# Anything else that escapes a command is a failure of the computation,
# not of its input.
_NUMERIC_ERRORS = (FinprintError, np.linalg.LinAlgError, FloatingPointError, ValueError, MemoryError)


def _sha256(path: Path) -> str:
    """The file's sha256, read in fixed blocks so that no input is held whole."""
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(partial(f.read, 1 << 18), b""):
            digest.update(block)
    return digest.hexdigest()


def _provenance(options: FitOptions, input_files) -> dict:
    return {
        "package": "finprint",
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in map(Path, input_files)},
        "grid": {
            "size": options.grid_size,
            "lambda_min": options.lambda_min,
            "lambda_max": options.lambda_max,
            "objective": "trace",
        },
        "alpha": options.alpha,
    }


def _number(value) -> float | None:
    """``value`` as a JSON number, or None (null) when it is not finite."""
    return float(value) if np.isfinite(value) else None


def _curve_doc(result: FitResult) -> dict:
    curve = result.curve
    return {
        "lambda": [float(v) for v in curve.grid],
        "trace_xi": [_number(v) for v in curve.objective],
        "feasible": [bool(f) for f in curve.feasible],
        "reason": list(curve.reason),
        "chosen_index": int(curve.chosen_index),
        "chosen_lambda": float(curve.chosen_lambda),
    }


def _fit_doc(result: FitResult, ds, warnings: tuple[str, ...], options: FitOptions, manifest: str) -> dict:
    curve = result.curve
    forcings = [
        {
            "index": i,
            "beta_hat": float(result.beta_hat[i]),
            "ci_lower": float(result.intervals[i][0]),
            "ci_upper": float(result.intervals[i][1]),
            "detected": result.verdicts[i].detected,
            "attributed": result.verdicts[i].attributed,
        }
        for i in range(result.beta_hat.shape[0])
    ]
    return {
        "beta_hat": [float(b) for b in result.beta_hat],
        "lambda_opt": float(result.lambda_opt),
        "xi_hat": [[float(v) for v in row] for row in result.xi_hat],
        "trace_xi": float(np.trace(result.xi_hat)),
        "alpha": result.alpha,
        "n_dim": ds.n_dim,
        "n_forcings": ds.n_forcings,
        "m_runs": ds.m_runs,
        "tau_bar": ds.tau_bar,
        "forcings": forcings,
        "lambda_curve": _curve_doc(result),
        "diagnostics": {
            "k_hat": float(curve.k_hat[curve.chosen_index]),
            "stability_margin": float(curve.stability[curve.chosen_index]),
            "n_infeasible_grid_points": int((~curve.feasible).sum()),
            "n_near_degenerate_grid_points": curve.n_near_degenerate,
            "validation_warnings": list(warnings),
        },
        "provenance": _provenance(options, manifest_input_paths(manifest)),
    }


def _write(text: str, output: str | None) -> None:
    """Write ``text`` to the ``--output`` path, or to stdout without one."""
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _json(doc: dict) -> str:
    """A report as strict JSON: a NaN or infinity raises rather than being written."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _fit_options(args: argparse.Namespace) -> FitOptions:
    """FitOptions from the fit flags that were given; their dests are its field names."""
    given = {f.name: getattr(args, f.name) for f in fields(FitOptions) if getattr(args, f.name) is not None}
    return FitOptions(**given)


def cmd_fit(args: argparse.Namespace) -> int:
    options = _fit_options(args)
    ds = load_dataset(args.input)
    warnings = validate_dataset(ds)
    result = fit_optimal(ds, options)
    _write(_json(_fit_doc(result, ds, warnings, options, args.input)), args.output)
    # Only a fit that succeeds warns, so a failed one ends in its one error line.
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def _replicate_table(report: SimulationReport, p: int) -> str:
    cols = ["replicate", "lambda_opt"]
    for i in range(p):
        cols += [f"beta_hat_{i}", f"ci_lower_{i}", f"ci_upper_{i}", f"covered_{i}"]
    cols.append("error")
    lines = ["# " + "\t".join(cols)]
    for rec in report.replicates:
        if rec.ok:
            cells = [str(rec.index), repr(rec.lambda_opt)]
            for i in range(p):
                cells += [
                    repr(rec.beta_hat[i]),
                    repr(rec.ci_lower[i]),
                    repr(rec.ci_upper[i]),
                    str(int(rec.covered[i])),
                ]
            cells.append("")
        else:
            cells = [str(rec.index)] + [""] * (1 + 4 * p) + [rec.error]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def _simulate_doc(report: SimulationReport, scn: SimulationScenario, scenario_path: str) -> dict:
    matrix_files = [m.path for m in (scn.sigma_model, scn.true_x) if m.kind == "user_matrix"]
    return {
        "scenario": scenario_to_dict(scn),
        "metrics": {
            "per_forcing": [
                {"index": i, **{name: _number(v) for name, v in asdict(m).items()}}
                for i, m in enumerate(report.per_forcing)
            ],
            "n_replicates": report.n_replicates,
            "n_failed": report.n_failed,
            "failure_counts": report.failure_counts,
        },
        "timing": {
            "elapsed_seconds": report.elapsed_seconds,
            "replicates_per_second": (
                report.n_replicates / report.elapsed_seconds if report.elapsed_seconds > 0 else None
            ),
        },
        "provenance": _provenance(scn.fit_options, [scenario_path, *matrix_files]),
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    scn = load_scenario(args.input)
    if args.replicates is not None:
        scn = replace(scn, replicates=args.replicates)
    if args.seed is not None:
        scn = replace(scn, base_seed=args.seed)
    jobs = as_count(args.jobs, "jobs")  # a flag's error is not the document's
    try:
        report = run_scenario(scn, jobs=jobs)
    except InputError as exc:
        # A model that loads but cannot be built (Sigma not PSD, a matrix file
        # of the wrong shape) is an error of the document, named like one.
        raise type(exc)(f"{args.input}: {exc}") from exc
    _write(_json(_simulate_doc(report, scn, args.input)), args.output)
    if args.output is not None:
        table_path = Path(args.output).with_suffix(".replicates.tsv")
        table_path.write_text(_replicate_table(report, scn.n_forcings), encoding="utf-8")
    return EXIT_OK


def cmd_version(args: argparse.Namespace) -> int:
    print(f"finprint {__version__}")
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "version": cmd_version,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finprint",
        description="Regularized fingerprinting with a linearly optimal weight matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit scaling factors from a dataset manifest")
    fit.add_argument("input", help="dataset manifest (JSON)")
    # Every fit flag defaults to None: FitOptions holds the defaults and checks the values.
    fit.add_argument("--alpha", type=float, help=f"confidence level complement (default {FitOptions.alpha})")
    fit.add_argument("--grid-size", type=int, help=f"regularization grid points (default {FitOptions.grid_size})")
    fit.add_argument("--lambda-min", type=float, help=f"lower search bound (default {DEFAULT_BOUNDS[0]:g}*tau_bar)")
    fit.add_argument("--lambda-max", type=float, help=f"upper search bound (default {DEFAULT_BOUNDS[1]:g}*tau_bar)")
    fit.add_argument("--output", default=None, help="output path (default stdout)")

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("input", help="scenario file (JSON)")
    sim.add_argument("--replicates", type=int, default=None, help="override scenario replicate count")
    sim.add_argument("--seed", type=int, default=None, help="override base seed")
    sim.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    sim.add_argument("--output", default=None, help="report path; per-replicate table written alongside")

    sub.add_parser("version", help="print the package version")
    return parser


def _fail(label: str, exc: Exception, code: int) -> int:
    """Report ``exc`` as one stderr line, its type name when it has no text, and return the exit code."""
    print(f"{label}: {' '.join(str(exc).splitlines()) or type(exc).__name__}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NoFeasiblePoint as exc:
        return _fail("error", exc, EXIT_NO_FEASIBLE)
    except _INPUT_ERRORS as exc:
        return _fail("error", exc, EXIT_INPUT)
    except _NUMERIC_ERRORS as exc:
        return _fail("numeric failure", exc, EXIT_NUMERIC)


def entry_point() -> None:
    sys.exit(main())
