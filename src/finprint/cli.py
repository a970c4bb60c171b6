"""Batch command-line front end.

Subcommands: ``fit`` (estimate scaling factors from a dataset manifest),
``simulate`` (run a Monte Carlo scenario), ``lambda-curve`` (emit the
regularization search profile), ``version``. Exit codes: 0 success,
2 input/validation problem, 3 no feasible regularization level,
4 internal numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import validate_dataset
from .errors import (
    DimensionMismatch,
    EigenFailure,
    FinprintError,
    InvalidCorrelation,
    NoConvergence,
    NoFeasiblePoint,
    NonFinite,
    NotPSD,
    OutOfDomain,
)
from .inference import FitResult
from .io import SchemaError, load_dataset, load_scenario, manifest_input_paths
from .simulate import SimulationReport, SimulationScenario, run_scenario
from .variance import FitOptions, fit_optimal

__all__ = ["CliConfig", "main", "entry_point"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_FEASIBLE = 3
EXIT_NUMERIC = 4

_INPUT_ERRORS = (
    SchemaError,
    DimensionMismatch,
    NonFinite,
    InvalidCorrelation,
    OutOfDomain,
    NotPSD,
    FileNotFoundError,
    IsADirectoryError,
    ValueError,
)
_NUMERIC_ERRORS = (
    EigenFailure,
    NoConvergence,
    np.linalg.LinAlgError,
    FloatingPointError,
)

ENV_SEED = "FINPRINT_SEED"


@dataclass(frozen=True)
class CliConfig:
    """Validated command configuration assembled from parsed flags."""

    command: str
    input_path: Path | None
    output_path: Path | None
    alpha: float
    lambda_min: float | None
    lambda_max: float | None
    grid_size: int
    objective: str
    seed: int | None
    replicates: int | None
    jobs: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"--alpha must be in (0, 1), got {self.alpha}")
        if self.grid_size < 2:
            raise ValueError("--grid-size must be >= 2")
        if self.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        if self.replicates is not None and self.replicates < 1:
            raise ValueError("--replicates must be >= 1")
        if self.input_path is not None and not self.input_path.exists():
            raise FileNotFoundError(f"input file not found: {self.input_path}")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "CliConfig":
        seed = getattr(args, "seed", None)
        if seed is None and os.environ.get(ENV_SEED):
            seed = int(os.environ[ENV_SEED])
        return cls(
            command=args.command,
            input_path=Path(args.input) if getattr(args, "input", None) else None,
            output_path=Path(args.output) if getattr(args, "output", None) else None,
            alpha=getattr(args, "alpha", 0.05),
            lambda_min=getattr(args, "lambda_min", None),
            lambda_max=getattr(args, "lambda_max", None),
            grid_size=getattr(args, "grid_size", 100),
            objective=getattr(args, "objective", "trace"),
            seed=seed,
            replicates=getattr(args, "replicates", None),
            jobs=getattr(args, "jobs", 1),
        )

    def fit_options(self) -> FitOptions:
        return FitOptions(
            alpha=self.alpha,
            lambda_min=self.lambda_min,
            lambda_max=self.lambda_max,
            grid_size=self.grid_size,
            objective=self.objective,
        )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _provenance(cfg: CliConfig, input_files) -> dict:
    return {
        "package": "finprint",
        "version": __version__,
        "inputs": {str(p): _sha256(Path(p)) for p in input_files},
        "grid": {
            "size": cfg.grid_size,
            "lambda_min": cfg.lambda_min,
            "lambda_max": cfg.lambda_max,
            "objective": cfg.objective,
        },
        "alpha": cfg.alpha,
    }


def _curve_doc(result: FitResult) -> dict:
    curve = result.curve
    return {
        "lambda": [float(v) for v in curve.grid],
        "trace_xi": [float(v) if np.isfinite(v) else None for v in curve.objective],
        "feasible": [bool(f) for f in curve.feasible],
        "reason": list(curve.reason),
        "chosen_index": int(curve.chosen_index),
        "chosen_lambda": float(curve.chosen_lambda),
    }


def _fit_doc(result: FitResult, validation, cfg: CliConfig) -> dict:
    chosen = result.curve.chosen
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
        "n_dim": validation.n_dim,
        "n_forcings": validation.n_forcings,
        "m_runs": validation.m_runs,
        "tau_bar": validation.tau_bar,
        "forcings": forcings,
        "lambda_curve": _curve_doc(result),
        "diagnostics": {
            "k_hat": float(chosen.k_hat),
            "stability_margin": float(chosen.stability),
            "n_infeasible_grid_points": int((~result.curve.feasible).sum()),
            "n_near_degenerate_grid_points": result.curve.n_near_degenerate,
            "validation_warnings": list(validation.warnings),
        },
        "provenance": _provenance(cfg, manifest_input_paths(cfg.input_path)),
    }


def _write_doc(doc: dict, output: Path | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)


def cmd_fit(cfg: CliConfig) -> int:
    ds = load_dataset(cfg.input_path)
    validation = validate_dataset(ds)
    for w in validation.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not validation.ok:
        for e in validation.errors:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    result = fit_optimal(ds, cfg.fit_options())
    _write_doc(_fit_doc(result, validation, cfg), cfg.output_path)
    return EXIT_OK


def cmd_lambda_curve(cfg: CliConfig) -> int:
    ds = load_dataset(cfg.input_path)
    validation = validate_dataset(ds)
    if not validation.ok:
        for e in validation.errors:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    result = fit_optimal(ds, cfg.fit_options())
    curve = result.curve
    label = "trace_xi" if cfg.objective == "trace" else cfg.objective
    lines = [f"# lambda\t{label}  (inf marks infeasible grid points)"]
    for lam, value in zip(curve.grid, curve.objective):
        lines.append(f"{float(lam)!r}\t{float(value)!r}")
    lines.append(f"# chosen\t{float(curve.chosen_lambda)!r}\t{float(curve.objective[curve.chosen_index])!r}")
    text = "\n".join(lines) + "\n"
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        cfg.output_path.write_text(text)
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


def _simulate_doc(report: SimulationReport, scn: SimulationScenario, cfg: CliConfig) -> dict:
    from .io import scenario_to_dict

    return {
        "scenario": scenario_to_dict(scn),
        "metrics": {
            "per_forcing": [
                {
                    "index": i,
                    "bias": m.bias,
                    "sd": m.sd,
                    "mean_ci_length": m.mean_ci_length,
                    "coverage_rate": m.coverage_rate,
                }
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
        "provenance": _provenance(cfg, [cfg.input_path]),
    }


def cmd_simulate(cfg: CliConfig) -> int:
    scn = load_scenario(cfg.input_path)
    if cfg.replicates is not None:
        scn = scn.with_replicates(cfg.replicates)
    if cfg.seed is not None:
        scn = scn.with_seed(cfg.seed)
    report = run_scenario(scn, jobs=cfg.jobs)
    _write_doc(_simulate_doc(report, scn, cfg), cfg.output_path)
    if cfg.output_path is not None:
        table_path = cfg.output_path.with_suffix(".replicates.tsv")
        table_path.write_text(_replicate_table(report, scn.n_forcings))
    return EXIT_OK


def cmd_version(cfg: CliConfig) -> int:
    print(f"finprint {__version__}")
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "lambda-curve": cmd_lambda_curve,
    "version": cmd_version,
}


def _add_common_fit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=0.05, help="confidence level complement (default 0.05)")
    sub.add_argument("--grid-size", type=int, default=100, help="regularization grid points (default 100)")
    sub.add_argument("--lambda-min", type=float, default=None, help="lower search bound (default 0.01*tau_bar)")
    sub.add_argument("--lambda-max", type=float, default=None, help="upper search bound (default 10*tau_bar)")
    sub.add_argument(
        "--objective",
        choices=("trace", "determinant", "max_eigenvalue"),
        default="trace",
        help="selection objective (default trace)",
    )
    sub.add_argument("--output", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finprint",
        description="Regularized fingerprinting with a linearly optimal weight matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit scaling factors from a dataset manifest")
    fit.add_argument("input", help="dataset manifest (JSON)")
    _add_common_fit_flags(fit)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("input", help="scenario file (JSON)")
    sim.add_argument("--replicates", type=int, default=None, help="override scenario replicate count")
    sim.add_argument("--seed", type=int, default=None, help=f"override base seed (or set {ENV_SEED})")
    sim.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    sim.add_argument("--output", default=None, help="report path; per-replicate table written alongside")

    curve = sub.add_parser("lambda-curve", help="emit (lambda, trace) pairs from the grid search")
    curve.add_argument("input", help="dataset manifest (JSON)")
    _add_common_fit_flags(curve)

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = CliConfig.from_args(args)
        return _COMMANDS[args.command](cfg)
    except NoFeasiblePoint as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FinprintError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry_point() -> None:
    sys.exit(main())
