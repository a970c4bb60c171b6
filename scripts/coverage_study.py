#!/usr/bin/env python3
"""Desk-scale Monte Carlo study of coverage and interval length.

Sweeps the control-run count and signal scale on the separable
spatio-temporal covariance and prints bias, spread, mean interval length,
and empirical coverage per forcing, mirroring the layout of the method's
simulation study at a size that runs in minutes on a laptop. Each row also
gives its scenario's replicates per second and its failed replicates by
error type, so a sweep shows where its time and its failures went.
"""

import argparse
import time

from finprint import SeparableAr1Sigma, SimulationScenario, SyntheticFingerprints, run_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=500)
    parser.add_argument("--spatial-dim", type=int, default=8)
    parser.add_argument("--temporal-dim", type=int, default=6)
    parser.add_argument("--m-grid", type=int, nargs="+", default=[50, 100, 200, 400])
    parser.add_argument("--gammas", type=float, nargs="+", default=[1.0, 0.5])
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    print(
        f"{'gamma':>6} {'m':>5} {'forcing':>8} {'bias':>9} {'sd':>8} {'cil':>8} {'cr':>7} {'fail':>5}"
        f" {'reps/s':>8}  failures"
    )
    start = time.perf_counter()
    for gamma in args.gammas:
        for m in args.m_grid:
            scenario = SimulationScenario(
                n_dim=args.spatial_dim * args.temporal_dim,
                true_beta=(1.0, 1.0),
                gamma=gamma,
                ensemble_sizes=(35, 46),
                m_runs=m,
                sigma_model=SeparableAr1Sigma(args.spatial_dim, args.temporal_dim, 0.1, 0.1),
                true_x=SyntheticFingerprints(seed=7),
                replicates=args.replicates,
                base_seed=args.seed,
            )
            report = run_scenario(scenario, jobs=args.jobs)
            rate = report.n_replicates / report.elapsed_seconds
            failures = ",".join(f"{name}:{n}" for name, n in report.failure_counts.items()) or "-"
            for i, metrics in enumerate(report.per_forcing):
                print(
                    f"{gamma:>6.2f} {m:>5d} {i:>8d} "
                    f"{metrics.bias:>+9.4f} {metrics.sd:>8.4f} "
                    f"{metrics.mean_ci_length:>8.4f} {metrics.coverage_rate:>7.3f} "
                    f"{report.n_failed:>5d} {rate:>8.0f}  {failures}"
                )
    print(f"total {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
