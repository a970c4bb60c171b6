#!/usr/bin/env python3
"""Write a small synthetic dataset + manifest + scenario for CLI demos.

Creates, under the target directory:
    y.txt, x_tilde.txt, control.txt   delimited matrix files
    manifest.json                     dataset manifest for `finprint fit`
    scenario.json                     scenario for `finprint simulate`
"""

import argparse
import json
from pathlib import Path

import numpy as np

from finprint import SeparableAr1Sigma, SimulationScenario, SyntheticFingerprints, generate_replicate
from finprint.io import write_matrix
from finprint.simulate import scenario_to_dict


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="example_data")
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--spatial-dim", type=int, default=8)
    parser.add_argument("--temporal-dim", type=int, default=6)
    parser.add_argument("--m-runs", type=int, default=100)
    args = parser.parse_args()

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    scenario = SimulationScenario(
        n_dim=args.spatial_dim * args.temporal_dim,
        true_beta=(1.0, 1.0),
        gamma=1.0,
        ensemble_sizes=(35, 46),
        m_runs=args.m_runs,
        sigma_model=SeparableAr1Sigma(args.spatial_dim, args.temporal_dim, 0.1, 0.1),
        true_x=SyntheticFingerprints(seed=7),
        replicates=100,
        base_seed=args.seed,
    )
    ds = generate_replicate(scenario, 0)

    write_matrix(out / "y.txt", ds.y[:, None], header="observed anomalies, one row per coordinate")
    write_matrix(out / "x_tilde.txt", ds.x_tilde, header="ensemble-mean fingerprints, one column per forcing")
    write_matrix(out / "control.txt", ds.control_runs, header="centered control runs, one column per run")

    manifest = {
        "y": "y.txt",
        "x_tilde": "x_tilde.txt",
        "ensemble_sizes": list(int(n) for n in ds.ensemble_sizes),
        "control_runs": "control.txt",
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (out / "scenario.json").write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")
    print(f"wrote {out}/: y.txt x_tilde.txt control.txt manifest.json scenario.json")
    print(f"try:  finprint fit {out}/manifest.json")
    print(f"      finprint simulate {out}/scenario.json --replicates 50 --output report.json")


if __name__ == "__main__":
    main()
