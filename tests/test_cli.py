import json
import subprocess
import sys

import numpy as np
import pytest

import finprint as fp
from finprint.cli import main
from finprint.io import write_matrix


@pytest.fixture
def manifest(tmp_path):
    rng = np.random.default_rng(1)
    n = 16
    x = rng.standard_normal((n, 2))
    y = x @ np.array([1.0, 1.0]) + 0.3 * rng.standard_normal(n)
    z = rng.standard_normal((n, 30))
    write_matrix(tmp_path / "y.txt", y[:, None])
    write_matrix(tmp_path / "x_tilde.txt", x)
    write_matrix(tmp_path / "control.txt", z)
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps(
            {
                "y": "y.txt",
                "x_tilde": "x_tilde.txt",
                "ensemble_sizes": [35, 46],
                "control_runs": "control.txt",
            }
        )
    )
    return path


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "n_dim": 12,
                "true_beta": [1.0, 1.0],
                "gamma": 1.0,
                "ensemble_sizes": [3, 5],
                "m_runs": 24,
                "sigma_model": {"kind": "identity"},
                "true_x": {"kind": "synthetic", "seed": 3},
                "replicates": 2,
                "base_seed": 17,
            }
        )
    )
    return path


class TestFitCommand:
    def test_report_written(self, manifest, tmp_path):
        out = tmp_path / "report.json"
        assert main(["fit", str(manifest), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {
            "beta_hat",
            "lambda_opt",
            "xi_hat",
            "forcings",
            "lambda_curve",
            "provenance",
        }
        assert len(doc["lambda_curve"]["lambda"]) == 100
        assert doc["forcings"][0].keys() >= {
            "beta_hat",
            "ci_lower",
            "ci_upper",
            "detected",
            "attributed",
        }
        assert doc["provenance"]["version"] == fp.__version__
        assert len(doc["provenance"]["inputs"]) == 4  # manifest + three matrices
        curve = doc["lambda_curve"]
        assert [r is None for r in curve["reason"]] == curve["feasible"]
        assert set(curve["reason"]) <= {None, *fp.variance.REASONS}
        assert doc["diagnostics"]["n_near_degenerate_grid_points"] == 0

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_rerun_byte_identical(self, manifest, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["fit", str(manifest), "--output", str(out1)]) == 0
        assert main(["fit", str(manifest), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_alpha_exit_2(self, manifest):
        assert main(["fit", str(manifest), "--alpha", "1.5"]) == 2

    def test_no_feasible_point_exit_3(self, tmp_path, capsys):
        # zero fingerprints leave every grid point vertical
        rng = np.random.default_rng(2)
        n = 8
        write_matrix(tmp_path / "y.txt", rng.standard_normal((n, 1)))
        write_matrix(tmp_path / "x_tilde.txt", np.zeros((n, 1)))
        write_matrix(tmp_path / "control.txt", rng.standard_normal((n, 12)))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "y": "y.txt",
                    "x_tilde": "x_tilde.txt",
                    "ensemble_sizes": [4],
                    "control_runs": "control.txt",
                }
            )
        )
        assert main(["fit", str(manifest)]) == 3

    def test_numeric_failure_exit_4(self, manifest, monkeypatch, capsys):
        import finprint.cli as cli_mod

        def boom(ds, options):
            raise fp.EigenFailure("eigensolver did not converge")

        monkeypatch.setattr(cli_mod, "fit_optimal", boom)
        assert main(["fit", str(manifest)]) == 4
        assert "numeric failure" in capsys.readouterr().err

    def test_dimension_mismatch_exit_2(self, tmp_path):
        rng = np.random.default_rng(3)
        write_matrix(tmp_path / "y.txt", rng.standard_normal((10, 1)))
        write_matrix(tmp_path / "x_tilde.txt", rng.standard_normal((9, 1)))
        write_matrix(tmp_path / "control.txt", rng.standard_normal((9, 5)))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "y": "y.txt",
                    "x_tilde": "x_tilde.txt",
                    "ensemble_sizes": [4],
                    "control_runs": "control.txt",
                }
            )
        )
        assert main(["fit", str(manifest)]) == 2


class TestLambdaCurveCommand:
    def test_default_row_count(self, manifest, tmp_path, capsys):
        out = tmp_path / "curve.tsv"
        assert main(["lambda-curve", str(manifest), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 100

    def test_grid_size_flag(self, manifest, tmp_path):
        out = tmp_path / "curve.tsv"
        assert main(["lambda-curve", str(manifest), "--grid-size", "10", "--output", str(out)]) == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 10

    def test_chosen_matches_fit(self, manifest, tmp_path):
        curve_out = tmp_path / "curve.tsv"
        fit_out = tmp_path / "report.json"
        assert main(["lambda-curve", str(manifest), "--output", str(curve_out)]) == 0
        assert main(["fit", str(manifest), "--output", str(fit_out)]) == 0
        chosen_line = [
            ln for ln in curve_out.read_text().splitlines() if ln.startswith("# chosen")
        ][0]
        chosen_lambda = float(chosen_line.split("\t")[1])
        fit_lambda = json.loads(fit_out.read_text())["lambda_opt"]
        assert chosen_lambda == pytest.approx(fit_lambda, rel=1e-12)


class TestSimulateCommand:
    def test_smoke(self, scenario_file, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", str(scenario_file), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["n_replicates"] == 2
        table = out.with_suffix(".replicates.tsv")
        assert table.exists()
        data = [ln for ln in table.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 2
        assert doc["metrics"]["failure_counts"] == {}
        assert doc["timing"]["replicates_per_second"] > 0

    def test_replicates_override(self, scenario_file, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", str(scenario_file), "--replicates", "4", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["metrics"]["n_replicates"] == 4

    def test_invalid_correlation_exit_2(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "n_dim": 4,
                    "true_beta": [1.0],
                    "gamma": 1.0,
                    "ensemble_sizes": [3],
                    "m_runs": 8,
                    "sigma_model": {
                        "kind": "separable_ar1",
                        "spatial_dim": 2,
                        "temporal_dim": 2,
                        "rho_spatial": 1.5,
                        "rho_temporal": 0.1,
                    },
                    "true_x": {"kind": "synthetic", "seed": 1},
                    "replicates": 1,
                    "base_seed": 5,
                }
            )
        )
        assert main(["simulate", str(path)]) == 2

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_non_utf8_file_exit_2(self, command, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_jobs_do_not_change_aggregates(self, scenario_file, tmp_path):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        assert main(["simulate", str(scenario_file), "--replicates", "6", "--output", str(out1)]) == 0
        assert main([
            "simulate", str(scenario_file), "--replicates", "6", "--jobs", "3", "--output", str(out2)
        ]) == 0
        doc1 = json.loads(out1.read_text())
        doc2 = json.loads(out2.read_text())
        assert doc1["metrics"] == doc2["metrics"]
        assert out1.with_suffix(".replicates.tsv").read_bytes() == out2.with_suffix(
            ".replicates.tsv"
        ).read_bytes()

    def test_seed_override_changes_results(self, scenario_file, tmp_path):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        main(["simulate", str(scenario_file), "--seed", "1", "--output", str(out1)])
        main(["simulate", str(scenario_file), "--seed", "2", "--output", str(out2)])
        m1 = json.loads(out1.read_text())["metrics"]["per_forcing"]
        m2 = json.loads(out2.read_text())["metrics"]["per_forcing"]
        assert m1 != m2

    def test_env_seed_fallback(self, scenario_file, tmp_path, monkeypatch):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        monkeypatch.setenv("FINPRINT_SEED", "99")
        main(["simulate", str(scenario_file), "--output", str(out1)])
        monkeypatch.delenv("FINPRINT_SEED")
        main(["simulate", str(scenario_file), "--seed", "99", "--output", str(out2)])
        assert json.loads(out1.read_text())["metrics"] == json.loads(out2.read_text())["metrics"]
        assert json.loads(out1.read_text())["scenario"]["base_seed"] == 99


class TestVersionCommand:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert fp.__version__ in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "finprint", "version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert fp.__version__ in proc.stdout
