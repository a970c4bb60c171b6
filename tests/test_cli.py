import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finprint as fp
from finprint.cli import main
from finprint.io import write_matrix

SRC = Path(__file__).resolve().parents[1] / "src"


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


def assert_one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


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

    @pytest.mark.parametrize("command", ["fit", "lambda-curve"])
    def test_unknown_objective_exit_2(self, command, manifest, capsys):
        # FitOptions, not the argument parser, names the valid objectives.
        assert main([command, str(manifest), "--objective", "bogus"]) == 2
        assert "objective must be one of" in assert_one_error_line(capsys)

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

    @pytest.mark.parametrize("command", ["fit", "lambda-curve"])
    def test_zero_control_runs_exit_2(self, command, manifest, tmp_path, capsys):
        # tau_bar = 0 leaves lambda without a scale; the round-off of an
        # all-zero covariance must not pick one.
        write_matrix(tmp_path / "control.txt", np.zeros((16, 30)))
        assert main([command, str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tr(S)" in err and err.count("\n") == 1

    def test_non_psd_sample_cov_exit_2(self, manifest, tmp_path, capsys):
        # A supplied S with eigenvalue -0.77 (tau_bar ~ 1) is not a
        # covariance; clamping it to zero would fit a different problem.
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        eigvals = np.linspace(0.5, 1.5, 16)
        eigvals[0] = -0.77
        write_matrix(tmp_path / "s.txt", (q * eigvals) @ q.T)
        doc = json.loads(manifest.read_text())
        del doc["control_runs"]
        manifest.write_text(json.dumps({**doc, "sample_cov": "s.txt", "m_runs": 30}))
        assert main(["fit", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positive semidefinite" in err and err.count("\n") == 1

    def test_non_numeric_matrix_exit_2(self, manifest, tmp_path, capsys):
        (tmp_path / "x_tilde.txt").write_text("1.0 2.0\n3.0 abc\n")
        assert main(["fit", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x_tilde.txt" in err and err.count("\n") == 1

    def test_internal_value_error_exit_4(self, manifest, monkeypatch, capsys):
        # A ValueError that no input check raised is a failure of the
        # computation, not of the input.
        import finprint.cli as cli_mod

        def boom(ds, options):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli_mod, "fit_optimal", boom)
        assert main(["fit", str(manifest)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1

    def test_lambda_min_too_small_exit_2(self, manifest):
        # 1/lambda_min^2 overflows float64; the bound is rejected before the
        # grid turns it into numpy overflow warnings.
        proc = subprocess.run(
            [sys.executable, "-m", "finprint", "fit", str(manifest), "--lambda-min", "1e-300", "--lambda-max", "1e300"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "lambda_min" in lines[0]

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


@pytest.fixture
def npy_twin(tmp_path):
    """One control-run problem (m < N) as a text manifest and as an .npy manifest."""
    rng = np.random.default_rng(4)
    n, m = 40, 12
    x = rng.standard_normal((n, 2))
    y = x @ np.array([1.0, 1.0]) + 0.3 * rng.standard_normal(n)
    z = rng.standard_normal((n, m))
    manifests = []
    for kind in ("txt", "npy"):
        folder = tmp_path / kind
        folder.mkdir()
        for name, a in (("y", y), ("x_tilde", x), ("control", z)):
            if kind == "txt":
                write_matrix(folder / f"{name}.txt", a if a.ndim == 2 else a[:, None])
            else:
                np.save(folder / f"{name}.npy", a)
        doc = {
            "y": f"y.{kind}",
            "x_tilde": f"x_tilde.{kind}",
            "ensemble_sizes": [35, 46],
            "control_runs": f"control.{kind}",
        }
        (folder / "manifest.json").write_text(json.dumps(doc))
        manifests.append(folder / "manifest.json")
    return manifests


class TestNpyInputs:
    def test_npy_manifest_matches_text_twin(self, npy_twin):
        docs = []
        for manifest in npy_twin:
            out = manifest.parent / "report.json"
            assert main(["fit", str(manifest), "--output", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        text, npy = docs
        assert npy["beta_hat"] == text["beta_hat"]
        assert npy["lambda_opt"] == text["lambda_opt"]
        assert [(f["ci_lower"], f["ci_upper"]) for f in npy["forcings"]] == [
            (f["ci_lower"], f["ci_upper"]) for f in text["forcings"]
        ]

    @pytest.mark.parametrize("damage", ["truncated", "object_dtype"])
    def test_bad_npy_exit_2(self, npy_twin, damage, capsys):
        control = npy_twin[1].parent / "control.npy"
        if damage == "truncated":
            control.write_bytes(control.read_bytes()[:-100])
        else:
            np.save(control, np.array([[1.0, "a"], [None, 2]], dtype=object), allow_pickle=True)
        assert main(["fit", str(npy_twin[1])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "control.npy" in err
        assert err.count("\n") == 1 and "Traceback" not in err


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

    def test_curve_keyed_by_objective(self, manifest, tmp_path):
        curve_out = tmp_path / "curve.tsv"
        fit_out = tmp_path / "report.json"
        flags = ["--objective", "determinant"]
        assert main(["lambda-curve", str(manifest), *flags, "--output", str(curve_out)]) == 0
        assert main(["fit", str(manifest), *flags, "--output", str(fit_out)]) == 0
        assert curve_out.read_text().startswith("# lambda\tdeterminant ")
        doc = json.loads(fit_out.read_text())
        curve = doc["lambda_curve"]
        assert "determinant" in curve and "trace_xi" not in curve
        chosen = curve["determinant"][curve["chosen_index"]]
        assert chosen == pytest.approx(np.linalg.det(doc["xi_hat"]), rel=1e-12)


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

    def test_provenance_reports_scenario_options(self, scenario_file, tmp_path):
        doc = json.loads(scenario_file.read_text())
        doc["alpha"] = 0.1
        scenario_file.write_text(json.dumps(doc))
        out = tmp_path / "sim.json"
        assert main(["simulate", str(scenario_file), "--output", str(out)]) == 0
        provenance = json.loads(out.read_text())["provenance"]
        options = fp.FitOptions(alpha=0.1)
        assert provenance["alpha"] == 0.1
        assert provenance["grid"] == {
            "size": options.grid_size,
            "lambda_min": options.lambda_min,
            "lambda_max": options.lambda_max,
            "objective": options.objective,
        }

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

    def test_no_forcings_exit_2(self, scenario_file, capsys):
        doc = json.loads(scenario_file.read_text())
        doc.update(true_beta=[], ensemble_sizes=[])
        scenario_file.write_text(json.dumps(doc))
        assert main(["simulate", str(scenario_file)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_seed_override_changes_results(self, scenario_file, tmp_path):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        main(["simulate", str(scenario_file), "--seed", "1", "--output", str(out1)])
        main(["simulate", str(scenario_file), "--seed", "2", "--output", str(out2)])
        m1 = json.loads(out1.read_text())["metrics"]["per_forcing"]
        m2 = json.loads(out2.read_text())["metrics"]["per_forcing"]
        assert m1 != m2

    @pytest.mark.parametrize("flag", ["--jobs", "--replicates"])
    def test_count_below_one_exit_2(self, flag, scenario_file, capsys):
        assert main(["simulate", str(scenario_file), flag, "0"]) == 2
        assert "must be >= 1" in assert_one_error_line(capsys)

    def test_missing_scenario_exit_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.json")]) == 2
        assert "nope.json" in assert_one_error_line(capsys)

    def test_negative_seed_exit_2(self, scenario_file, capsys):
        assert main(["simulate", str(scenario_file), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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
