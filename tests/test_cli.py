import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finprint as fp
from finprint import simulate
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


def scale_inputs(folder, c):
    """Multiply the manifest fixture's three matrix files by ``c``."""
    for name in ("y.txt", "x_tilde.txt", "control.txt"):
        path = folder / name
        write_matrix(path, c * np.loadtxt(path, ndmin=2))


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

    def test_objective_flag_is_gone(self, manifest, capsys):
        # The search has one criterion, tr Xi_hat; the parser knows no other.
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(manifest), "--objective", "trace"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --objective" in capsys.readouterr().err

    def test_tiny_data_scale_fits(self, manifest, tmp_path):
        # tau_bar ~ 1e-200: the default bounds are relative to it, so the
        # report is the unit-scale one with lambda scaled by c^2.
        unit, tiny = tmp_path / "unit.json", tmp_path / "tiny.json"
        assert main(["fit", str(manifest), "--output", str(unit)]) == 0
        c = 1e-100
        scale_inputs(tmp_path, c)
        assert main(["fit", str(manifest), "--output", str(tiny)]) == 0
        want, got = json.loads(unit.read_text()), json.loads(tiny.read_text())
        assert got["lambda_curve"]["chosen_index"] == want["lambda_curve"]["chosen_index"]
        np.testing.assert_allclose(got["beta_hat"], want["beta_hat"], rtol=0.0, atol=1e-12)
        assert got["lambda_opt"] == pytest.approx(c**2 * want["lambda_opt"], rel=1e-12)

    def test_subnormal_tau_bar_exit_2(self, manifest, tmp_path, capsys):
        # Validation finds (near-)zero fingerprints, but the fit fails on the
        # default lambda_min, so only its error is printed, with no traceback.
        scale_inputs(tmp_path, 1e-160)
        assert main(["fit", str(manifest)]) == 2
        err = assert_one_error_line(capsys)
        assert err.startswith("error: lambda_min = ") and "too small" in err

    @pytest.mark.parametrize("scale, code", [(1.0, 0), (0.0, 2)])
    def test_few_runs_warn_only_when_the_fit_succeeds(self, manifest, tmp_path, capsys, scale, code):
        # m = 5 < N = 16 warns. All-zero runs leave tau_bar = 0, which the
        # search rejects: that fit ends in its one error line.
        runs = tmp_path / "control.txt"
        write_matrix(runs, scale * np.loadtxt(runs, ndmin=2)[:, :5])
        assert main(["fit", str(manifest), "--output", str(tmp_path / "report.json")]) == code
        if code:
            assert "tr(S)/N = 0" in assert_one_error_line(capsys)
        else:
            warning = "m=5 < N=16: singular sample covariance (rank <= 5); regularization is required"
            assert capsys.readouterr().err.splitlines() == [f"warning: {warning}"]
            doc = json.loads((tmp_path / "report.json").read_text())
            assert doc["diagnostics"]["validation_warnings"] == [warning]

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

    def test_zero_control_runs_exit_2(self, manifest, tmp_path, capsys):
        # tau_bar = 0 leaves lambda without a scale; the round-off of an
        # all-zero covariance must not pick one.
        write_matrix(tmp_path / "control.txt", np.zeros((16, 30)))
        assert main(["fit", str(manifest)]) == 2
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

    def test_negative_trace_sample_cov_exit_2(self, manifest, tmp_path, capsys):
        # tr(S) < 0 means an eigenvalue below zero: the cache rejects S
        # before the search could find lambda without a scale.
        doc = json.loads(manifest.read_text())
        del doc["control_runs"]
        write_matrix(tmp_path / "s.txt", -np.eye(16))
        manifest.write_text(json.dumps({**doc, "sample_cov": "s.txt", "m_runs": 30}))
        assert main(["fit", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positive semidefinite" in err and err.count("\n") == 1

    def test_fit_validates_once(self, manifest, tmp_path, validate_calls):
        assert main(["fit", str(manifest), "--output", str(tmp_path / "fit.json")]) == 0
        assert len(validate_calls) == 1

    def test_alpha_without_quantile_exit_2(self, manifest, tmp_path, capsys):
        # Below about 1.1e-16, 1 - alpha/2 rounds to 1: rejected before any fit.
        assert main(["fit", str(manifest), "--alpha", "1e-17"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha = 1e-17 is too small") and err.count("\n") == 1
        out = tmp_path / "fit.json"
        assert main(["fit", str(manifest), "--alpha", "1e-15", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["alpha"] == 1e-15

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

    @pytest.mark.parametrize("where", ["output", "input"])
    def test_path_through_a_file_exit_2(self, where, manifest, tmp_path, capsys):
        # Each path runs through the file y.txt, so opening it raises NotADirectoryError.
        argv = ["fit", str(manifest)]
        if where == "output":
            argv += ["--output", str(tmp_path / "y.txt" / "out.json")]
        else:
            manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "y": "y.txt/x"}))
        assert main(argv) == 2
        assert "Not a directory" in assert_one_error_line(capsys)

    def test_unallocatable_grid_exit_4(self, manifest, capsys):
        # The grid's first array (8e18 bytes) fails to allocate before any work is done.
        assert main(["fit", str(manifest), "--grid-size", "1000000000000000000"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: ")

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

    @pytest.mark.parametrize(
        "m_runs, message",
        [
            (30, "error: s contains NaN or infinite entries"),
            (8, "error: tr(S)/N = inf is not finite: the runs' sum of squares is NaN or overflows"),
            (None, "error: tr(S)/N = inf is not finite: the trace of the supplied S overflows"),
        ],
        ids=["dense", "low_rank", "sample_cov"],
    )
    def test_overflowing_control_runs_exit_2(self, m_runs, message, manifest, tmp_path):
        # The runs are finite, but Z Z^T/m (m >= N) or, where S is not
        # formed (m < N), tr(S)/N overflows float64; or a supplied S
        # (m_runs None) holds doubles of 1.5e308 whose trace overflows:
        # NonFinite's one line, with no NumPy warning before it.
        runs = tmp_path / "control.txt"
        if m_runs is None:
            doc = json.loads(manifest.read_text())
            del doc["control_runs"]
            write_matrix(tmp_path / "s.txt", np.full((16, 16), 1.5e308))
            manifest.write_text(json.dumps({**doc, "sample_cov": "s.txt", "m_runs": 30}))
        else:
            write_matrix(runs, 1e160 * np.loadtxt(runs, ndmin=2)[:, :m_runs])
        proc = subprocess.run(
            [sys.executable, "-m", "finprint", "fit", str(manifest)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert lines == [message]

    @pytest.mark.parametrize(
        "x_scale, z_scale, m_runs", [(1e100, 1e-100, 20), (1e160, 1.0, 8)], ids=["small_runs", "huge_data"]
    )
    def test_overflowing_gram_exit_3(self, x_scale, z_scale, m_runs, tmp_path, capsys):
        # Fingerprints ~ 1e100 against control runs ~ 1e-100, or ~ 1e160
        # (whose norms and null-block Gram overflow too): the augmented TLS
        # Gram matrix overflows float64 at every grid point, so each is
        # infeasible (nonfinite_gram) and the fit ends in NoFeasiblePoint's
        # one line, with no NumPy warning (an error under pytest) before it.
        rng = np.random.default_rng(3)
        x = x_scale * rng.standard_normal((12, 2))
        z = z_scale * rng.standard_normal((12, m_runs))
        write_matrix(tmp_path / "y.txt", (x.sum(axis=1) + rng.standard_normal(12))[:, None])
        write_matrix(tmp_path / "x_tilde.txt", x)
        write_matrix(tmp_path / "control.txt", z)
        path = tmp_path / "m.json"
        doc = {"y": "y.txt", "x_tilde": "x_tilde.txt", "ensemble_sizes": [5, 5], "control_runs": "control.txt"}
        path.write_text(json.dumps(doc))
        assert main(["fit", str(path)]) == 3
        assert assert_one_error_line(capsys) == "error: every grid point was infeasible"

    def test_gram_overflowing_at_small_lambda_fits(self, manifest, tmp_path):
        # At 3e152 times the data the Gram matrix overflows at the 16
        # smallest lambdas alone; the rest of the grid gives the unit-scale fit.
        unit, big = tmp_path / "unit.json", tmp_path / "big.json"
        assert main(["fit", str(manifest), "--output", str(unit)]) == 0
        for name in ("y.txt", "x_tilde.txt"):
            write_matrix(tmp_path / name, 3e152 * np.loadtxt(tmp_path / name, ndmin=2))
        assert main(["fit", str(manifest), "--output", str(big)]) == 0
        want, got = json.loads(unit.read_text()), json.loads(big.read_text())
        assert got["lambda_curve"]["reason"][:17] == ["nonfinite_gram"] * 16 + [None]
        assert got["lambda_curve"]["chosen_index"] == want["lambda_curve"]["chosen_index"]
        np.testing.assert_allclose(got["beta_hat"], want["beta_hat"], rtol=1e-12)

    @pytest.mark.parametrize("m_runs", [100, 40])
    def test_lambda_max_too_large_exit_2(self, m_runs, tmp_path, capsys):
        # On the example data (tau_bar ~ 0.99) the grid weights of g_s and
        # theta2 underflow above ~6.6e153 * tau_bar; 1e300 is rejected
        # before the grid reports digit-losing points as feasible.
        data = tmp_path / "example"
        subprocess.run(
            [sys.executable, str(SRC.parent / "scripts" / "make_example_data.py"), str(data), "--m-runs", str(m_runs)],
            check=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        args = ["fit", str(data / "manifest.json"), "--lambda-min", "1e-3", "--lambda-max", "1e300"]
        assert main(args) == 2
        assert "lambda_max" in assert_one_error_line(capsys)

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


class TestFitLambdaCurve:
    """The fit report's ``lambda_curve``: the whole search, read off the report."""

    def test_grid_size_flag(self, manifest, tmp_path):
        out = tmp_path / "report.json"
        assert main(["fit", str(manifest), "--grid-size", "10", "--output", str(out)]) == 0
        curve = json.loads(out.read_text())["lambda_curve"]
        assert len(curve["lambda"]) == len(curve["trace_xi"]) == len(curve["feasible"]) == 10

    def test_chosen_matches_fit(self, manifest, tmp_path):
        out = tmp_path / "report.json"
        assert main(["fit", str(manifest), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        curve = doc["lambda_curve"]
        assert curve["lambda"][curve["chosen_index"]] == curve["chosen_lambda"] == doc["lambda_opt"]

    def test_curve_keyed_by_trace(self, manifest, tmp_path):
        out = tmp_path / "report.json"
        assert main(["fit", str(manifest), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        curve = doc["lambda_curve"]
        assert doc["provenance"]["grid"]["objective"] == "trace"
        chosen = curve["trace_xi"][curve["chosen_index"]]
        assert chosen == pytest.approx(np.trace(doc["xi_hat"]), rel=1e-12)


# A separable_ar1 sigma model for the 12-point scenario_file.
SEPARABLE = {"kind": "separable_ar1", "spatial_dim": 3, "temporal_dim": 4, "rho_spatial": 0.1, "rho_temporal": 0.1}
# Models that load but cannot be built, and the line each ends in.
UNBUILDABLE = {
    "not_psd": "sigma_model 'user_matrix' ({path}): matrix has eigenvalue -1.000e+00 below tolerance",
    "wrong_shape": "sigma_model 'user_matrix' ({path}): covariance file is (11, 11), expected (12, 12)",
    "correlation": "true_x 'synthetic': column_correlation -0.9 not positive definite for p=3",
}


class TestSimulateCommand:
    def test_failure_without_text_names_its_type(self, scenario_file, monkeypatch, capsys):
        # A replicate count too large to index raises a bare MemoryError,
        # whose text is empty.
        import finprint.cli as cli_mod

        def out_of_memory(scn, jobs):
            raise MemoryError()

        monkeypatch.setattr(cli_mod, "run_scenario", out_of_memory)
        assert main(["simulate", str(scenario_file)]) == 4
        assert capsys.readouterr().err.splitlines() == ["numeric failure: MemoryError"]

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

    def test_one_replicate_reports_no_spread(self, scenario_file, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", str(scenario_file), "--replicates", "1", "--output", str(out)]) == 0
        per_forcing = json.loads(out.read_text())["metrics"]["per_forcing"]
        assert [m["sd"] for m in per_forcing] == [None, None]
        assert all(m["bias"] is not None for m in per_forcing)

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
            "objective": "trace",
        }

    def test_provenance_hashes_matrix_files(self, scenario_file, tmp_path):
        # Every file the scenario reads is hashed, as fit hashes its manifest's.
        rng = np.random.default_rng(5)
        write_matrix(tmp_path / "sigma.txt", np.eye(12))
        write_matrix(tmp_path / "x.txt", rng.standard_normal((12, 2)))
        doc = json.loads(scenario_file.read_text())
        doc["sigma_model"] = {"kind": "user_matrix", "path": "sigma.txt"}
        doc["true_x"] = {"kind": "user_matrix", "path": "x.txt"}
        scenario_file.write_text(json.dumps(doc))
        out = tmp_path / "sim.json"
        assert main(["simulate", str(scenario_file), "--output", str(out)]) == 0
        inputs = json.loads(out.read_text())["provenance"]["inputs"]
        files = [scenario_file, tmp_path / "sigma.txt", tmp_path / "x.txt"]
        assert inputs == {str(f): hashlib.sha256(f.read_bytes()).hexdigest() for f in files}

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

    @pytest.mark.parametrize("broken", [None, 1], ids=["stacked", "refit"])
    def test_replicate_table_cells(self, scenario_file, tmp_path, monkeypatch, broken):
        # Each fitted row holds the repr of fit_optimal's numbers on the
        # replicate's own dataset, and each failed row the "Type: message" of
        # the error that fit raised. Without signal, replicates 6 and 7 have
        # no feasible point; a NaN y in replicate 1 sends its whole block
        # through the one-at-a-time refit.
        doc = json.loads(scenario_file.read_text())
        doc.update(gamma=0.0, m_runs=40, base_seed=3, replicates=8)
        scenario_file.write_text(json.dumps(doc))
        original = simulate.ReplicateGenerator.draw

        def draw(self, indices):
            y, x_tilde, z = original(self, indices)
            y[[r for r, i in enumerate(indices) if i == broken]] = np.nan
            return y, x_tilde, z

        monkeypatch.setattr(simulate.ReplicateGenerator, "draw", draw)
        out = tmp_path / "sim.json"
        assert main(["simulate", str(scenario_file), "--output", str(out)]) == 0
        header, *rows = out.with_suffix(".replicates.tsv").read_text().splitlines()
        assert header.split("\t")[:3] == ["# replicate", "lambda_opt", "beta_hat_0"]
        scn = simulate.load_scenario(scenario_file)
        errors = {}
        for i, line in enumerate(rows):
            try:
                fit = fp.fit_optimal(fp.generate_replicate(scn, i), scn.fit_options)
            except fp.FinprintError as exc:
                errors[i] = type(exc).__name__
                assert line.split("\t") == [str(i)] + [""] * 9 + [f"{type(exc).__name__}: {exc}"]
                continue
            cells = [str(i), repr(fit.lambda_opt)]
            for (lower, upper), beta, truth in zip(fit.intervals, fit.beta_hat.tolist(), scn.true_beta):
                cells += [repr(beta), repr(lower), repr(upper), str(int(lower <= truth <= upper))]
            assert line.split("\t") == cells + [""]
        assert len(rows) == 8
        assert errors == {6: "NoFeasiblePoint", 7: "NoFeasiblePoint", **({1: "NonFinite"} if broken else {})}

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
        # A flag's error does not name the scenario document.
        assert main(["simulate", str(scenario_file), flag, "0"]) == 2
        assert assert_one_error_line(capsys) == f"error: {flag[2:]} must be >= 1, got 0"

    def test_missing_scenario_exit_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.json")]) == 2
        assert "nope.json" in assert_one_error_line(capsys)

    def test_negative_seed_exit_2(self, scenario_file, capsys):
        assert main(["simulate", str(scenario_file), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    def test_all_replicates_failing_gives_strict_json(self, scenario_file, tmp_path):
        # N = 2 < p + 1: every replicate's dataset fails to build, and each
        # failure is a record, not an exit. The metrics have no finite value.
        doc = json.loads(scenario_file.read_text())
        doc["n_dim"] = 2
        scenario_file.write_text(json.dumps(doc))
        out = tmp_path / "sim.json"
        assert main(["simulate", str(scenario_file), "--output", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["metrics"]["failure_counts"] == {"DimensionMismatch": 2}
        assert all(
            value is None for m in report["metrics"]["per_forcing"] for key, value in m.items() if key != "index"
        )


    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("model", list(UNBUILDABLE))
    def test_unbuildable_model_exit_2_before_any_worker(self, scenario_file, model, jobs, capsys, monkeypatch):
        # Sigma's root and the fingerprints are built once per run, before
        # the replicates are split over processes; the line names the
        # scenario document, like every load-time error, then the model.
        def no_workers(*args, **kwargs):
            raise AssertionError("a worker started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_workers)
        sigma = np.eye(12)
        sigma[0, 1] = sigma[1, 0] = 2.0  # eigenvalue -1
        write_matrix(scenario_file.parent / "not_psd.txt", sigma)
        write_matrix(scenario_file.parent / "wrong_shape.txt", np.eye(11))
        doc = json.loads(scenario_file.read_text())
        if model == "correlation":
            doc.update(true_beta=[1.0] * 3, ensemble_sizes=[3, 5, 4])
            doc["true_x"] = {"kind": "synthetic", "seed": 3, "column_correlation": -0.9}
        else:
            doc["sigma_model"] = {"kind": "user_matrix", "path": f"{model}.txt"}
        scenario_file.write_text(json.dumps(doc))
        assert main(["simulate", str(scenario_file), "--jobs", jobs]) == 2
        path = scenario_file.parent / f"{model}.txt"
        assert assert_one_error_line(capsys) == f"error: {scenario_file}: " + UNBUILDABLE[model].format(path=path)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "changes",
        [
            {"sigma_model": {**SEPARABLE, "variances": [1.0, float("inf")] + [1.0] * 10}},
            {"sigma_model": {**SEPARABLE, "variances": [float("nan")] + [1.0] * 11}},
            {"sigma_model": {**SEPARABLE, "variances": [1.0] * 11}},
            {"sigma_model": {**SEPARABLE, "rho_spatial": float("nan")}},
            {"sigma_model": {"kind": "unstructured", "seed": 2, "condition_number": float("inf")}},
            {"sigma_model": {"kind": "unstructured", "seed": 2, "condition_number": float("nan")}},
            {"m_runs": 10**30},
            {"gamma": float("inf")},
            {"true_beta": [float("nan"), 1.0]},
        ],
    )
    def test_bad_scenario_number_exit_2_at_load(self, scenario_file, changes, jobs, capsys):
        # Rejected when the document is read, before any replicate, so the line
        # names it whatever --jobs is: a report could not hold a non-finite
        # number as JSON.
        doc = json.loads(scenario_file.read_text())
        scenario_file.write_text(json.dumps({**doc, **changes}))
        assert main(["simulate", str(scenario_file), "--jobs", jobs]) == 2
        assert assert_one_error_line(capsys).startswith(f"error: {scenario_file}: ")


class TestNonIntegerCounts:
    """A count that is not an integer exits 2 with one line; it is never truncated."""

    @pytest.mark.parametrize(
        "changes",
        [
            {"ensemble_sizes": [35.7, 46.2]},
            {"ensemble_sizes": [35.0, 46]},
            {"ensemble_sizes": [True, 46]},
            {"sample_cov": "s.txt", "m_runs": 20.9},
            {"sample_cov": "s.txt", "m_runs": 20.0},
        ],
    )
    def test_manifest(self, manifest, changes, capsys):
        doc = json.loads(manifest.read_text())
        if "sample_cov" in changes:
            write_matrix(manifest.parent / "s.txt", np.eye(16))
            del doc["control_runs"]
        manifest.write_text(json.dumps({**doc, **changes}))
        assert main(["fit", str(manifest)]) == 2
        assert "must be an integer" in assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "changes",
        [
            {"n_dim": 12.7},
            {"m_runs": 24.5},
            {"replicates": 2.5},
            {"base_seed": 17.9},
            {"ensemble_sizes": [3.5, 5]},
            {"n_dim": 12.0},
            {"true_x": {"kind": "synthetic", "seed": 3.0}},
            {"sigma_model": {"kind": "unstructured", "seed": 2.5}},
            {"sigma_model": {"kind": "separable_ar1", "spatial_dim": 3.0, "temporal_dim": 4,
                             "rho_spatial": 0.1, "rho_temporal": 0.1}},
            {"sigma_model": {"kind": "separable_ar1", "spatial_dim": 3, "temporal_dim": 4.5,
                             "rho_spatial": 0.1, "rho_temporal": 0.1}},
        ],
    )
    def test_scenario(self, scenario_file, changes, capsys):
        doc = json.loads(scenario_file.read_text())
        scenario_file.write_text(json.dumps({**doc, **changes}))
        assert main(["simulate", str(scenario_file)]) == 2
        assert "must be an integer" in assert_one_error_line(capsys)


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
