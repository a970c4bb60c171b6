import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finprint as fp
from finprint import io
from finprint.cli import _sha256
from finprint.io import SchemaError, load_dataset, read_matrix, read_vector, write_matrix
from finprint.simulate import load_scenario, scenario_from_dict, scenario_to_dict
from reference import reference_read_matrix

SRC = Path(__file__).resolve().parents[1] / "src"


class TestMatrixFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.txt"
        a = np.array([[1.5, -2.0], [0.25, 3.0]])
        write_matrix(path, a, header="test matrix")
        np.testing.assert_array_equal(read_matrix(path), a)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# header\n1.0 2.0\n# middle comment\n3.0 4.0\n")
        np.testing.assert_array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_comma_delimited(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_vector_single_column(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        np.testing.assert_array_equal(read_vector(path), [1.0, 2.0, 3.0])

    def test_vector_rejects_matrix(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1.0 2.0\n3.0 4.0\n")
        with pytest.raises(SchemaError):
            read_vector(path)

    def test_single_row_matrix(self, tmp_path):
        path = tmp_path / "row.txt"
        path.write_text("1.0 2.0 3.0\n")
        assert read_matrix(path).shape == (1, 3)


class TestNpyFiles:
    def test_matrix_roundtrip(self, tmp_path):
        a = np.arange(6.0).reshape(3, 2)
        np.save(tmp_path / "m.npy", a)
        np.testing.assert_array_equal(read_matrix(tmp_path / "m.npy"), a)

    def test_one_d_is_one_column(self, tmp_path):
        np.save(tmp_path / "v.npy", np.array([1, 2, 3]))
        assert read_matrix(tmp_path / "v.npy").shape == (3, 1)
        np.testing.assert_array_equal(read_vector(tmp_path / "v.npy"), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "a", [np.zeros((2, 2, 2)), np.array(["1", "2"]), np.array([1 + 2j])], ids=["3-d", "str", "complex"]
    )
    def test_rejects_non_numeric_or_wrong_rank(self, tmp_path, a):
        np.save(tmp_path / "bad.npy", a)
        with pytest.raises(SchemaError):
            read_matrix(tmp_path / "bad.npy")

    def test_rejects_archive_and_text_under_npy_name(self, tmp_path):
        np.savez(tmp_path / "a.npz", x=np.ones(2))
        (tmp_path / "a.npz").rename(tmp_path / "archive.npy")
        (tmp_path / "text.npy").write_text("1.0 2.0\n")
        for name in ("archive.npy", "text.npy"):
            with pytest.raises(SchemaError):
                read_matrix(tmp_path / name)


def _outcome(reader, path):
    """The array ``reader`` returns, or the text of the SchemaError it raises."""
    try:
        return reader(path)
    except SchemaError as exc:
        return str(exc)


def _delimiter_rules_differ(data: bytes) -> bool:
    """The first data row has no comma before '#' but a later data row does.

    The whole-text reader then takes a comma delimiter and ``read_matrix``
    whitespace; such a file fails to parse under both, at different rows.
    """
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return False
    rows = [line.partition("#")[0] for line in lines if line.lstrip()[:1] not in ("", "#")]
    return bool(rows) and "," not in rows[0] and any("," in row for row in rows)


def assert_reads_like_the_whole_text_reader(path: Path, data: bytes) -> None:
    path.write_bytes(data)
    streamed, whole = _outcome(read_matrix, path), _outcome(reference_read_matrix, path)
    if isinstance(whole, np.ndarray):
        assert isinstance(streamed, np.ndarray), streamed
        assert streamed.dtype == whole.dtype and streamed.shape == whole.shape
        np.testing.assert_array_equal(streamed, whole)
    elif _delimiter_rules_differ(data):  # both fail, each at its own first bad row
        assert isinstance(streamed, str) and streamed.startswith(f"{path}: not a numeric matrix file (")
    else:
        assert streamed == whole


SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
CORPUS = {
    "whitespace": b"1 2\n3 4\n",
    "tabs_and_padding": b"  1\t2  \n\t3 4\n",
    "comma": b"1,2\n3,4\n",
    "comma_and_spaces": b"1, 2\n 3 ,4\n",
    "comma_then_whitespace_row": b"1,2\n3 4\n",
    "comment_lines": b"# header\n1 2\n# middle\n3 4\n",
    "comment_after_data": b"1 2 # tail\n3 4\n",
    "comma_only_in_a_comment": b"# a, b\n1 2 # c, d\n3 4\n",
    "empty": b"",
    "comment_only": b"# only\n#  comments\n",
    "blank_only": b"  \n\t\n\n",
    "blank_line_before_comma_rows": b"  \n1,2\n",
    "nbsp_line_before_comma_rows": "\xa0\n1,2\n".encode(),
    "unit_separator_between_tokens": "1\x1f2\n".encode(),
    "crlf": b"1 2\r\n3 4\r\n",
    "lone_cr": b"1 2\r3 4\r",
    **{f"separator_{ord(sep):x}": f"1 2{sep}3 4\n".encode() for sep in SEPARATORS},
    "separator_before_data": "\u2028# c\x1c\n1,2\x853,4".encode(),
    "bom": b"\xef\xbb\xbf1 2\n3 4\n",
    "bom_before_comment": b"\xef\xbb\xbf# c\n1 2\n",
    "trailing_commas": b"1,2,\n3,4,\n",
    "trailing_spaces": b"1 2 \n3 4 \n",
    "nan_and_inf": b"nan inf\n-inf 1\n",
    "nan_and_inf_comma": b"NaN,Inf\n-inf,1e308\n",
    "ragged": b"1 2\n3\n",
    "not_a_number": b"1 x\n",
    "invalid_byte": b"1 2\n\xff 4\n",
    "truncated_sequence_at_end": b"1 2\n3 4\n\xe2\x82",
    "invalid_byte_past_a_parse_error": b"1 2\n3\n" + b"4 5\n" * 3000 + b"\xff\n",
    "invalid_byte_in_a_late_comment": b"1 2\n" * 3000 + b"# \xc3(\n",
    "first_row_without_comma": b"1\n2,3\n",
    "first_row_without_comma_after_comment": b"# c\n1 2\n3,4\n",
}
PIECES = [
    b"1", b"-2.5", b"3e1", b"nan", b"inf", b"x", b" ", b"\t", b",", b"#", b"\n", b"\r", b"\r\n",
    *(c.encode() for c in ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u2029", "\ufeff"]),
    b"\xff", b"\xe2\x82",
]


class TestAgainstWholeTextReader:
    """``read_matrix`` streams its file; the reference in ``tests/reference.py`` reads it whole."""

    @pytest.mark.parametrize("data", list(CORPUS.values()), ids=list(CORPUS))
    def test_corpus(self, tmp_path, data):
        assert_reads_like_the_whole_text_reader(tmp_path / "m.txt", data)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pieces=st.lists(st.sampled_from(PIECES), max_size=40))
    def test_fuzz(self, tmp_path, pieces):
        assert_reads_like_the_whole_text_reader(tmp_path / "m.txt", b"".join(pieces))


@pytest.fixture(scope="module")
def five_mb_matrix(tmp_path_factory):
    a = np.random.default_rng(0).standard_normal((1000, 220))
    path = tmp_path_factory.mktemp("large") / "z.txt"
    write_matrix(path, a, header="a 5 MB text matrix")
    assert path.stat().st_size >= 5_000_000
    return path, a


def _traced_peak(func, *args):
    tracemalloc.start()
    try:
        value = func(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


class TestMemory:
    def test_read_matrix_peak_is_the_array(self, five_mb_matrix):
        path, a = five_mb_matrix
        got, peak = _traced_peak(read_matrix, path)
        np.testing.assert_array_equal(got, a)
        assert peak <= 1.5 * got.nbytes, (peak, got.nbytes)

    def test_input_hash_reads_in_blocks(self, five_mb_matrix):
        path, _ = five_mb_matrix
        digest, peak = _traced_peak(_sha256, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert peak <= 2 * 2**20, peak


def write_dataset_files(tmp_path, seed=0, n=10, m=15):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = x @ np.array([1.0, 1.0]) + 0.1 * rng.standard_normal(n)
    z = rng.standard_normal((n, m))
    runs_a = x[:, [0]] + 0.1 * rng.standard_normal((n, 3))
    runs_b = x[:, [1]] + 0.1 * rng.standard_normal((n, 4))
    write_matrix(tmp_path / "y.txt", y[:, None])
    write_matrix(tmp_path / "x_tilde.txt", x)
    write_matrix(tmp_path / "control.txt", z)
    write_matrix(tmp_path / "runs_a.txt", runs_a)
    write_matrix(tmp_path / "runs_b.txt", runs_b)
    return x, y, z, runs_a, runs_b


class TestDatasetManifest:
    def test_precomputed_x_tilde(self, tmp_path):
        x, y, z, *_ = write_dataset_files(tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "y": "y.txt",
                    "x_tilde": "x_tilde.txt",
                    "ensemble_sizes": [35, 46],
                    "control_runs": "control.txt",
                }
            )
        )
        ds = load_dataset(manifest)
        np.testing.assert_allclose(ds.y, y)
        np.testing.assert_allclose(ds.x_tilde, x)
        np.testing.assert_array_equal(ds.ensemble_sizes, [35, 46])
        assert ds.m_runs == 15

    def test_forcing_runs_averaged(self, tmp_path):
        _, _, _, runs_a, runs_b = write_dataset_files(tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "y": "y.txt",
                    "forcing_runs": ["runs_a.txt", "runs_b.txt"],
                    "control_runs": "control.txt",
                }
            )
        )
        ds = load_dataset(manifest)
        np.testing.assert_allclose(ds.x_tilde[:, 0], runs_a.mean(axis=1))
        np.testing.assert_allclose(ds.x_tilde[:, 1], runs_b.mean(axis=1))
        np.testing.assert_array_equal(ds.ensemble_sizes, [3, 4])

    def test_forcing_runs_are_held_one_at_a_time(self, tmp_path, monkeypatch):
        _, _, _, runs_a, runs_b = write_dataset_files(tmp_path)
        (tmp_path / "manifest.json").write_text(
            json.dumps({"y": "y.txt", "forcing_runs": ["runs_a.txt", "runs_b.txt"], "control_runs": "control.txt"})
        )
        runs_read, alive_at_each_read = [], []

        def spy(path):
            if path.name.startswith("runs_"):
                alive_at_each_read.append(sum(ref() is not None for ref in runs_read))
                runs = read_matrix(path)
                runs_read.append(weakref.ref(runs))
                return runs
            return read_matrix(path)

        monkeypatch.setattr(io, "read_matrix", spy)
        ds = load_dataset(tmp_path / "manifest.json")
        assert alive_at_each_read == [0, 0]
        np.testing.assert_array_equal(ds.x_tilde, np.column_stack([runs_a.mean(axis=1), runs_b.mean(axis=1)]))
        np.testing.assert_array_equal(ds.ensemble_sizes, [3, 4])

    def test_precomputed_covariance(self, tmp_path):
        write_dataset_files(tmp_path)
        write_matrix(tmp_path / "s.txt", np.eye(10))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "y": "y.txt",
                    "x_tilde": "x_tilde.txt",
                    "ensemble_sizes": [3, 4],
                    "sample_cov": "s.txt",
                    "m_runs": 42,
                }
            )
        )
        ds = load_dataset(manifest)
        assert ds.control_runs is None
        assert ds.m_runs == 42
        np.testing.assert_array_equal(ds.sample_cov.s, np.eye(10))

    def test_missing_keys(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"y": "y.txt"}))
        with pytest.raises(SchemaError):
            load_dataset(manifest)

    def test_both_fingerprint_forms_rejected(self, tmp_path):
        write_dataset_files(tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "y": "y.txt",
                    "x_tilde": "x_tilde.txt",
                    "ensemble_sizes": [3, 4],
                    "forcing_runs": ["runs_a.txt"],
                    "control_runs": "control.txt",
                }
            )
        )
        with pytest.raises(SchemaError):
            load_dataset(manifest)

    def test_invalid_json(self, tmp_path):
        manifest = tmp_path / "broken.json"
        manifest.write_text("{not json")
        with pytest.raises(SchemaError):
            load_dataset(manifest)


class TestScenarioDocuments:
    def scenario_doc(self):
        return {
            "n_dim": 12,
            "true_beta": [1.0, 1.0],
            "gamma": 0.5,
            "ensemble_sizes": [3, 5],
            "m_runs": 24,
            "sigma_model": {
                "kind": "separable_ar1",
                "spatial_dim": 4,
                "temporal_dim": 3,
                "rho_spatial": 0.1,
                "rho_temporal": 0.1,
            },
            "true_x": {"kind": "synthetic", "seed": 3},
            "replicates": 5,
            "base_seed": 17,
            "alpha": 0.1,
        }

    def test_roundtrip(self, tmp_path):
        doc = self.scenario_doc()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        scn = load_scenario(path)
        assert scn.n_dim == 12
        assert scn.gamma == 0.5
        assert isinstance(scn.sigma_model, fp.SeparableAr1Sigma)
        assert scn.alpha == 0.1
        rebuilt = scenario_to_dict(scn)
        assert rebuilt["sigma_model"]["kind"] == "separable_ar1"
        assert scenario_from_dict(rebuilt) == scn

    @pytest.mark.parametrize(
        "sigma_model",
        [
            fp.IdentitySigma(),
            fp.SeparableAr1Sigma(4, 3, 0.1, -0.2),
            fp.SeparableAr1Sigma(4, 3, 0.1, 0.2, variances=tuple(range(1, 13))),
            fp.UserMatrixSigma("sigma.txt"),
            fp.UnstructuredSigma(seed=9, condition_number=50.0),
        ],
        ids=["identity", "separable_ar1", "separable_ar1_variances", "user_matrix", "unstructured"],
    )
    @pytest.mark.parametrize(
        "true_x",
        [fp.SyntheticFingerprints(seed=3, column_correlation=-0.25), fp.UserMatrixFingerprints("x.txt")],
        ids=lambda m: m.kind,
    )
    def test_every_model_kind_roundtrips(self, sigma_model, true_x):
        scn = fp.SimulationScenario(
            n_dim=12, true_beta=(1.0, 0.5), gamma=0.5, ensemble_sizes=(3, 5), m_runs=24,
            sigma_model=sigma_model, true_x=true_x, replicates=5, base_seed=17, alpha=0.1,
        )
        doc = scenario_to_dict(scn)
        assert list(doc) == [f.name for f in dataclasses.fields(fp.SimulationScenario)]
        assert list(doc["sigma_model"])[0] == "kind" and list(doc["true_x"])[0] == "kind"
        assert scenario_from_dict(json.loads(json.dumps(doc))) == scn

    def test_unknown_kind(self):
        doc = self.scenario_doc()
        doc["sigma_model"] = {"kind": "fractal"}
        with pytest.raises(SchemaError):
            scenario_from_dict(doc)

    def test_missing_key(self):
        doc = self.scenario_doc()
        del doc["gamma"]
        with pytest.raises(SchemaError):
            scenario_from_dict(doc)

    def test_bad_field(self):
        doc = self.scenario_doc()
        doc["true_x"] = {"kind": "synthetic", "sigma": 2}
        with pytest.raises(SchemaError):
            scenario_from_dict(doc)

    def test_invalid_correlation_propagates(self, tmp_path):
        doc = self.scenario_doc()
        doc["sigma_model"]["rho_spatial"] = 1.5
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        # Rejected when the scenario is loaded, with the document's path.
        message = r"scenario\.json: rho_spatial: AR\(1\) coefficient must satisfy \|rho\| < 1, got 1.5"
        with pytest.raises(SchemaError, match=message):
            load_scenario(path)

    def test_unstructured_kind(self):
        doc = self.scenario_doc()
        doc["sigma_model"] = {"kind": "unstructured", "seed": 9, "condition_number": 50.0}
        scn = scenario_from_dict(doc)
        assert isinstance(scn.sigma_model, fp.UnstructuredSigma)
        sigma = scn.sigma_model.build(12)
        eigvals = np.linalg.eigvalsh(sigma)
        assert eigvals.min() > 0

    def test_user_matrix_paths_resolve_relative(self, tmp_path):
        sigma = fp.SeparableAr1Sigma(4, 3, 0.1, 0.1).build(12)
        write_matrix(tmp_path / "sigma.txt", sigma)
        doc = self.scenario_doc()
        doc["sigma_model"] = {"kind": "user_matrix", "path": "sigma.txt"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        scn = load_scenario(path)
        np.testing.assert_allclose(scn.sigma_model.build(12), sigma)


class TestUtf8WhateverTheLocale:
    """Matrix and JSON files are UTF-8 text, read and written as such under any locale."""

    def test_utf8_files_load_under_the_c_locale(self, tmp_path):
        # LC_ALL=C without UTF-8 mode makes the locale's encoding ASCII.
        (tmp_path / "m.txt").write_bytes("# café\n1 2\n3 4\n".encode("utf-8"))
        (tmp_path / "doc.json").write_bytes('{"note": "café"}'.encode("utf-8"))
        # The child's command line and output stay ASCII: its argv and stdout use the locale too.
        code = (
            "import json, sys; from pathlib import Path; from finprint.io import read_json, read_matrix, write_matrix\n"
            "d = Path(sys.argv[1]); write_matrix(d / 'w.txt', [[5.0]], header='caf\\u00e9')\n"
            "print(json.dumps([read_matrix(d / 'm.txt').tolist(), read_json(d / 'doc.json'), read_matrix(d / 'w.txt').tolist()]))"
        )
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[[1.0, 2.0], [3.0, 4.0]], {"note": "café"}, [[5.0]]]
        assert (tmp_path / "w.txt").read_bytes().startswith("# café\n".encode("utf-8"))

    def test_fit_names_every_encoding(self, tmp_path):
        # Under -X warn_default_encoding, a text file opened without an
        # encoding raises EncodingWarning, made an error here.
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        data = tmp_path / "example"
        subprocess.run(
            [sys.executable, str(SRC.parent / "scripts" / "make_example_data.py"), str(data)],
            check=True,
            capture_output=True,
            env=env,
            timeout=120,
        )
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "finprint", "fit", str(data / "manifest.json"), "--output", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(out.read_text(encoding="utf-8"))["beta_hat"]
