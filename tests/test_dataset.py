import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finprint as fp


class TestComputeSampleCovariance:
    def test_two_unit_columns(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        cov = fp.compute_sample_covariance(z)
        np.testing.assert_array_equal(cov.s, 0.5 * np.eye(2))
        assert cov.m == 2

    def test_single_column_scalar(self):
        cov = fp.compute_sample_covariance(np.array([[2.0]]))
        np.testing.assert_array_equal(cov.s, [[4.0]])
        assert cov.m == 1

    def test_zero_runs_give_zero_matrix(self):
        cov = fp.compute_sample_covariance(np.zeros((3, 4)))
        np.testing.assert_array_equal(cov.s, np.zeros((3, 3)))

    def test_nonfinite_rejected(self):
        z = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(fp.NonFinite):
            fp.compute_sample_covariance(z)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_matches_bruteforce_outer_products(self, seed):
        z = np.random.default_rng(seed).standard_normal((5, 7))
        brute = sum(np.outer(z[:, j], z[:, j]) for j in range(7)) / 7
        np.testing.assert_allclose(fp.compute_sample_covariance(z).s, brute, atol=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_column_permutation(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((4, 6))
        perm = rng.permutation(6)
        s0 = fp.compute_sample_covariance(z).s
        s1 = fp.compute_sample_covariance(z[:, perm]).s
        np.testing.assert_allclose(s0, s1, atol=1e-13)

    def test_symmetric_and_psd(self):
        z = np.random.default_rng(3).standard_normal((6, 4))
        cov = fp.compute_sample_covariance(z)
        np.testing.assert_array_equal(cov.s, cov.s.T)
        assert np.linalg.eigvalsh(cov.s).min() >= -1e-10 * cov.tau_bar


class TestEnsembleMean:
    def test_two_runs(self):
        runs = np.array([[1.0, 3.0], [1.0, 3.0]])
        np.testing.assert_array_equal(fp.dataset.ensemble_mean(runs), [2.0, 2.0])

    def test_single_run_identity(self):
        runs = np.array([[1.5], [-2.0]])
        np.testing.assert_array_equal(fp.dataset.ensemble_mean(runs), [1.5, -2.0])

    def test_three_runs(self):
        runs = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 2.0]])
        np.testing.assert_array_equal(fp.dataset.ensemble_mean(runs), [1.0, 1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(fp.NonFinite):
            fp.dataset.ensemble_mean(np.array([[np.inf], [0.0]]))


class TestValidateDataset:
    def test_consistent_shapes_report_ok(self, dataset_factory):
        ds = dataset_factory()
        fp.validate_dataset(ds)
        assert ds.n_dim == 12
        assert ds.n_forcings == 2
        assert ds.m_runs == 20
        assert ds.tau_bar > 0

    def test_y_length_mismatch_raises(self):
        rng = np.random.default_rng(0)
        ds = fp.DetectionDataset(
            y=rng.standard_normal(10),
            x_tilde=rng.standard_normal((9, 1)),
            ensemble_sizes=[4],
            control_runs=rng.standard_normal((9, 3)),
        )
        with pytest.raises(fp.DimensionMismatch):
            fp.validate_dataset(ds)

    def test_ensemble_sizes_mismatch_raises(self):
        rng = np.random.default_rng(0)
        ds = fp.DetectionDataset(
            y=rng.standard_normal(6),
            x_tilde=rng.standard_normal((6, 2)),
            ensemble_sizes=[4, 5, 6],
            control_runs=rng.standard_normal((6, 3)),
        )
        with pytest.raises(fp.DimensionMismatch):
            fp.validate_dataset(ds)

    def test_singular_covariance_is_warning_not_error(self, dataset_factory):
        # m < N is the normal regime in practice; the report must flag it
        # without aborting.
        ds = dataset_factory(n=12, m=5)
        warnings = fp.validate_dataset(ds)
        assert any("singular sample covariance" in w for w in warnings)
        # The rank comes from the fit's one decomposition, on either path.
        duplicated = ds.control_runs[:, [0, 1, 2, 0, 1]]
        for runs, rank in ((ds.control_runs, 5), (duplicated, 3)):
            low_rank = fp.build_cache(runs, ds.x_tilde, ds.y)
            dense = fp.build_cache(fp.compute_sample_covariance(runs), ds.x_tilde, ds.y)
            assert low_rank.s_rank == rank
            assert dense.s_rank == rank

    def test_zero_fingerprint_column_warns(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 2))
        x[:, 1] = 0.0
        ds = fp.DetectionDataset(
            y=rng.standard_normal(8),
            x_tilde=x,
            ensemble_sizes=[2, 2],
            control_runs=rng.standard_normal((8, 10)),
        )
        warnings = fp.validate_dataset(ds)
        assert any("zero norm" in w for w in warnings)

    def test_too_few_rows_is_error(self):
        rng = np.random.default_rng(2)
        ds = fp.DetectionDataset(
            y=rng.standard_normal(2),
            x_tilde=rng.standard_normal((2, 2)),
            ensemble_sizes=[1, 1],
            control_runs=rng.standard_normal((2, 4)),
        )
        with pytest.raises(fp.DimensionMismatch, match="too small for p=2"):
            fp.validate_dataset(ds)


class TestDetectionDataset:
    def test_requires_control_runs_or_covariance(self):
        with pytest.raises(ValueError):
            fp.DetectionDataset(
                y=np.zeros(3), x_tilde=np.ones((3, 1)), ensemble_sizes=[1]
            )

    def test_accepts_precomputed_covariance(self):
        cov = fp.SampleCovariance(s=np.eye(3), m=7)
        ds = fp.DetectionDataset(
            y=np.zeros(3), x_tilde=np.ones((3, 1)), ensemble_sizes=[1], sample_cov=cov
        )
        assert ds.m_runs == 7
        assert ds.sample_covariance() is cov

    def test_rejects_nonpositive_ensemble_sizes(self):
        with pytest.raises(ValueError):
            fp.DetectionDataset(
                y=np.zeros(3),
                x_tilde=np.ones((3, 1)),
                ensemble_sizes=[0],
                control_runs=np.ones((3, 2)),
            )

    def test_nonfinite_y_rejected(self):
        with pytest.raises(fp.NonFinite):
            fp.DetectionDataset(
                y=np.array([1.0, np.nan]),
                x_tilde=np.ones((2, 1)),
                ensemble_sizes=[1],
                control_runs=np.ones((2, 2)),
            )
