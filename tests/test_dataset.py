import warnings

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

    def test_entries_near_the_largest_double_stay_finite(self):
        # A supplied S entry of 1.5e308 and a Z Z^T/m entry of 1.44e308 are
        # doubles; S plus its transpose is not, so symmetrizing halves first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            supplied = fp.SampleCovariance(s=np.full((2, 2), 1.5e308), m=3)
            built = fp.compute_sample_covariance(np.array([[1.2e154], [0.0]]))
        np.testing.assert_array_equal(supplied.s, np.full((2, 2), 1.5e308))
        np.testing.assert_array_equal(built.s, [[1.2e154**2, 0.0], [0.0, 0.0]])

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
        with pytest.raises(fp.DimensionMismatch):
            fp.DetectionDataset(
                y=rng.standard_normal(10),
                x_tilde=rng.standard_normal((9, 1)),
                ensemble_sizes=[4],
                control_runs=rng.standard_normal((9, 3)),
            )

    def test_ensemble_sizes_mismatch_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(fp.DimensionMismatch):
            fp.DetectionDataset(
                y=rng.standard_normal(6),
                x_tilde=rng.standard_normal((6, 2)),
                ensemble_sizes=[4, 5, 6],
                control_runs=rng.standard_normal((6, 3)),
            )

    def test_singular_covariance_is_warning_not_error(self, dataset_factory):
        # m < N is the normal regime in practice; the report must flag it
        # without aborting.
        ds = dataset_factory(n=12, m=5)
        warnings = fp.validate_dataset(ds)
        assert any("singular sample covariance" in w for w in warnings)
        # The rank is the grid's: the eigenvalues of the fit's one decomposition
        # left nonzero by build_cache's 1e-10 * tau_bar clamp, on either path.
        duplicated = ds.control_runs[:, [0, 1, 2, 0, 1]]
        for runs, rank in ((ds.control_runs, 5), (duplicated, 3)):
            low_rank = fp.build_cache(runs, ds.x_tilde, ds.y)
            dense = fp.build_cache(fp.compute_sample_covariance(runs), ds.x_tilde, ds.y)
            assert np.count_nonzero(low_rank.eigvals) == rank
            assert np.count_nonzero(dense.eigvals) == rank

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
        with pytest.raises(fp.DimensionMismatch, match="too small for p=2"):
            fp.DetectionDataset(
                y=rng.standard_normal(2),
                x_tilde=rng.standard_normal((2, 2)),
                ensemble_sizes=[1, 1],
                control_runs=rng.standard_normal((2, 4)),
            )


class TestDetectionDataset:
    def test_requires_control_runs_or_covariance(self):
        with pytest.raises(ValueError):
            fp.DetectionDataset(
                y=np.zeros(3), x_tilde=np.ones((3, 1)), ensemble_sizes=[1]
            )

    def test_rejects_both_control_runs_and_covariance(self):
        # m_runs and the m < N warning would come from Z while the fit used S's m.
        with pytest.raises(fp.OutOfDomain, match="exactly one of control_runs and sample_cov"):
            fp.DetectionDataset(
                y=np.zeros(3),
                x_tilde=np.ones((3, 1)),
                ensemble_sizes=[1],
                control_runs=np.ones((3, 20)),
                sample_cov=fp.SampleCovariance(s=np.eye(3), m=7),
            )

    def test_accepts_precomputed_covariance(self):
        cov = fp.SampleCovariance(s=np.eye(3), m=7)
        ds = fp.DetectionDataset(
            y=np.zeros(3), x_tilde=np.ones((3, 1)), ensemble_sizes=[1], sample_cov=cov
        )
        assert ds.m_runs == 7
        assert ds.sample_cov is cov

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


def scenario(**overrides):
    base = dict(
        n_dim=4, true_beta=(1.0,), gamma=1.0, ensemble_sizes=(4,), m_runs=4,
        sigma_model=fp.IdentitySigma(), true_x=fp.SyntheticFingerprints(seed=4),
        replicates=4, base_seed=4,
    )
    return fp.SimulationScenario(**{**base, **overrides})


# Each count or seed field, built from a value that is valid when it is the integer 4.
COUNT_FIELDS = {
    "DetectionDataset.ensemble_sizes": lambda v: fp.DetectionDataset(
        y=np.arange(3.0), x_tilde=np.ones((3, 1)), ensemble_sizes=[v], control_runs=np.ones((3, 2))
    ),
    "SampleCovariance.m": lambda v: fp.SampleCovariance(s=np.eye(3), m=v),
    "FitOptions.grid_size": lambda v: fp.FitOptions(grid_size=v),
    "SimulationScenario.n_dim": lambda v: scenario(n_dim=v),
    "SimulationScenario.m_runs": lambda v: scenario(m_runs=v),
    "SimulationScenario.replicates": lambda v: scenario(replicates=v),
    "SimulationScenario.base_seed": lambda v: scenario(base_seed=v),
    "SimulationScenario.ensemble_sizes": lambda v: scenario(ensemble_sizes=(v,)),
    "SeparableAr1Sigma.spatial_dim": lambda v: fp.SeparableAr1Sigma(v, 1, 0.1, 0.1),
    "SeparableAr1Sigma.temporal_dim": lambda v: fp.SeparableAr1Sigma(1, v, 0.1, 0.1),
    "UnstructuredSigma.seed": lambda v: fp.UnstructuredSigma(seed=v),
    "SyntheticFingerprints.seed": lambda v: fp.SyntheticFingerprints(seed=v),
}


class TestCounts:
    @pytest.mark.parametrize("field", COUNT_FIELDS)
    def test_integers_are_accepted(self, field):
        COUNT_FIELDS[field](4)
        COUNT_FIELDS[field](np.int64(4))

    @pytest.mark.parametrize("value", [4.5, 48.7, 4.0, "4", True, None])
    @pytest.mark.parametrize("field", COUNT_FIELDS)
    def test_non_integer_raises_rather_than_truncating(self, field, value):
        with pytest.raises(fp.OutOfDomain, match="must be an integer"):
            COUNT_FIELDS[field](value)

    @pytest.mark.parametrize("value", [2**63, 10**30])
    @pytest.mark.parametrize("field", COUNT_FIELDS)
    def test_above_int64_raises(self, field, value):
        COUNT_FIELDS[field](2**63 - 1)
        with pytest.raises(fp.OutOfDomain, match=rf"must be <= 9223372036854775807, got {value}$"):
            COUNT_FIELDS[field](value)

    def test_as_count(self):
        value = fp.dataset.as_count(np.int32(7), "n")
        assert value == 7 and type(value) is int
        assert fp.dataset.as_count(0, "seed", 0) == 0
        with pytest.raises(fp.OutOfDomain, match=r"^seed must be >= 0, got -1$"):
            fp.dataset.as_count(-1, "seed", 0)
        with pytest.raises(fp.OutOfDomain, match=r"^grid_size must be >= 2, got 1$"):
            fp.dataset.as_count(1, "grid_size", 2)

    def test_stored_as_python_int(self):
        scn = scenario(n_dim=np.int64(4), base_seed=np.uint8(4), ensemble_sizes=np.array([4]))
        assert all(type(v) is int for v in (scn.n_dim, scn.base_seed, *scn.ensemble_sizes))
        assert type(fp.FitOptions(grid_size=np.int16(5)).grid_size) is int
