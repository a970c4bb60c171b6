import re
import warnings

import numpy as np
import pytest

import finprint as fp
import oracles
from finprint import simulate
from finprint.spectral import rmt_grid


class TestSeparableAr1Sigma:
    def test_two_sites_one_step(self):
        sigma = fp.SeparableAr1Sigma(2, 1, 0.1, 0.5).build(2)
        np.testing.assert_allclose(sigma, [[1.0, 0.1], [0.1, 1.0]])

    def test_zero_correlation_gives_diagonal(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        sigma = fp.SeparableAr1Sigma(2, 2, 0.0, 0.0, v).build(4)
        np.testing.assert_allclose(sigma, np.diag(v))

    def test_kronecker_cross_entry(self):
        sigma = fp.SeparableAr1Sigma(2, 2, 0.1, 0.5).build(4)
        # coordinates (s, t): k = 2s + t; entry between (0,0) and (1,1)
        assert sigma[0, 3] == pytest.approx(0.1 * 0.5)

    def test_invalid_correlation(self):
        with pytest.raises(fp.OutOfDomain, match=r"AR\(1\) coefficient must satisfy \|rho\| < 1, got 1.5"):
            fp.SeparableAr1Sigma(2, 2, 1.5, 0.1)
        with pytest.raises(fp.OutOfDomain, match=r"AR\(1\) coefficient must satisfy \|rho\| < 1, got 1.0"):
            fp.SeparableAr1Sigma(2, 2, 0.1, 1.0)

    def test_positive_variances_required(self):
        with pytest.raises(fp.OutOfDomain, match="variances must be positive"):
            fp.SeparableAr1Sigma(2, 1, 0.1, 0.0, [1.0, -1.0])

    def test_variances_length_checked_on_construction(self):
        message = r"variances must have length spatial_dim \* temporal_dim = 4, got 3"
        with pytest.raises(fp.DimensionMismatch, match=message):
            fp.SeparableAr1Sigma(2, 2, 0.1, 0.1, [1.0, 2.0, 3.0])

    def test_positive_definite(self):
        sigma = fp.SeparableAr1Sigma(8, 6, 0.1, 0.1).build(48)
        assert np.linalg.eigvalsh(sigma).min() > 0

    @pytest.mark.parametrize(
        "model",
        [
            fp.SeparableAr1Sigma(8, 6, 0.1, 0.1),
            fp.SeparableAr1Sigma(1, 1, 0.5, -0.5),
            fp.SeparableAr1Sigma(7, 3, -0.83, 0.999, tuple(np.linspace(0.5, 3.0, 21))),
            fp.SeparableAr1Sigma(13, 1, 0.0, 0.3),
        ],
    )
    def test_equals_scipy_toeplitz_kronecker(self, model):
        toeplitz = pytest.importorskip("scipy.linalg").toeplitz
        spatial = toeplitz(model.rho_spatial ** np.arange(model.spatial_dim))
        temporal = toeplitz(model.rho_temporal ** np.arange(model.temporal_dim))
        expected = np.kron(spatial, temporal)
        if model.variances is not None:
            root_v = np.sqrt(np.asarray(model.variances))
            expected = expected * np.outer(root_v, root_v)
        assert np.array_equal(model.build(model.spatial_dim * model.temporal_dim), expected)


class TestUnstructuredSigma:
    def test_seeded_and_spd(self):
        s1 = fp.UnstructuredSigma(seed=4).build(16)
        s2 = fp.UnstructuredSigma(seed=4).build(16)
        np.testing.assert_array_equal(s1, s2)
        eigvals = np.linalg.eigvalsh(s1)
        assert eigvals.min() > 0
        assert eigvals[-1] / eigvals[0] == pytest.approx(1e3, rel=1e-6)
        assert eigvals.mean() == pytest.approx(1.0)

    def test_condition_number_below_one_rejected(self):
        with pytest.raises(fp.OutOfDomain, match=r"condition_number must be finite and >= 1, got 0.5"):
            fp.UnstructuredSigma(seed=4, condition_number=0.5)


def small_scenario(**overrides):
    base = dict(
        n_dim=12,
        true_beta=(1.0, 1.0),
        gamma=1.0,
        ensemble_sizes=(3, 5),
        m_runs=24,
        sigma_model=fp.IdentitySigma(),
        true_x=fp.SyntheticFingerprints(seed=2),
        replicates=4,
        base_seed=11,
    )
    base.update(overrides)
    return fp.SimulationScenario(**base)


class TestGenerateReplicate:
    def test_noise_free_when_sigma_is_zero(self, tmp_path):
        from finprint.io import write_matrix

        sigma_path = tmp_path / "sigma_zero.txt"
        write_matrix(sigma_path, np.zeros((12, 12)))
        scn = small_scenario(sigma_model=fp.UserMatrixSigma(path=str(sigma_path)))
        x = scn.true_x.build(scn.n_dim, 2)
        ds = fp.generate_replicate(scn, 0)
        np.testing.assert_allclose(ds.y, x @ np.array([1.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(ds.x_tilde, x, atol=1e-12)
        np.testing.assert_array_equal(ds.control_runs, np.zeros((12, 24)))

    def test_zero_gamma_gives_pure_noise(self):
        scn = small_scenario(gamma=0.0)
        ds = fp.generate_replicate(scn, 0)
        # no signal at all: the fingerprint estimate is pure measurement noise
        noise = fp.generate_replicate(small_scenario(gamma=0.0), 0)
        np.testing.assert_array_equal(ds.x_tilde, noise.x_tilde)
        x = scn.true_x.build(12, 2)
        assert np.linalg.norm(ds.x_tilde) > 0
        corr = np.corrcoef(ds.y, x @ np.array([1.0, 1.0]))[0, 1]
        assert abs(corr) < 0.9

    def test_deterministic(self):
        scn = small_scenario()
        a = fp.generate_replicate(scn, 3)
        b = fp.generate_replicate(scn, 3)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x_tilde, b.x_tilde)
        np.testing.assert_array_equal(a.control_runs, b.control_runs)

    def test_replicates_differ(self):
        scn = small_scenario()
        a = fp.generate_replicate(scn, 0)
        b = fp.generate_replicate(scn, 1)
        assert not np.array_equal(a.y, b.y)
        assert not np.array_equal(a.control_runs, b.control_runs)

    def test_control_run_variances_follow_sigma(self):
        scn = small_scenario(
            n_dim=2, true_beta=(1.0,), ensemble_sizes=(3,), m_runs=100_000, replicates=1,
            sigma_model=fp.SeparableAr1Sigma(2, 1, 0.0, 0.0, (1.0, 4.0)),
        )
        variances = fp.generate_replicate(scn, 0).control_runs.var(axis=1)
        assert 0.97 <= variances[0] <= 1.03
        assert 0.97 * 4.0 <= variances[1] <= 1.03 * 4.0

    def test_not_psd_sigma_rejected(self, tmp_path):
        from finprint.io import write_matrix

        sigma = np.eye(12)
        sigma[0, 1] = sigma[1, 0] = 2.0  # eigenvalue -1
        write_matrix(tmp_path / "sigma.txt", sigma)
        scn = small_scenario(sigma_model=fp.UserMatrixSigma(path=str(tmp_path / "sigma.txt")))
        with pytest.raises(fp.NotPSD, match="below tolerance"):
            fp.generate_replicate(scn, 0)

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
    def test_not_psd_at_any_scale(self, scale):
        # An eigenvalue of -0.77 beside 0.5 ... 1.5 is not round-off at any
        # scale; the floor is relative to the largest eigenvalue.
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        eigvals = np.linspace(0.5, 1.5, 12)
        eigvals[0] = -0.77
        with pytest.raises(fp.NotPSD, match="below tolerance"):
            simulate._psd_sqrt(scale * (q * eigvals) @ q.T)
        eigvals[0] = -1e-11
        root = simulate._psd_sqrt(scale * (q * eigvals) @ q.T)
        eigvals[0] = 0.0
        np.testing.assert_allclose(root @ root, scale * (q * eigvals) @ q.T, atol=1e-12 * scale)

    def test_measurement_noise_scales_with_ensemble_size(self):
        big = small_scenario(ensemble_sizes=(10_000, 10_000), replicates=1)
        x = big.true_x.build(12, 2)
        ds = fp.generate_replicate(big, 0)
        assert np.linalg.norm(ds.x_tilde - x) < 0.5


class TestSummaries:
    def _record(self, index, beta, ci=None, covered=None, error=None):
        if error:
            return fp.simulate.ReplicateRecord(
                index=index, beta_hat=None, lambda_opt=None,
                ci_lower=None, ci_upper=None, covered=None, error=error,
            )
        ci = ci or ((0.0, 2.0),) * len(beta)
        covered = covered if covered is not None else tuple(
            lo <= 1.0 <= hi for lo, hi in ci
        )
        return fp.simulate.ReplicateRecord(
            index=index,
            beta_hat=tuple(beta),
            lambda_opt=1.0,
            ci_lower=tuple(lo for lo, _ in ci),
            ci_upper=tuple(hi for _, hi in ci),
            covered=covered,
        )

    def test_bias_and_sd(self):
        records = [self._record(i, (b,)) for i, b in enumerate((0.9, 1.1, 1.0))]
        report = fp.simulate.summarize_replicates(records, (1.0,))
        metrics = report.per_forcing[0]
        assert metrics.bias == pytest.approx(0.0, abs=1e-15)
        assert metrics.sd == pytest.approx(0.1)

    def test_single_replicate_has_no_sd(self):
        # The divisor R-1 is 0: the SD is undefined, not 0, and NumPy's
        # degrees-of-freedom warning must not fire.
        records = [self._record(0, (1.2, 0.7)), self._record(1, None, error="NoFeasiblePoint: x")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fp.simulate.summarize_replicates(records, (1.0, 1.0))
        assert all(np.isnan(m.sd) for m in report.per_forcing)
        assert [m.bias for m in report.per_forcing] == pytest.approx([0.2, -0.3])

    def test_coverage_two_of_three(self):
        cis = [((0.5, 1.5),), ((0.8, 1.2),), ((2.0, 3.0),)]
        records = [self._record(i, (1.0,), ci=c) for i, c in enumerate(cis)]
        report = fp.simulate.summarize_replicates(records, (1.0,))
        assert report.per_forcing[0].coverage_rate == pytest.approx(2.0 / 3.0)

    def test_failures_excluded_with_count(self):
        records = [
            self._record(0, (1.0,)),
            self._record(1, None, error="NoFeasiblePoint: all infeasible"),
            self._record(2, (3.0,)),
        ]
        report = fp.simulate.summarize_replicates(records, (1.0,))
        assert report.n_failed == 1
        assert report.failure_counts == {"NoFeasiblePoint": 1}
        assert report.n_replicates == 3
        assert report.per_forcing[0].bias == pytest.approx(1.0)

    def test_mean_ci_length(self):
        cis = [((0.0, 1.0),), ((0.0, 3.0),)]
        records = [self._record(i, (1.0,), ci=c) for i, c in enumerate(cis)]
        report = fp.simulate.summarize_replicates(records, (1.0,))
        assert report.per_forcing[0].mean_ci_length == pytest.approx(2.0)


class TestRunScenario:
    def test_smoke_and_aggregates(self):
        report = fp.run_scenario(small_scenario(replicates=6))
        assert report.n_replicates == 6
        assert report.n_failed == 0
        assert len(report.per_forcing) == 2
        for m in report.per_forcing:
            assert 0.0 <= m.coverage_rate <= 1.0
            assert m.sd >= 0.0
        lambdas = [r.lambda_opt for r in report.replicates]
        assert all(np.isfinite(lambdas))

    def test_parallel_matches_serial(self):
        scn = small_scenario(replicates=8)
        serial = fp.run_scenario(scn, jobs=1)
        parallel = fp.run_scenario(scn, jobs=4)
        assert serial.per_forcing == parallel.per_forcing
        assert serial.replicates == parallel.replicates

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(fp.OutOfDomain, match="jobs must be >= 1"):
            fp.run_scenario(small_scenario(replicates=2), jobs=jobs)

    @pytest.mark.parametrize("jobs", [2.5, 2.0, "2", True])
    def test_jobs_not_an_integer_rejected(self, jobs):
        # The one integer rule (dataset.as_count) for every count.
        with pytest.raises(fp.OutOfDomain, match="jobs must be an integer"):
            fp.run_scenario(small_scenario(replicates=2), jobs=jobs)

    def test_replicates_are_not_validated(self, validate_calls):
        # validate_dataset only collects warnings, which a replicate record
        # does not keep; a dataset with tr(S)/N <= 0 fails in the search.
        report = fp.run_scenario(small_scenario(replicates=3))
        assert report.n_failed == 0 and validate_calls == []

    def test_unstructured_sigma_smoke(self):
        scn = small_scenario(
            n_dim=16,
            sigma_model=fp.UnstructuredSigma(seed=3, condition_number=100.0),
            m_runs=32,
            replicates=3,
        )
        report = fp.run_scenario(scn)
        assert report.n_failed == 0
        assert all(np.isfinite(r.lambda_opt) for r in report.replicates)

    def test_identity_sigma_coverage_at_scale(self):
        # Desk-scale coverage check against the nominal 95% level.
        scn = fp.SimulationScenario(
            n_dim=48,
            true_beta=(1.0, 1.0),
            gamma=1.0,
            ensemble_sizes=(35, 46),
            m_runs=200,
            sigma_model=fp.IdentitySigma(),
            true_x=fp.SyntheticFingerprints(seed=7),
            replicates=500,
            base_seed=20260810,
        )
        report = fp.run_scenario(scn)
        assert report.n_failed == 0
        for metrics in report.per_forcing:
            assert 0.915 <= metrics.coverage_rate <= 0.975


class TestPopulationSpectrum:
    def test_weights_validated(self):
        with pytest.raises(ValueError):
            oracles.PopulationSpectrum(values=np.array([1.0]), weights=np.array([0.5]), aspect_ratio=1.0)
        with pytest.raises(ValueError):
            oracles.PopulationSpectrum(values=np.array([-1.0]), weights=np.array([1.0]), aspect_ratio=1.0)
        with pytest.raises(fp.DimensionMismatch):
            oracles.PopulationSpectrum(values=np.array([1.0, 2.0]), weights=np.array([1.0]), aspect_ratio=1.0)


class TestMpStieltjes:
    def test_unit_spectrum_square_case(self):
        spec = oracles.PopulationSpectrum(np.array([1.0]), np.array([1.0]), aspect_ratio=1.0)
        res = oracles.mp_stieltjes(spec, 1.0)
        assert res.s == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-10)

    def test_zero_aspect_ratio(self):
        spec = oracles.PopulationSpectrum(np.array([1.0]), np.array([1.0]), aspect_ratio=0.0)
        assert oracles.mp_stieltjes(spec, 1.0).s == pytest.approx(0.5, abs=1e-12)

    def test_two_spectrum_half_ratio(self):
        spec = oracles.PopulationSpectrum(np.array([2.0]), np.array([1.0]), aspect_ratio=0.5)
        assert oracles.mp_stieltjes(spec, 1.0).s == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-10)

    def test_no_convergence_budget(self):
        spec = oracles.PopulationSpectrum(np.array([1.0]), np.array([1.0]), aspect_ratio=1.0)
        with pytest.raises(oracles.NoConvergence):
            oracles.mp_stieltjes(spec, 1.0, max_iter=2)

    def test_omega2_consistent_with_derivative_identity(self):
        # omega2 == (1 + c*omega1)^2 (omega1 + lambda * omega1') with the
        # derivative taken by central differences.
        spec = oracles.PopulationSpectrum(
            np.array([1.0, 2.0]), np.array([0.5, 0.5]), aspect_ratio=0.4
        )
        lam, h = 0.8, 1e-6
        mid = oracles.mp_stieltjes(spec, lam)
        up, down = oracles.mp_stieltjes(spec, lam + h), oracles.mp_stieltjes(spec, lam - h)
        dom1 = (up.omega1 - down.omega1) / (2 * h)
        expected = (1.0 + 0.4 * mid.omega1) ** 2 * (mid.omega1 + lam * dom1)
        assert mid.omega2 == pytest.approx(expected, abs=1e-6)

    def test_trace_functionals_approach_deterministic_limits(self):
        # theta1/theta2 concentrate around omega1/omega2 at N = m = 400.
        values = np.array([1.0, 2.0])
        weights = np.array([0.5, 0.5])
        sigma_diag = np.repeat(values, 200)
        hits = 0
        n_seeds = 20
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            z = np.sqrt(sigma_diag)[:, None] * rng.standard_normal((400, 400))
            cache = fp.build_cache(
                fp.compute_sample_covariance(z), np.ones((400, 1)), np.zeros(400)
            )
            spec = oracles.PopulationSpectrum(values, weights, aspect_ratio=1.0)
            ok = True
            for lam in (0.5 * cache.tau_bar, cache.tau_bar, 2.0 * cache.tau_bar):
                limits = oracles.mp_stieltjes(spec, lam)
                f = rmt_grid(cache, [lam])
                if abs(f.theta1[0] - limits.omega1) >= 0.03:
                    ok = False
                if abs(f.theta2[0] - limits.omega2) >= 0.06:
                    ok = False
            hits += ok
        assert hits >= int(0.95 * n_seeds)


class TestGlsOracle:
    def test_identity_weight_is_ols(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        ols = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(oracles.gls_oracle(y, x, np.eye(8)), ols, atol=1e-10)

    def test_noise_free_recovery(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 2))
        beta = np.array([0.4, -1.2])
        sigma = fp.SeparableAr1Sigma(7, 1, 0.3, 0.0).build(7)
        np.testing.assert_allclose(oracles.gls_oracle(x @ beta, x, sigma), beta, atol=1e-10)

    def test_matches_normal_equation_bruteforce(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        a = rng.standard_normal((6, 6))
        sigma = a @ a.T + np.eye(6)
        inv = np.linalg.inv(sigma)
        brute = np.linalg.inv(x.T @ inv @ x) @ (x.T @ inv @ y)
        np.testing.assert_allclose(oracles.gls_oracle(y, x, sigma), brute, atol=1e-10)

    def test_singular_sigma(self):
        with pytest.raises(oracles.Singular):
            oracles.gls_oracle(np.ones(3), np.ones((3, 1)), np.zeros((3, 3)))


# Each number field of a model, built from a value that replaces one valid entry.
MODEL_NUMBERS = {
    "rho_spatial": lambda v: fp.SeparableAr1Sigma(2, 2, v, 0.1),
    "rho_temporal": lambda v: fp.SeparableAr1Sigma(2, 2, 0.1, v),
    "variances": lambda v: fp.SeparableAr1Sigma(2, 2, 0.1, 0.1, (1.0, v, 1.0, 1.0)),
    "condition_number": lambda v: fp.UnstructuredSigma(seed=1, condition_number=v),
    "column_correlation": lambda v: fp.SyntheticFingerprints(seed=1, column_correlation=v),
}


# Each real field of a scenario or a model, built from a value that replaces one valid entry.
REAL_FIELDS = {
    **MODEL_NUMBERS,
    "gamma": lambda v: small_scenario(gamma=v),
    "alpha": lambda v: small_scenario(alpha=v),
    "true_beta": lambda v: small_scenario(true_beta=(1.0, v)),
}


class TestScenarioValidation:
    @pytest.mark.parametrize("value", ["0.3", None, True, 10**400])
    @pytest.mark.parametrize("field", REAL_FIELDS)
    def test_non_number_real_raises_on_construction(self, field, value):
        # One number rule for every real: an int or float becomes a float;
        # a string, None, a bool or an int past float range never does.
        REAL_FIELDS[field](0.5 if field != "condition_number" else 10)
        entry = " entry" if field in ("variances", "true_beta") else ""
        holds = " a float holds" if value == 10**400 else ""
        message = rf"^{field}{entry} must be a number{holds}, got {re.escape(repr(value))}$"
        with pytest.raises(fp.OutOfDomain, match=message):
            REAL_FIELDS[field](value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", MODEL_NUMBERS)
    def test_nonfinite_model_number_raises_on_construction(self, field, value):
        MODEL_NUMBERS[field](0.5 if field != "condition_number" else 10.0)
        with pytest.raises(fp.InputError):
            MODEL_NUMBERS[field](value)

    def test_separable_dims_must_match(self):
        # One rule and one message, whether the scenario or a direct build checks it.
        model = fp.SeparableAr1Sigma(5, 3, 0.1, 0.1)
        message = r"^spatial_dim \* temporal_dim = 15 must equal n_dim = 12$"
        with pytest.raises(fp.DimensionMismatch, match=message):
            small_scenario(sigma_model=model)
        with pytest.raises(fp.DimensionMismatch, match=message):
            model.build(12)

    def test_beta_sizes_must_match(self):
        with pytest.raises(fp.DimensionMismatch):
            small_scenario(true_beta=(1.0,))

    def test_replicates_positive(self):
        with pytest.raises(ValueError):
            small_scenario(replicates=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_dim": 0},
            {"m_runs": 0},
            {"ensemble_sizes": (0, 3)},
            {"gamma": float("nan")},
            {"base_seed": -1},
            {"true_beta": (), "ensemble_sizes": ()},
        ],
    )
    def test_ranges_checked_on_construction(self, overrides):
        # A bad value fails when the scenario is built, not when the Monte
        # Carlo loop first draws from it.
        with pytest.raises(fp.OutOfDomain):
            small_scenario(**overrides)

    @pytest.mark.parametrize("alpha", [0.0, 1.5, float("nan")])
    def test_alpha_checked_by_fit_options(self, alpha):
        with pytest.raises(fp.OutOfDomain, match=rf"^alpha must be in \(0, 1\), got {alpha}$"):
            small_scenario(alpha=alpha)

    def test_alpha_too_small_for_its_quantile_rejected(self):
        with pytest.raises(fp.OutOfDomain, match=r"^alpha = 1e-17 is too small"):
            small_scenario(alpha=1e-17)
        assert small_scenario(alpha=1e-15).alpha == 1e-15

    def test_model_fields_checked_on_construction(self):
        for bad in (dict(seed=-1), dict(seed=1.5), dict(seed=3, column_correlation=1.0)):
            with pytest.raises(fp.FinprintError):
                fp.SyntheticFingerprints(**bad)
        with pytest.raises(fp.OutOfDomain):
            fp.UnstructuredSigma(seed="a")
        with pytest.raises(ValueError):
            fp.SeparableAr1Sigma(2, 3, "a", 0.1)
