import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finprint as fp
from conftest import random_cache
from finprint import variance
from finprint.spectral import RmtFunctionals, rmt_grid
from reference import trace_functionals


def make_functionals(lam=1.0, theta1=1.0, theta2=0.0, g1=0.25, g_s=0.125):
    """A one-point grid of functionals with the given values.

    The assembly never reads the TLS data Gram, so it is NaN.
    """
    g1 = np.atleast_2d(g1)
    k = g1.shape[-1] + 1
    return RmtFunctionals(
        lam=np.array([lam]),
        theta1=np.array([theta1]),
        theta2=np.array([theta2]),
        gram=np.full((1, k, k), np.nan),
        g1=g1[None],
        g_s=np.atleast_2d(g_s)[None],
        stability=np.array([1.0]),
    )


class TestAssemblyPieces:
    def test_delta1_scalar(self):
        f = make_functionals(g1=0.25, theta1=1.0)
        np.testing.assert_allclose(fp.delta1_hat(f, [0.1]), [[[0.15]]])

    def test_delta1_no_measurement_error(self):
        f = make_functionals(g1=np.array([[0.25, 0.1], [0.1, 0.3]]), g_s=np.zeros((2, 2)))
        np.testing.assert_array_equal(fp.delta1_hat(f, [0.0, 0.0]), f.g1)

    def test_delta2_scalar(self):
        # G_S = G1 - lambda * G2 = 0.25 - 0.125
        f = make_functionals(lam=1.0, theta1=1.0, theta2=0.0, g1=0.25, g_s=0.125)
        np.testing.assert_allclose(fp.delta2_hat(f, [0.1], 4, 4), [[[0.5]]])

    def test_delta2_zero_fingerprints(self):
        f = make_functionals(g1=np.zeros((2, 2)), g_s=np.zeros((2, 2)), theta2=0.7)
        np.testing.assert_array_equal(fp.delta2_hat(f, [0.0, 0.0], 8, 4), np.zeros((1, 2, 2)))

    def test_k_hat_is_theta2(self):
        cache = random_cache(seed=2)
        grid = np.geomspace(0.1, 10.0, 7) * cache.tau_bar
        curve = variance.evaluate_grid(cache, [3, 5], grid)
        usable = np.equal(curve.reason, None)
        assert usable.any()
        np.testing.assert_array_equal(curve.k_hat[usable], rmt_grid(cache, grid).theta2[usable])

    def test_xi_scalar_example(self):
        xi = fp.xi_hat(beta_hat=[1.0], d=[0.5], d1=[[2.0]], d2=[[1.0]], k=1.0)
        np.testing.assert_allclose(xi, [[0.5]])

    def test_xi_gls_sandwich_limit(self):
        # K = 0, beta = 0, D = 0: the middle collapses to Delta2.
        d1 = np.array([[2.0, 0.3], [0.3, 1.5]])
        d2 = np.array([[1.0, 0.2], [0.2, 0.8]])
        xi = fp.xi_hat(beta_hat=[0.0, 0.0], d=[0.0, 0.0], d1=d1, d2=d2, k=0.0)
        inv = np.linalg.inv(d1)
        np.testing.assert_allclose(xi, inv @ d2 @ inv, atol=1e-14)

    def test_xi_matches_direct_dense_evaluation(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 2))
        d1 = a @ a.T + np.eye(2)
        b = rng.standard_normal((2, 2))
        d2 = 0.5 * (b + b.T)
        beta = rng.standard_normal(2)
        d = np.array([1.0 / 3.0, 0.2])
        k = 0.9
        xi = fp.xi_hat(beta, d, d1, d2, k)
        # independent dense re-evaluation with explicit inverses
        inv1 = np.linalg.inv(d1)
        core = np.linalg.inv(np.diag(1.0 / d) + np.outer(beta, beta))
        expected = (1.0 + beta @ np.diag(d) @ beta) * inv1 @ (d2 + k * core) @ inv1
        np.testing.assert_allclose(xi, 0.5 * (expected + expected.T), atol=1e-12)

    def test_k_hat_matches_trace_oracle_monte_carlo(self):
        # For Sigma = I the target trace tr(shrunk^-1 Sigma shrunk^-1 Sigma)/N
        # reduces to q2; the plug-in is theta2. Means over 500 replicates
        # agree to 0.02.
        n, m, reps = 64, 128, 500
        dummy_x, dummy_y = np.zeros((n, 1)), np.zeros(n)
        total_k, total_oracle = 0.0, 0.0
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=6, spawn_key=(rep,)))
            cov = fp.compute_sample_covariance(rng.standard_normal((n, m)))
            cache = fp.build_cache(cov, dummy_x, dummy_y)
            lam = cache.tau_bar
            total_k += rmt_grid(cache, [lam]).theta2[0]
            total_oracle += trace_functionals(cache, [lam])[1][0]
        assert abs(total_k - total_oracle) / reps < 0.02

    def test_xi_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        xi = fp.xi_hat(
            rng.standard_normal(3),
            np.full(3, 0.25),
            a @ a.T + np.eye(3),
            a + a.T,
            0.4,
        )
        np.testing.assert_array_equal(xi, xi.T)


class TestEvaluateLambda:
    def test_exact_fit(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 2))
        beta = np.array([1.5, -0.5])
        ds = fp.DetectionDataset(
            y=x @ beta,
            x_tilde=x,
            ensemble_sizes=[4, 9],
            control_runs=rng.standard_normal((10, 14)),
        )
        cache = fp.build_cache(fp.compute_sample_covariance(ds.control_runs), ds.x_tilde, ds.y)
        est = fp.evaluate_lambda(cache, ds.ensemble_sizes, cache.tau_bar)
        np.testing.assert_allclose(est.beta_hat[0], beta, atol=1e-8)
        assert np.isfinite(est.xi_hat).all()
        assert est.feasible[0]

    def test_singular_delta1_marks_infeasible(self):
        # scale the fingerprint so g1 exactly cancels theta1 * d
        cache = random_cache(seed=5, n=8, p=1, m=12)
        lam = cache.tau_bar
        f = rmt_grid(cache, [lam])
        n_size = 2.0
        scale = np.sqrt(f.theta1[0] / (n_size * f.g1[0, 0, 0]))
        rng = np.random.default_rng(5)
        z = rng.standard_normal((8, 12))
        x = rng.standard_normal((8, 1)) * scale
        y = rng.standard_normal(8)
        cache2 = fp.build_cache(fp.compute_sample_covariance(z), x, y)
        est = fp.evaluate_lambda(cache2, [n_size], lam)
        assert not est.feasible[0]
        assert est.reason[0] == "singular_delta1"
        assert np.isnan(est.xi_hat).all()

    def test_vertical_solution_marks_infeasible(self):
        cache = fp.build_cache(
            fp.SampleCovariance(s=np.eye(4), m=8), np.zeros((4, 1)), np.array([1.0, 0, 0, 0])
        )
        est = fp.evaluate_lambda(cache, [3], 1.0)
        assert not est.feasible[0]
        assert est.reason[0] == "vertical_solution"

    def test_degenerate_denominator_marks_infeasible(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 1))
        cache = fp.build_cache(fp.compute_sample_covariance(z), rng.standard_normal((4, 1)), rng.standard_normal(4))
        est = fp.evaluate_lambda(cache, [2], 1e-15)
        assert not est.feasible[0]
        assert est.reason[0] == "degenerate_denominator"

    def test_stability_margin_recorded(self):
        cache = random_cache(seed=2)
        est = fp.evaluate_lambda(cache, [3, 5], cache.tau_bar)
        assert est.stability[0] == pytest.approx(rmt_grid(cache, [cache.tau_bar]).stability[0])

    def test_seeded_snapshot(self):
        # Regression snapshot recorded from the first verified run.
        cache = random_cache(seed=42, n=8, p=2, m=12)
        est = fp.evaluate_lambda(cache, [3, 5], 1.0)
        assert est.feasible[0]
        np.testing.assert_allclose(
            est.beta_hat[0], [0.6713077408250118, -0.1226308745124174], atol=1e-12
        )
        assert np.trace(est.xi_hat[0]) == pytest.approx(3.5195507647925734, abs=1e-10)
        assert est.k_hat[0] == pytest.approx(0.17957289499725526, abs=1e-12)


class TestSelectLambda:
    def _curve(self, traces_by_lambda):
        # The selection rule lives on LambdaCurve: build one from stacked
        # arrays whose xi traces are the given values.
        grid = np.array(sorted(traces_by_lambda))
        traces = np.array([traces_by_lambda[lam] for lam in grid])
        g = len(grid)
        return variance.LambdaCurve(
            grid=grid,
            beta_hat=np.zeros((g, 2)),
            k_hat=np.zeros(g),
            xi_hat=np.stack([np.diag([t / 2, t / 2]) for t in traces]),
            stability=np.ones(g),
            reason=np.array([None if np.isfinite(t) else "singular_delta1" for t in traces]),
        )

    def test_minimum_selected(self):
        curve = self._curve({0.1: 3.0, 1.0: 2.0, 10.0: 5.0})
        assert curve.chosen_lambda == pytest.approx(1.0)
        assert curve.objective[curve.chosen_index] == 2.0

    def test_tie_breaks_to_smallest_lambda(self):
        curve = self._curve({0.1: 2.0, 1.0: 2.0, 10.0: 5.0})
        assert curve.chosen_lambda == pytest.approx(0.1)

    def test_infeasible_points_skipped(self):
        curve = self._curve({0.1: np.inf, 1.0: 4.0, 10.0: np.inf})
        assert curve.chosen_lambda == pytest.approx(1.0)
        assert list(curve.feasible) == [False, True, False]

    def test_no_feasible_point(self):
        cache = fp.build_cache(
            fp.SampleCovariance(s=np.eye(4), m=8), np.zeros((4, 1)), np.array([1.0, 0, 0, 0])
        )
        with pytest.raises(fp.NoFeasiblePoint):
            fp.select_lambda(cache, [3], bounds=(0.5, 2.0), grid_size=4)

    def test_grid_is_log_spaced_and_inclusive(self, cache_factory):
        curve = fp.select_lambda(cache_factory(), [3, 5], bounds=(0.2, 20.0), grid_size=7)
        assert curve.grid[0] == pytest.approx(0.2)
        assert curve.grid[-1] == pytest.approx(20.0)
        ratios = curve.grid[1:] / curve.grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0])

    def test_chosen_matches_exhaustive_argmin(self, cache_factory):
        cache = cache_factory(seed=10)
        curve = fp.select_lambda(cache, [3, 5], grid_size=25)
        recomputed = [
            np.trace(fp.evaluate_lambda(cache, [3, 5], lam).xi_hat[0]) if f else np.inf
            for lam, f in zip(curve.grid, curve.feasible)
        ]
        assert curve.chosen_index == int(np.argmin(recomputed))
        # objective at chosen point <= every feasible value, exactly
        feasible_values = curve.objective[curve.feasible]
        assert (curve.objective[curve.chosen_index] <= feasible_values).all()
        assert (feasible_values > 0).all()

    def test_bad_bounds(self, cache_factory):
        with pytest.raises(ValueError):
            fp.select_lambda(cache_factory(), [3, 5], bounds=(1.0, 0.5))
        with pytest.raises(ValueError):
            fp.select_lambda(cache_factory(), [3, 5], bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            fp.select_lambda(cache_factory(), [3, 5], grid_size=1)

    @pytest.mark.parametrize("m", [5, 20], ids=["null_block", "dense"])
    def test_lambda_max_ceiling(self, dataset_factory, m):
        # (tau_bar/lambda)^2 is subnormal above tau_bar/sqrt(tiny); with
        # tau_bar near 1, tau_bar/lambda^2 is still normal at half that.
        ds = dataset_factory(n=12, m=m)
        cache = fp.build_cache(ds.control_runs, ds.x_tilde, ds.y)
        limit = cache.tau_bar / np.sqrt(np.finfo(float).tiny)
        with pytest.raises(fp.OutOfDomain, match="lambda_max"):
            fp.select_lambda(cache, [3, 5], bounds=(cache.tau_bar, 2.0 * limit))
        fp.select_lambda(cache, [3, 5], bounds=(cache.tau_bar, 0.5 * limit))

    @pytest.mark.parametrize("m", [5, 20], ids=["null_block", "dense"])
    def test_lambda_min_floor(self, dataset_factory, m):
        # N/lambda_min^2 must stay finite at N = 12: 12/1e-154^2 overflows
        # float64, 12/1e-153^2 does not. The upper bound 1e150 is below the
        # lambda_max rule's limit on this data (tau_bar ~ 1).
        ds = dataset_factory(n=12, m=m)
        cache = fp.build_cache(ds.control_runs, ds.x_tilde, ds.y)
        with pytest.raises(fp.OutOfDomain, match="lambda_min"):
            fp.select_lambda(cache, [3, 5], bounds=(1e-154, 1e150))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fp.select_lambda(cache, [3, 5], bounds=(1e-153, 1e150))


class TestFitOptimal:
    def test_exact_fit_recovers_truth(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((12, 2))
        beta = np.array([2.0, -1.0])
        ds = fp.DetectionDataset(
            y=x @ beta,
            x_tilde=x,
            ensemble_sizes=[4, 6],
            control_runs=rng.standard_normal((12, 20)),
        )
        fit = fp.fit_optimal(ds)
        np.testing.assert_allclose(fit.beta_hat, beta, atol=1e-8)
        # with an exact fit every lambda recovers the same coefficients
        cache = fp.build_cache(fp.compute_sample_covariance(ds.control_runs), ds.x_tilde, ds.y)
        for lam in fit.curve.grid[::25]:
            np.testing.assert_allclose(
                fp.tls_fit(cache, ds.ensemble_sizes, lam)[0][0], beta, atol=1e-8
            )

    def test_rescaling_data_leaves_beta_unchanged(self, dataset_factory):
        ds = dataset_factory(seed=3)
        fit = fp.fit_optimal(ds)
        c = 3.7
        scaled = fp.DetectionDataset(
            y=c * ds.y,
            x_tilde=c * ds.x_tilde,
            ensemble_sizes=ds.ensemble_sizes,
            control_runs=c * ds.control_runs,
        )
        fit_scaled = fp.fit_optimal(scaled)
        np.testing.assert_allclose(fit_scaled.beta_hat, fit.beta_hat, atol=1e-8)
        assert fit_scaled.curve.chosen_index == fit.curve.chosen_index
        assert fit_scaled.lambda_opt == pytest.approx(c**2 * fit.lambda_opt, rel=1e-10)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 2),
        st.integers(4, 12),
        st.booleans(),
        st.floats(-3.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    # tau_bar near c^2 = 1e-152 and 1e-200: N/lambda_min^2 overflows at the
    # default lambda_min, yet the grid relative to tau_bar is unchanged.
    @example(seed=0, p=2, n=8, low_rank=False, log_c=-76.0)
    @example(seed=0, p=2, n=8, low_rank=True, log_c=-100.0)
    def test_rotation_and_scale_invariance(self, seed, p, n, low_rank, log_c):
        # Z -> cQZ, X~ -> cQX~, y -> cQy with Q orthogonal: S -> c^2 Q S Q^T,
        # so the default grid scales by c^2, every data Gram W^-1 form is
        # unchanged, and so are beta and Xi. m < N fits from the SVD of Z.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, n)) if low_rank else int(rng.integers(n, 2 * n + 1))
        x = rng.standard_normal((n, p))
        ds = fp.DetectionDataset(
            y=x.sum(axis=1) + rng.standard_normal(n),
            x_tilde=x,
            ensemble_sizes=rng.integers(1, 50, size=p),
            control_runs=rng.standard_normal((n, m)),
        )
        q = np.linalg.qr(rng.standard_normal((n, n)))[0] * 10.0**log_c
        moved = fp.DetectionDataset(
            y=q @ ds.y, x_tilde=q @ ds.x_tilde, ensemble_sizes=ds.ensemble_sizes, control_runs=q @ ds.control_runs
        )
        try:
            fit = fp.fit_optimal(ds)
        except fp.NoFeasiblePoint:
            with pytest.raises(fp.NoFeasiblePoint):
                fp.fit_optimal(moved)
            return
        curve = fp.fit_optimal(moved).curve
        # Points whose objectives tie to round-off may trade places; values
        # are compared at the original's choice. Scaling factors are read
        # against 0 and 1, so beta's tolerance is relative to max(1, |beta|).
        i, j = fit.curve.chosen_index, curve.chosen_index
        assert i == j or np.isclose(fit.curve.objective[i], curve.objective[j], rtol=1e-9, atol=0.0)
        beta_scale = max(1.0, np.abs(fit.beta_hat).max())
        np.testing.assert_allclose(curve.beta_hat[i], fit.beta_hat, rtol=0.0, atol=1e-12 * beta_scale)
        np.testing.assert_allclose(curve.xi_hat[i], fit.xi_hat, rtol=0.0, atol=1e-10 * np.abs(fit.xi_hat).max())
        assert curve.grid[i] == pytest.approx(10.0 ** (2 * log_c) * fit.lambda_opt, rel=1e-12)

    @pytest.mark.parametrize("m", [20, 6], ids=["m>=N", "m<N"])
    @pytest.mark.parametrize("c", [1e-76, 1e-100, 1e-152])
    def test_tiny_scale_fits_like_unit_scale(self, dataset_factory, c, m):
        # tau_bar ~ c^2 reaches 1e-304 here. The default bounds are relative
        # to it, so the fit is the unit-scale fit with lambda scaled by c^2.
        ds = dataset_factory(seed=3, m=m)
        fit = fp.fit_optimal(ds)
        scaled = fp.DetectionDataset(
            y=c * ds.y, x_tilde=c * ds.x_tilde, ensemble_sizes=ds.ensemble_sizes, control_runs=c * ds.control_runs
        )
        fit_scaled = fp.fit_optimal(scaled)
        assert fit_scaled.curve.chosen_index == fit.curve.chosen_index
        np.testing.assert_allclose(fit_scaled.beta_hat, fit.beta_hat, rtol=0.0, atol=1e-12)
        assert fit_scaled.lambda_opt == pytest.approx(c**2 * fit.lambda_opt, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e-154, 1e-156, 1e-158, 1e-160])
    def test_subnormal_tau_bar_out_of_domain(self, dataset_factory, c):
        # These c put tau_bar among the subnormals, where 1/lambda_min or
        # (tau_bar/lambda_min)^2 overflows: the bound check rejects the
        # default lambda_min before any weight is formed.
        ds = dataset_factory(seed=3)
        scaled = fp.DetectionDataset(
            y=c * ds.y, x_tilde=c * ds.x_tilde, ensemble_sizes=ds.ensemble_sizes, control_runs=c * ds.control_runs
        )
        assert 0.0 < scaled.tau_bar < np.finfo(float).tiny
        with pytest.raises(fp.OutOfDomain, match="lambda_min"):
            fp.fit_optimal(scaled)

    def test_forcing_permutation_equivariance(self, dataset_factory):
        ds = dataset_factory(seed=4, ensemble_sizes=(3, 7))
        fit = fp.fit_optimal(ds)
        perm = [1, 0]
        permuted = fp.DetectionDataset(
            y=ds.y,
            x_tilde=ds.x_tilde[:, perm],
            ensemble_sizes=ds.ensemble_sizes[perm],
            control_runs=ds.control_runs,
        )
        fit_perm = fp.fit_optimal(permuted)
        np.testing.assert_allclose(fit_perm.beta_hat, fit.beta_hat[perm], atol=1e-10)
        np.testing.assert_allclose(
            fit_perm.xi_hat, fit.xi_hat[np.ix_(perm, perm)], atol=1e-10
        )
        assert fit_perm.lambda_opt == fit.lambda_opt

    def test_default_bounds_and_grid(self, dataset_factory):
        ds = dataset_factory(seed=5)
        fit = fp.fit_optimal(ds)
        cache = fp.build_cache(fp.compute_sample_covariance(ds.control_runs), ds.x_tilde, ds.y)
        assert len(fit.curve.grid) == 100
        assert fit.curve.grid[0] == pytest.approx(0.01 * cache.tau_bar)
        assert fit.curve.grid[-1] == pytest.approx(10.0 * cache.tau_bar)

    def test_intervals_bracket_estimates(self, dataset_factory):
        fit = fp.fit_optimal(dataset_factory(seed=6))
        for i, (lower, upper) in enumerate(fit.intervals):
            assert lower <= fit.beta_hat[i] <= upper

    def test_sigma_st_snapshot(self):
        # Regression snapshot recorded from the first verified run.
        scn = fp.SimulationScenario(
            n_dim=12,
            true_beta=(1.0, 1.0),
            gamma=1.0,
            ensemble_sizes=(35, 46),
            m_runs=30,
            sigma_model=fp.SeparableAr1Sigma(4, 3, 0.1, 0.1),
            true_x=fp.SyntheticFingerprints(seed=7),
            replicates=1,
            base_seed=99,
        )
        fit = fp.fit_optimal(fp.generate_replicate(scn, 0))
        np.testing.assert_allclose(
            fit.beta_hat, [1.3203684953490231, 0.6605824086892935], atol=1e-12
        )
        assert fit.lambda_opt == pytest.approx(9.03820983597447, abs=1e-10)
        for i, (lower, upper) in enumerate(fit.intervals):
            assert lower <= fit.beta_hat[i] <= upper

    @pytest.mark.parametrize("m_runs", [100, 40], ids=["sample_cov", "control_runs"])
    def test_far_end_is_the_identity_weight_plateau(self, m_runs):
        # Far above tau_bar, W = S + lambda*I is lambda*I to within a double and
        # every point estimates the W ~ I fit: one objective value. A u formed
        # as one minus lambda*Q1 is round-off there, which swings the objective
        # by decades and wins the minimum. m = 40 < N = 48 fits from the
        # control runs' SVD.
        scn = fp.SimulationScenario(
            n_dim=48,
            true_beta=(1.0, 1.0),
            gamma=1.0,
            ensemble_sizes=(35, 46),
            m_runs=m_runs,
            sigma_model=fp.SeparableAr1Sigma(8, 6, 0.1, 0.1),
            true_x=fp.SyntheticFingerprints(seed=7),
            replicates=1,
            base_seed=20260810,
        )
        ds = fp.generate_replicate(scn, 0)
        tau_bar = variance.prepare_cache(ds).tau_bar
        fit = fp.fit_optimal(ds, fp.FitOptions(lambda_min=0.1 * tau_bar, lambda_max=1e40, grid_size=21))
        assert fit.lambda_opt < 1e4 * tau_bar
        far = fit.curve.feasible & (fit.curve.grid > 1e9 * tau_bar)
        assert far.sum() >= 10
        plateau = fit.curve.objective[far]
        np.testing.assert_allclose(plateau, plateau[0], rtol=1e-9)

    def test_validation_failure_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(fp.DimensionMismatch):
            ds = fp.DetectionDataset(
                y=rng.standard_normal(2),
                x_tilde=rng.standard_normal((2, 2)),
                ensemble_sizes=[1, 1],
                control_runs=rng.standard_normal((2, 4)),
            )
            fp.fit_optimal(ds)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            fp.FitOptions(alpha=1.5)
        with pytest.raises(ValueError):
            fp.FitOptions(grid_size=1)

    @pytest.mark.parametrize("alpha", [1e-17, 1e-16, 5e-324])
    def test_alpha_whose_quantile_rounds_to_one_rejected(self, alpha):
        # 1 - alpha/2 rounds to 1, so z_{1-alpha/2} cannot be formed; every
        # fit would fail after its whole grid.
        with pytest.raises(fp.OutOfDomain, match=r"^alpha = .* is too small"):
            fp.FitOptions(alpha=alpha)
        with pytest.raises(fp.OutOfDomain, match=r"^alpha = .* is too small"):
            fp.marginal_ci(1.0, 1.0, 10, alpha)

    @pytest.mark.parametrize(
        "name, value", [("lambda_min", "0.5"), ("lambda_min", True), ("lambda_max", "10"), ("alpha", "0.05")]
    )
    def test_options_numbers_follow_as_real(self, name, value):
        # A string or a bool is not converted: "0.5" was a grid from 0.5,
        # True one from 1.0, and alpha "0.05" a bare TypeError.
        with pytest.raises(fp.OutOfDomain, match=name):
            fp.FitOptions(**{name: value})
        options = fp.FitOptions(alpha=np.float32(0.25), lambda_min=np.int64(2), lambda_max=np.float64(3.0))
        assert (options.alpha, options.lambda_min, options.lambda_max) == (0.25, 2.0, 3.0)
        assert all(type(v) is float for v in (options.alpha, options.lambda_min, options.lambda_max))
