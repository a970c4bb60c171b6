import numpy as np
import pytest

import finprint as fp
from conftest import random_cache
from finprint import variance
from finprint.spectral import RmtFunctionals


def make_functionals(lam=1.0, q1=0.5, q2=0.25, theta1=1.0, theta2=0.0, g1=0.25, g2=0.125):
    return RmtFunctionals(
        lam=lam,
        q1=q1,
        q2=q2,
        theta1=theta1,
        theta2=theta2,
        g1=np.atleast_2d(g1),
        g2=np.atleast_2d(g2),
    )


class TestAssemblyPieces:
    def test_delta1_scalar(self):
        f = make_functionals(g1=0.25, theta1=1.0)
        np.testing.assert_allclose(fp.delta1_hat(f, [0.1]), [[0.15]])

    def test_delta1_no_measurement_error(self):
        f = make_functionals(g1=np.array([[0.25, 0.1], [0.1, 0.3]]), g2=np.zeros((2, 2)))
        np.testing.assert_array_equal(fp.delta1_hat(f, [0.0, 0.0]), f.g1)

    def test_delta2_scalar(self):
        f = make_functionals(lam=1.0, theta1=1.0, theta2=0.0, g1=0.25, g2=0.125)
        np.testing.assert_allclose(fp.delta2_hat(f, [0.1], 4, 4), [[0.5]])

    def test_delta2_zero_fingerprints(self):
        f = make_functionals(g1=np.zeros((2, 2)), g2=np.zeros((2, 2)), theta2=0.7)
        np.testing.assert_array_equal(fp.delta2_hat(f, [0.0, 0.0], 8, 4), np.zeros((2, 2)))

    def test_k_hat_is_theta2(self):
        assert fp.k_hat(make_functionals(theta2=0.0)) == 0.0
        assert fp.k_hat(make_functionals(theta2=1.125)) == 1.125

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

    def test_xi_singular_delta1(self):
        with pytest.raises(fp.SingularDelta1):
            fp.xi_hat([1.0, 1.0], [0.1, 0.1], np.ones((2, 2)), np.eye(2), 1.0)

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
            total_k += fp.k_hat(fp.rmt_functionals(cache, lam))
            total_oracle += fp.q2(cache, lam)
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
        cache = fp.build_cache(ds.sample_covariance(), ds.x_tilde, ds.y)
        est = fp.evaluate_lambda(cache, ds.ensemble_sizes, cache.tau_bar)
        np.testing.assert_allclose(est.beta_hat, beta, atol=1e-8)
        assert np.isfinite(est.xi_hat).all()
        assert est.feasible

    def test_singular_delta1_marks_infeasible(self):
        # scale the fingerprint so g1 exactly cancels theta1 * d
        cache = random_cache(seed=5, n=8, p=1, m=12)
        lam = cache.tau_bar
        f = fp.rmt_functionals(cache, lam)
        n_size = 2.0
        scale = np.sqrt(f.theta1 / (n_size * f.g1[0, 0]))
        rng = np.random.default_rng(5)
        z = rng.standard_normal((8, 12))
        x = rng.standard_normal((8, 1)) * scale
        y = rng.standard_normal(8)
        cache2 = fp.build_cache(fp.compute_sample_covariance(z), x, y)
        est = fp.evaluate_lambda(cache2, [n_size], lam)
        assert not est.feasible
        assert est.failure is not None
        assert np.isnan(est.trace_xi)

    def test_vertical_solution_marks_infeasible(self):
        cache = fp.build_cache(
            fp.SampleCovariance(s=np.eye(4), m=8), np.zeros((4, 1)), np.array([1.0, 0, 0, 0])
        )
        est = fp.evaluate_lambda(cache, [3], 1.0)
        assert not est.feasible
        assert "orthogonal" in est.failure

    def test_degenerate_denominator_marks_infeasible(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 1))
        cache = fp.build_cache(fp.compute_sample_covariance(z), rng.standard_normal((4, 1)), rng.standard_normal(4))
        est = fp.evaluate_lambda(cache, [2], 1e-15)
        assert not est.feasible

    def test_stability_margin_recorded(self):
        cache = random_cache(seed=2)
        est = fp.evaluate_lambda(cache, [3, 5], cache.tau_bar)
        assert est.stability == pytest.approx(fp.stability_margin(cache, cache.tau_bar))

    def test_seeded_snapshot(self):
        # Regression snapshot recorded from the first verified run.
        cache = random_cache(seed=42, n=8, p=2, m=12)
        est = fp.evaluate_lambda(cache, [3, 5], 1.0)
        assert est.feasible
        np.testing.assert_allclose(
            est.beta_hat, [0.6713077408250118, -0.1226308745124174], atol=1e-12
        )
        assert est.trace_xi == pytest.approx(3.5195507647925734, abs=1e-10)
        assert est.k_hat == pytest.approx(0.17957289499725526, abs=1e-12)


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
            delta1_hat=np.tile(np.eye(2), (g, 1, 1)),
            delta2_hat=np.tile(np.eye(2), (g, 1, 1)),
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
            fp.evaluate_lambda(cache, [3, 5], lam).trace_xi if f else np.inf
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
        cache = fp.build_cache(ds.sample_covariance(), ds.x_tilde, ds.y)
        for lam in fit.curve.grid[::25]:
            np.testing.assert_allclose(
                fp.tls_fit(cache, ds.ensemble_sizes, lam).beta_hat, beta, atol=1e-8
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
        cache = fp.build_cache(ds.sample_covariance(), ds.x_tilde, ds.y)
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

    def test_validation_failure_raises(self):
        rng = np.random.default_rng(0)
        ds = fp.DetectionDataset(
            y=rng.standard_normal(2),
            x_tilde=rng.standard_normal((2, 2)),
            ensemble_sizes=[1, 1],
            control_runs=rng.standard_normal((2, 4)),
        )
        with pytest.raises(fp.DimensionMismatch):
            fp.fit_optimal(ds)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            fp.FitOptions(alpha=1.5)
        with pytest.raises(ValueError):
            fp.FitOptions(grid_size=1)
        with pytest.raises(ValueError):
            fp.FitOptions(objective="volume")

    def test_alternate_objective_runs(self, dataset_factory):
        ds = dataset_factory(seed=9)
        fit = fp.fit_optimal(ds, fp.FitOptions(objective="max_eigenvalue"))
        assert np.isfinite(fit.lambda_opt)
