"""The stacked lambda grid against the slow per-lambda reference in reference.py."""

import warnings

import numpy as np
import pytest

import finprint as fp
from conftest import random_cache
from finprint import variance
from reference import reference_curve, reference_point

CRITERIA = ("trace", "determinant", "max_eigenvalue")
TRACE_RTOL = 1e-10


def signal_cache(seed, n, m, p):
    """Cache of a problem whose observations carry the fingerprint signal."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ np.ones(p) + 0.5 * rng.standard_normal(n)
    return fp.build_cache(fp.compute_sample_covariance(rng.standard_normal((n, m))), x, y)


def default_grid(cache, size=40):
    return np.geomspace(*variance.default_bounds(cache.tau_bar), size)


def assert_matches_reference(cache, sizes, grid, criterion="trace"):
    points, values, chosen = reference_curve(cache, sizes, grid, criterion)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the grid counts near ties instead of warning
        curve = variance.evaluate_grid(cache, sizes, grid, criterion)

    assert list(curve.reason) == [pt["reason"] for pt in points]
    np.testing.assert_array_equal(curve.feasible, np.isfinite(values))
    if chosen is not None:
        assert curve.chosen_index == chosen
    ref_trace = np.array([np.trace(pt["xi_hat"]) for pt in points])
    trace = np.trace(curve.xi_hat, axis1=1, axis2=2)
    np.testing.assert_array_equal(np.isnan(trace), np.isnan(ref_trace))
    usable = ~np.isnan(ref_trace)
    assert (np.abs(trace - ref_trace)[usable] <= TRACE_RTOL * np.abs(ref_trace[usable])).all()
    for name in ("beta_hat", "xi_hat", "k_hat", "stability"):
        ref = np.array([pt[name] for pt in points])
        finite = np.abs(ref[np.isfinite(ref)])
        atol = 1e-10 * finite.max() if finite.size else 0.0
        np.testing.assert_allclose(getattr(curve, name), ref, rtol=1e-9, atol=atol)
    degenerate = np.array([pt["reason"] == "degenerate_denominator" for pt in points])
    near_tied = np.array([pt["near_tied"] for pt in points])
    assert curve.n_near_degenerate == int((near_tied & ~degenerate).sum())
    return curve


class TestAgainstReference:
    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n, m", [(24, 12), (24, 48)], ids=["m<N", "m>=N"])
    def test_random_problems(self, n, m, p, criterion):
        for seed in range(4):
            cache = signal_cache(seed, n, m, p)
            sizes = np.arange(3, 3 + 2 * p, 2)
            assert_matches_reference(cache, sizes, default_grid(cache), criterion)

    @pytest.mark.parametrize("m_runs", [30, 100], ids=["m<N", "m>=N"])
    def test_paper_scale_replicates(self, m_runs):
        # The sigma_ST design of the Monte Carlo study (N = 48, p = 2).
        scn = fp.SimulationScenario(
            n_dim=48,
            true_beta=(1.0, 1.0),
            gamma=1.0,
            ensemble_sizes=(35, 46),
            m_runs=m_runs,
            sigma_model=fp.SeparableAr1Sigma(8, 6, 0.1, 0.1),
            true_x=fp.SyntheticFingerprints(seed=3),
            replicates=5,
            base_seed=1,
        )
        for rep in range(scn.replicates):
            ds = fp.generate_replicate(scn, rep)
            cache = fp.build_cache(ds.sample_covariance(), ds.x_tilde, ds.y)
            curve = assert_matches_reference(cache, ds.ensemble_sizes, default_grid(cache, 100))
            assert curve.feasible.all()

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_nonpositive_variance_points(self, criterion):
        # Observations unrelated to the fingerprints: a stretch of the grid
        # yields covariance estimates with a nonpositive diagonal.
        cache = random_cache(seed=16, n=23, p=3, m=34)
        grid = np.geomspace(1e-3, 10.0, 30) * cache.tau_bar
        curve = assert_matches_reference(cache, [4, 7, 1], grid, criterion)
        assert "nonpositive_variance" in list(curve.reason)
        assert None in list(curve.reason)

    def test_degenerate_before_vertical(self):
        # Rank-1 S with m = 1 < N: b -> 0 as lambda -> 0. A zero fingerprint
        # makes every point vertical too; degeneracy is reported first.
        rng = np.random.default_rng(1)
        cov = fp.compute_sample_covariance(rng.standard_normal((4, 1)))
        cache = fp.build_cache(cov, np.zeros((4, 1)), rng.standard_normal(4))
        curve = assert_matches_reference(cache, [2], np.array([1e-15, 1.0]))
        assert list(curve.reason) == ["degenerate_denominator", "vertical_solution"]

    def test_degenerate_points(self):
        rng = np.random.default_rng(1)
        cov = fp.compute_sample_covariance(rng.standard_normal((4, 1)))
        cache = fp.build_cache(cov, rng.standard_normal((4, 1)), rng.standard_normal(4))
        curve = assert_matches_reference(cache, [2], np.array([1e-15, 1e-3, 1.0]))
        assert curve.reason[0] == "degenerate_denominator"
        assert curve.reason[2] != "degenerate_denominator"

    def test_singular_delta1_point(self):
        # Scale the fingerprint so that g1 cancels theta1 * d at one lambda.
        base = random_cache(seed=5, n=8, p=1, m=12)
        lam, n_size = base.tau_bar, 2.0
        f = fp.rmt_functionals(base, lam)
        rng = np.random.default_rng(5)
        z = rng.standard_normal((8, 12))
        x = rng.standard_normal((8, 1)) * np.sqrt(f.theta1 / (n_size * f.g1[0, 0]))
        cache = fp.build_cache(fp.compute_sample_covariance(z), x, rng.standard_normal(8))
        curve = assert_matches_reference(cache, [n_size], np.array([0.5, 1.0, 2.0]) * lam)
        assert curve.reason[1] == "singular_delta1"

    def test_near_tied_minimum_counted(self):
        cache = fp.build_cache(
            fp.SampleCovariance(s=np.zeros((2, 2)), m=1),
            np.array([[1.0], [0.0]]),
            np.array([1e-9, 1.0]),
        )
        curve = assert_matches_reference(cache, [1], np.array([0.5, 1.0, 2.0]))
        assert curve.n_near_degenerate == 3

    def test_near_tie_at_degenerate_point_not_counted(self):
        # S = diag(1, 0) with m = 1 < N = 2 is degenerate at lambda = 1e-15,
        # where this fingerprint scale also makes the TLS Gram matrix ~ 1e15 * I.
        lam = 1e-15
        cache = fp.build_cache(
            fp.SampleCovariance(s=np.diag([1.0, 0.0]), m=1),
            np.array([[np.sqrt((1.0 + lam) / lam)], [0.0]]),
            np.array([0.0, 1.0]),
        )
        near_tied = fp.tls.tls_grid(cache, [1], [lam])[2]
        assert near_tied[0]
        curve = assert_matches_reference(cache, [1], np.array([lam]))
        assert list(curve.reason) == ["degenerate_denominator"]
        assert curve.n_near_degenerate == 0


class TestOnePointCase:
    @pytest.mark.parametrize("lam", [0.05, 0.4, 3.0])
    def test_evaluate_lambda_matches_reference(self, lam):
        cache = signal_cache(7, 16, 10, 2)
        est = fp.evaluate_lambda(cache, [3, 5], lam)
        ref = reference_point(cache, [3, 5], lam)
        assert est.feasible == (ref["reason"] is None)
        np.testing.assert_allclose(est.beta_hat, ref["beta_hat"], rtol=1e-10)
        np.testing.assert_allclose(est.xi_hat, ref["xi_hat"], rtol=1e-9)
        assert est.stability == pytest.approx(ref["stability"], rel=1e-12)

    def test_failure_names_the_reason(self):
        cache = fp.build_cache(
            fp.SampleCovariance(s=np.eye(4), m=8), np.zeros((4, 1)), np.array([1.0, 0, 0, 0])
        )
        est = fp.evaluate_lambda(cache, [3], 1.0)
        assert est.failure == variance.REASONS["vertical_solution"]
