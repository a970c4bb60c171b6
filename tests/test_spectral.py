import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finprint as fp
import oracles
from conftest import random_cache, random_problem
from finprint.simulate import ReplicateGenerator
from finprint.spectral import rmt_grid
from finprint.variance import prepare_cache
from reference import trace_functionals


def cache_from_matrix(s, x, y, m=10):
    return fp.build_cache(fp.SampleCovariance(s=s, m=m), x, y)


class TestBuildCache:
    def test_identity_eigenvalues(self):
        cache = cache_from_matrix(np.eye(2), np.eye(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(cache.eigvals, [1.0, 1.0])
        assert cache.tau_bar == 1.0

    @pytest.mark.parametrize("m_runs", [100, 20])
    def test_tau_bar_is_the_datasets(self, m_runs):
        # One tau_bar per input: the grid's (the cache's) is the dataset's,
        # which the fit report quotes, bit for bit, on the eigh route of the
        # paper-scale design (m = 100 >= N = 48), the QR route (m = 20) and
        # a supplied S. tr(S)/N and ||Z||^2/(mN) differ in the last digits.
        scn = fp.SimulationScenario(
            n_dim=48,
            true_beta=(1.0, 1.0),
            gamma=1.0,
            ensemble_sizes=(35, 46),
            m_runs=m_runs,
            sigma_model=fp.SeparableAr1Sigma(8, 6, 0.1, 0.1),
            true_x=fp.SyntheticFingerprints(seed=1),
            replicates=200,
            base_seed=20261019,
        )
        gen = ReplicateGenerator(scn)
        for i in range(scn.replicates):
            ds = gen.make(i)
            assert prepare_cache(ds).tau_bar == ds.tau_bar
            if i < 20:
                given = replace(ds, control_runs=None, sample_cov=fp.compute_sample_covariance(ds.control_runs))
                assert prepare_cache(given).tau_bar == given.tau_bar

    def test_eigenvalues_ascending(self):
        cache = cache_from_matrix(np.diag([0.0, 2.0]), np.ones((2, 1)), np.zeros(2))
        np.testing.assert_allclose(cache.eigvals, [0.0, 2.0])

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((6, 9))
        s = z @ z.T / 9
        cache = cache_from_matrix(s, rng.standard_normal((6, 2)), rng.standard_normal(6), m=9)
        # The cache keeps no eigenvectors; eigh of the same S gives the ones it used.
        eigvecs = np.linalg.eigh(fp.SampleCovariance(s=s, m=9).s)[1]
        rebuilt = (eigvecs * cache.eigvals) @ eigvecs.T
        np.testing.assert_allclose(rebuilt, s, atol=1e-10)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_invariants(self, seed):
        cache = random_cache(seed=seed)
        assert (cache.eigvals >= 0.0).all()
        assert abs(cache.eigvals.sum() - cache.n_dim * cache.tau_bar) <= 1e-10 * max(
            cache.eigvals.sum(), 1.0
        )
        # orthogonality of the eigenbasis preserves norms
        rng = np.random.default_rng(seed)
        rng.standard_normal((8, 12))  # skip z draw
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        assert np.linalg.norm(cache.proj_x) == pytest.approx(np.linalg.norm(x), rel=1e-8)
        assert np.linalg.norm(cache.proj_y) == pytest.approx(np.linalg.norm(y), rel=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(fp.DimensionMismatch):
            cache_from_matrix(np.eye(3), np.ones((2, 1)), np.zeros(3))

    def test_negative_eigenvalue_rejected(self):
        # tau_bar = 2/3: -2e-10 lies below the clamp's round-off scale
        # -1e-10 * tau_bar, -3e-11 inside it.
        x, y = np.ones((3, 1)), np.zeros(3)
        with pytest.raises(fp.NotPSD, match="not positive semidefinite"):
            cache_from_matrix(np.diag([-2e-10, 1.0, 1.0]), x, y)
        cache = cache_from_matrix(np.diag([-3e-11, 1.0, 1.0]), x, y)
        np.testing.assert_array_equal(cache.eigvals, [0.0, 1.0, 1.0])

    def test_null_block_gram_near_the_largest_double_is_finite(self):
        # Thin-SVD route (m < N): x = 1.2e154 e3 lies off the range of
        # Z = [e1, e2], and its null-block Gram entry 1.44e308 is a double.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = fp.build_cache(np.eye(3)[:, :2], np.array([[0.0], [0.0], [1.2e154]]), np.ones(3))
        assert cache.null_dim == 1
        np.testing.assert_array_equal(cache.null_gram, [[1.2e154**2, 1.2e154], [1.2e154, 1.0]])

    def test_eigensolver_failure_wrapped(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(fp.EigenFailure):
            cache_from_matrix(np.eye(2), np.ones((2, 1)), np.zeros(2))


class TestTraceFunctionals:
    """The Q1/Q2 trace oracle of reference.py, which C5-C8 read."""

    def test_q1_flat_spectrum(self):
        cache = cache_from_matrix(np.eye(4), np.ones((4, 1)), np.zeros(4))
        assert trace_functionals(cache, [1.0])[0][0] == pytest.approx(0.5)

    def test_q1_mixed_spectrum(self):
        cache = cache_from_matrix(np.diag([0.0, 2.0]), np.ones((2, 1)), np.zeros(2))
        assert trace_functionals(cache, [1.0])[0][0] == pytest.approx(2.0 / 3.0)

    def test_q1_scalar(self):
        cache = cache_from_matrix(np.array([[3.0]]), np.ones((1, 1)), np.zeros(1))
        assert trace_functionals(cache, [0.5])[0][0] == pytest.approx(1.0 / 3.5)

    def test_q2_flat_spectrum(self):
        cache = cache_from_matrix(np.eye(4), np.ones((4, 1)), np.zeros(4))
        assert trace_functionals(cache, [1.0])[1][0] == pytest.approx(0.25)

    def test_q2_mixed_spectrum(self):
        cache = cache_from_matrix(np.diag([0.0, 2.0]), np.ones((2, 1)), np.zeros(2))
        assert trace_functionals(cache, [1.0])[1][0] == pytest.approx((1.0 + 1.0 / 9.0) / 2.0)

    @pytest.mark.parametrize("n, m", [(12, 5), (8, 12)], ids=["m<N", "m>=N"])
    @pytest.mark.parametrize("route", ["sample_cov", "control_runs"])
    def test_against_dense_traces(self, n, m, route):
        # tr((S + lambda I)^-1)/N and tr((S + lambda I)^-2)/N from a dense
        # inverse; from control runs with m < N the cache holds m eigenvalues
        # and the null block the other N - m.
        rng = np.random.default_rng(3)
        z = rng.standard_normal((n, m))
        cov = fp.compute_sample_covariance(z)
        cache = fp.build_cache(cov if route == "sample_cov" else z, np.ones((n, 1)), np.zeros(n))
        assert cache.null_dim == (n - m if route == "control_runs" and m < n else 0)
        grid = np.array([1e-2, 1.0, 1e2]) * cache.tau_bar
        inverses = [np.linalg.inv(cov.s + lam * np.eye(n)) for lam in grid]
        q1, q2 = trace_functionals(cache, grid)
        np.testing.assert_allclose(q1, [np.trace(w) / n for w in inverses], rtol=1e-12)
        np.testing.assert_allclose(q2, [np.trace(w @ w) / n for w in inverses], rtol=1e-12)

    @given(st.integers(0, 500), st.floats(0.05, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_q2_is_negative_derivative_of_q1(self, seed, lam):
        cache = random_cache(seed=seed)
        h = 1e-5 * lam
        up, down = trace_functionals(cache, [lam + h, lam - h])[0]
        assert trace_functionals(cache, [lam])[1][0] == pytest.approx(-(up - down) / (2 * h), abs=1e-6)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_q_schwarz_and_monotone(self, seed):
        cache = random_cache(seed=seed)
        grid = np.geomspace(0.1, 10.0, 12) * max(cache.tau_bar, 1e-3)
        q1s, q2s = trace_functionals(cache, grid)
        assert (q1s > 0).all() and (q2s > 0).all()
        assert (q2s >= q1s**2 - 1e-15).all()
        assert (np.diff(q1s) < 0).all()
        assert (np.diff(q2s) < 0).all()

    def test_positive_lambda_required(self):
        cache = random_cache()
        with pytest.raises(ValueError):
            rmt_grid(cache, [0.0])
        with pytest.raises(ValueError):
            rmt_grid(cache, [1.0, -1.0])


class TestTheta:
    def test_theta1_equal_dims(self):
        cache = cache_from_matrix(np.eye(2), np.ones((2, 1)), np.zeros(2), m=2)
        assert rmt_grid(cache, [1.0]).theta1[0] == pytest.approx(1.0)

    def test_theta1_more_runs(self):
        cache = cache_from_matrix(np.eye(2), np.ones((2, 1)), np.zeros(2), m=4)
        assert rmt_grid(cache, [1.0]).theta1[0] == pytest.approx(0.5 / 0.75)

    def test_theta1_large_m_limit(self):
        cache = cache_from_matrix(np.array([[1.0]]), np.ones((1, 1)), np.zeros(1), m=10**6)
        assert rmt_grid(cache, [1.0]).theta1[0] == pytest.approx(0.5 + 2.5e-7, abs=1e-9)

    def test_theta2_equal_dims_cancels(self):
        cache = cache_from_matrix(np.eye(2), np.ones((2, 1)), np.zeros(2), m=2)
        assert rmt_grid(cache, [1.0]).theta2[0] == pytest.approx(0.0, abs=1e-14)

    def test_theta2_more_runs(self):
        cache = cache_from_matrix(np.eye(2), np.ones((2, 1)), np.zeros(2), m=4)
        assert rmt_grid(cache, [1.0]).theta2[0] == pytest.approx(0.5 / 0.75**3 - 0.25 / 0.75**4)

    def test_theta2_scalar(self):
        cache = cache_from_matrix(np.array([[2.0]]), np.ones((1, 1)), np.zeros(1), m=2)
        assert rmt_grid(cache, [1.0]).theta2[0] == pytest.approx(1.125)

    def test_theta2_vanishes_for_one_run(self):
        # With S = z z^T (m = 1) the two terms of theta2 cancel exactly; at
        # N = 40 and lambda = 0.01 * tau_bar each is ~1e9, so differencing
        # them left round-off of order 0.01 to 0.1.
        rng = np.random.default_rng(1)
        z = rng.standard_normal((40, 1))
        x, y = rng.standard_normal((40, 1)), rng.standard_normal(40)
        for cache in (fp.build_cache(z, x, y), fp.build_cache(fp.compute_sample_covariance(z), x, y)):
            grid = np.array([0.01, 1.0, 10.0]) * cache.tau_bar
            np.testing.assert_array_equal(rmt_grid(cache, grid).theta2, 0.0)

    @given(st.integers(0, 500), st.floats(0.2, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_theta2_structural_identity(self, seed, lam):
        # theta2 == (1 + (N/m) theta1)^2 (theta1 + lambda * theta1'), with the
        # derivative taken by central differences.
        cache = random_cache(seed=seed, n=6, m=9)
        h = 1e-4 * lam
        f = rmt_grid(cache, [lam, lam + h, lam - h])
        t1, up, down = f.theta1
        dtheta1 = (up - down) / (2 * h)
        ratio = cache.n_dim / cache.m_runs
        expected = (1.0 + ratio * t1) ** 2 * (t1 + lam * dtheta1)
        assert f.theta2[0] == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("n, m", [(12, 5), (8, 12)], ids=["m<N", "m>=N"])
    @pytest.mark.parametrize("route", ["sample_cov", "control_runs"])
    def test_denominator_against_dense_trace(self, n, m, route):
        # u = tr(S (S + lambda I)^-1)/N from a dense solve, up to far above
        # tau_bar, where u ~ tau_bar/lambda. theta1 = u/b, so theta1 * b is u.
        # At the floor with m < N, b = 1 - (N/m) u ~ 1e-2 cancels, and the
        # dense u's own round-off (~1e-14) reaches b: b is compared on the
        # scale of its two terms there.
        rng = np.random.default_rng(11)
        z = rng.standard_normal((n, m))
        x, y = rng.standard_normal((n, 2)), rng.standard_normal(n)
        cov = fp.compute_sample_covariance(z)
        cache = fp.build_cache(cov if route == "sample_cov" else z, x, y)
        grid = np.array([1e-2, 1.0, 1e2, 1e8, 1e40]) * cache.tau_bar
        u = np.array([np.trace(np.linalg.solve(cov.s + lam * np.eye(n), cov.s)) / n for lam in grid])
        f = rmt_grid(cache, grid)
        np.testing.assert_allclose(f.theta1 * f.stability, u, rtol=1e-12)
        assert (np.abs(f.stability - (1.0 - (n / m) * u)) <= 1e-12 * (1.0 + (n / m) * u)).all()

    def test_degenerate_denominator(self):
        # rank-1 S with m=1 < N=4: b = lambda / (d_max + lambda) -> 0 as
        # lambda -> 0, tripping the degeneracy guard: the thetas are NaN there.
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4, 1))
        cov = fp.compute_sample_covariance(z)
        cache = fp.build_cache(cov, np.ones((4, 1)), np.zeros(4))
        f = rmt_grid(cache, [1e-15, 1.0])
        np.testing.assert_array_equal(np.isnan(f.theta1), [True, False])
        np.testing.assert_array_equal(np.isnan(f.theta2), [True, False])

    def test_stability_margin_positive_at_sane_lambda(self):
        cache = random_cache(n=8, m=4)
        assert 0.0 < rmt_grid(cache, [cache.tau_bar]).stability[0] < 1.0


class TestGForms:
    def test_unit_fingerprint(self):
        x = np.array([[1.0], [0.0]])
        cache = cache_from_matrix(np.eye(2), x, np.zeros(2))
        f = rmt_grid(cache, [1.0])
        assert f.g1[0, 0, 0] == pytest.approx(0.25)
        assert f.g_s[0, 0, 0] == pytest.approx(0.125)

    def test_zero_fingerprints(self):
        cache = cache_from_matrix(np.eye(3), np.zeros((3, 2)), np.zeros(3))
        f = rmt_grid(cache, [0.7])
        np.testing.assert_array_equal(f.g1, np.zeros((1, 2, 2)))
        np.testing.assert_array_equal(f.g_s, np.zeros((1, 2, 2)))

    def test_against_dense_inverse(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((8, 12))
        x = rng.standard_normal((8, 2))
        cov = fp.compute_sample_covariance(z)
        cache = fp.build_cache(cov, x, rng.standard_normal(8))
        lam = 0.8 * cache.tau_bar
        shrunk = cov.s + lam * np.eye(8)
        f = rmt_grid(cache, [lam])
        np.testing.assert_allclose(f.g1[0], x.T @ np.linalg.solve(shrunk, x) / 8, atol=1e-9)
        dense_g_s = x.T @ np.linalg.solve(shrunk, cov.s @ np.linalg.solve(shrunk, x)) / 8
        np.testing.assert_allclose(f.g_s[0], dense_g_s, atol=1e-9)

    def test_gram_entry_near_the_largest_double_is_finite(self):
        # x^2 / (1 + lambda) = 1.43e308 is a double; the Gram matrix plus its
        # transpose is not, so the symmetrization halves before it adds.
        cache = cache_from_matrix(np.eye(2), np.array([[1.2e154], [0.0]]), np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = rmt_grid(cache, [0.01]).gram
        assert gram[0, 0, 0] == pytest.approx(1.2e154**2 / 1.01, rel=1e-15)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_psd_and_loewner_decreasing(self, seed):
        cache = random_cache(seed=seed)
        lams = np.geomspace(0.2, 5.0, 6) * max(cache.tau_bar, 1e-3)
        f = rmt_grid(cache, lams)
        for g in (f.g1, f.g_s):
            np.testing.assert_array_equal(g, g.swapaxes(1, 2))
            assert np.linalg.eigvalsh(g).min() >= -1e-12
            assert (np.diff(np.trace(g, axis1=1, axis2=2)) <= 1e-15).all()


class TestWhiten:
    """The dense whitening oracle against the cache's eigenbasis."""

    def test_scalar_shrunk_identity(self):
        np.testing.assert_allclose(oracles.whiten(np.eye(2), 3.0, np.array([2.0, 2.0])), [1.0, 1.0])

    def test_zero_vector(self):
        cov, _, _ = random_problem()
        np.testing.assert_array_equal(oracles.whiten(cov.s, 1.0, np.zeros(8)), np.zeros(8))

    def test_against_dense_root(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((7, 10))
        cov = fp.compute_sample_covariance(z)
        cache = fp.build_cache(cov, rng.standard_normal((7, 1)), rng.standard_normal(7))
        lam = cache.tau_bar
        a = rng.standard_normal(7)
        eigvecs = np.linalg.eigh(cov.s)[1]  # the eigenvectors the cache was built on
        via_cache = eigvecs @ ((eigvecs.T @ a) / np.sqrt(cache.eigvals + lam))
        np.testing.assert_allclose(oracles.whiten(cov.s, lam, a), via_cache, atol=1e-9)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_norm_matches_inverse_quadratic_form(self, seed):
        cov, x, _ = random_problem(seed=seed)
        rng = np.random.default_rng(seed + 1)
        a = rng.standard_normal(cov.n_dim)
        cache = fp.build_cache(cov, x, a)  # a's projections onto the eigenbasis are proj_y
        lam = 0.5 * max(cache.tau_bar, 1e-3)
        quad = np.sum(cache.proj_y**2 / (cache.eigvals + lam))
        assert np.linalg.norm(oracles.whiten(cov.s, lam, a)) ** 2 == pytest.approx(quad, abs=1e-10)


class TestMarchenkoPasturConsistency:
    def test_q1_near_fixed_point_identity_sigma(self):
        # Light version of the full-seed sweep in the acceptance suite.
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((400, 400))
            cov = fp.compute_sample_covariance(z)
            cache = fp.build_cache(cov, np.ones((400, 1)), np.zeros(400))
            if abs(trace_functionals(cache, [1.0])[0][0] - 0.618034) < 0.02:
                hits += 1
        assert hits >= 9
