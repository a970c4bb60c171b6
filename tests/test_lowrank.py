"""The low-rank cache (thin SVD of the control runs) against the dense cache of S."""

import numpy as np
import pytest

import finprint as fp
import oracles
from finprint import dataset, variance
from reference import trace_functionals

RTOL = 1e-8


def problem(seed, n, m, p, runs=None):
    """Dataset whose observations carry the fingerprint signal."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ np.ones(p) + 0.5 * rng.standard_normal(n)
    z = rng.standard_normal((n, m)) if runs is None else runs
    return fp.DetectionDataset(y=y, x_tilde=x, ensemble_sizes=np.arange(3, 3 + p), control_runs=z)


def caches(ds):
    """The thin-SVD cache of the control runs and the eigh cache of S = Z Z^T/m."""
    low = fp.build_cache(ds.control_runs, ds.x_tilde, ds.y)
    dense = fp.build_cache(fp.compute_sample_covariance(ds.control_runs), ds.x_tilde, ds.y)
    return low, dense


def assert_close(got, want, rtol=RTOL):
    scale = np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


def assert_matches_dense(ds, rtol=RTOL):
    """fit_optimal against select_lambda on the dense cache, over the fit's grid."""
    _, dense = caches(ds)
    grid = np.geomspace(*variance.default_bounds(ds.tau_bar), variance.DEFAULT_GRID_SIZE)
    try:
        ref = fp.select_lambda(dense, ds.ensemble_sizes, bounds=(grid[0], grid[-1]))
    except fp.NoFeasiblePoint:
        with pytest.raises(fp.NoFeasiblePoint):
            fp.fit_optimal(ds)
        return None
    fit = fp.fit_optimal(ds)
    curve = fit.curve
    np.testing.assert_array_equal(curve.grid, ref.grid)
    assert curve.chosen_index == ref.chosen_index
    assert list(curve.reason) == list(ref.reason)
    usable = ref.feasible
    np.testing.assert_allclose(curve.objective[usable], ref.objective[usable], rtol=rtol)
    assert_close(fit.beta_hat, ref.beta_hat[ref.chosen_index], rtol)
    assert_close(fit.xi_hat, ref.xi_hat[ref.chosen_index], rtol)
    return fit


def runs_at_clamp(side, n=30, m=8):
    """N x m control runs whose smallest eigenvalue sigma^2/m is ``side`` times 1e-10 * tau_bar."""
    svals = np.linspace(1.0, 2.0, m)
    svals[-1] = 0.0
    tau_bar = np.sum(svals**2) / (m * n)
    svals[-1] = np.sqrt(side * 1e-10 * tau_bar * m)
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((n, m)))
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (u * svals) @ v.T


class TestAgainstDense:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n, m", [(40, 10), (60, 25), (12, 11)])
    def test_random_problems(self, n, m, p):
        for seed in range(3):
            assert assert_matches_dense(problem(seed, n, m, p)) is not None

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_single_run(self, p):
        # m = 1: S has rank one and the null block is everything else.
        for seed in range(3):
            assert assert_matches_dense(problem(seed, 40, 1, p)) is not None

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("columns", [[0, 1, 2, 3, 0], [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]])
    def test_rank_deficient_runs(self, p, columns):
        # Rank 4 from m = 5 or m = 10 runs. The heavier case overstates m
        # enough that Xi_hat has a negative diagonal everywhere for p = 2;
        # both paths must then fail the search alike.
        z = np.random.default_rng(7).standard_normal((30, 4))
        runs = z[:, columns]
        ds = problem(7, 30, len(columns), p, runs=runs)
        assert_matches_dense(ds)
        low, dense = caches(ds)
        assert np.count_nonzero(low.eigvals) == np.count_nonzero(dense.eigvals) == 4
        # Every computed eigenpair is kept, its zeros clamped: min(N, m) of them.
        m = len(columns)
        assert low.eigvals.shape == (m,) and low.null_dim == 30 - m

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_zero_runs(self, p):
        # S = 0: tau_bar = 0, so the lambda search rejects the dataset, with
        # or without given bounds (lambda has no scale), while validation
        # only warns; the low-rank cache is all null block.
        # On an explicit grid, theta1, theta2, g_s and Xi_hat are exactly
        # zero, so which points would pass a positive-variance check is
        # decided by the sign of round-off on either path; compare the rest.
        ds = problem(3, 20, 5, p, runs=np.zeros((20, 5)))
        low, dense = caches(ds)
        assert ds.tau_bar == low.tau_bar == dense.tau_bar == 0.0
        assert fp.validate_dataset(ds) == (
            "m=5 < N=20: singular sample covariance (rank <= 5); regularization is required",
        )
        with pytest.raises(fp.DimensionMismatch, match=r"tr\(S\)/N"):
            fp.fit_optimal(ds)
        for cache in (low, dense):
            with pytest.raises(fp.DimensionMismatch, match=r"tr\(S\)/N"):
                fp.select_lambda(cache, ds.ensemble_sizes, bounds=(0.01, 10.0))
        assert low.eigvals.shape == (5,) and low.null_dim == 15
        np.testing.assert_array_equal(low.eigvals, 0.0)
        grid = np.geomspace(0.01, 10.0, 30)
        for got, want in zip(trace_functionals(low, grid), trace_functionals(dense, grid)):
            assert_close(got, want)
        got, want = fp.spectral.rmt_grid(low, grid), fp.spectral.rmt_grid(dense, grid)
        for name in ("stability", "g1", "g_s"):
            assert_close(getattr(got, name), getattr(want, name))
        for f in (got, want):
            np.testing.assert_allclose(f.theta1, 0.0, atol=1e-14)
            np.testing.assert_allclose(f.theta2, 0.0, atol=1e-14)
        got, want = (variance.evaluate_grid(c, ds.ensemble_sizes, grid) for c in (low, dense))
        assert_close(got.beta_hat, want.beta_hat)
        for curve in (got, want):
            assert np.abs(curve.xi_hat).max() <= 1e-12

    @pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_eigenvalue_beside_clamp(self, side):
        assert assert_matches_dense(problem(11, 30, 8, 2, runs=runs_at_clamp(side))) is not None

    def test_eigenvalue_at_clamp(self):
        # Within the decompositions' round-off of 1e-10 * tau_bar (eigh of S
        # resolves a 6e-12 eigenvalue only to ~1e-5 relative), one path may
        # clamp the eigenvalue and the other keep it. That moves one weight
        # 1/(d + lambda) by at most 1e-8 relative, which the small
        # denominator b at the lower grid end amplifies to ~1e-6.
        assert assert_matches_dense(problem(11, 30, 8, 2, runs=runs_at_clamp(1.0)), rtol=1e-5) is not None

    def test_cache_functionals(self):
        # Q1, Q2, theta1, theta2, g1 and g_s agree at every grid point, beyond
        # the chosen one.
        low, dense = caches(problem(5, 50, 12, 2))
        assert low.eigvals.shape == (12,) and low.null_dim == 38
        assert dense.null_dim == 0 and not dense.null_gram.any()
        grid = np.geomspace(0.01, 10.0, 25) * dense.tau_bar
        for got, want in zip(trace_functionals(low, grid), trace_functionals(dense, grid)):
            assert_close(got, want)
        got, want = fp.spectral.rmt_grid(low, grid), fp.spectral.rmt_grid(dense, grid)
        for name in ("theta1", "theta2", "stability", "g1", "g_s"):
            assert_close(getattr(got, name), getattr(want, name))

    def test_against_dense_oracles(self):
        # The null block in g1 and in the TLS Gram matrix, checked against
        # whitening and the TLS objective computed from the dense S.
        ds = problem(4, 30, 6, 2)
        low, _ = caches(ds)
        s = fp.compute_sample_covariance(ds.control_runs).s
        for lam in np.array([0.01, 1.0, 10.0]) * low.tau_bar:
            white = np.column_stack([oracles.whiten(s, lam, col) for col in ds.x_tilde.T])
            assert_close(fp.spectral.rmt_grid(low, [lam]).g1[0], white.T @ white / ds.n_dim)
            beta_hat, _, _, _ = fp.tls_fit(low, ds.ensemble_sizes, lam)
            objective = oracles.tls_objective(s, ds.x_tilde, ds.y, ds.ensemble_sizes, lam, beta_hat[0])
            expected = oracles.tls_min_eigenvalue(s, ds.x_tilde, ds.y, ds.ensemble_sizes, lam)
            assert objective == pytest.approx(expected, rel=RTOL)

    @pytest.mark.parametrize("m", [12, 30, 45])
    def test_build_cache_of_z_is_the_fit_cache(self, m):
        # build_cache picks the route: from Z with m >= N it forms S and
        # takes its eigh, from Z with m < N the thin SVD. Either way it is
        # the cache prepare_cache builds, to the bit.
        ds = problem(9, 30, m, 2)
        low, dense = caches(ds)
        fit = variance.prepare_cache(ds)
        for name in ("eigvals", "proj_x", "proj_y", "null_gram"):
            np.testing.assert_array_equal(getattr(low, name), getattr(fit, name))
            if m >= 30:
                np.testing.assert_array_equal(getattr(low, name), getattr(dense, name))
        assert (low.null_dim, low.n_dim, low.m_runs, low.tau_bar) == (fit.null_dim, 30, m, fit.tau_bar)
        assert low.eigvals.shape == (min(30, m),) and low.null_dim == max(30 - m, 0)

    def test_shape_mismatch(self):
        with pytest.raises(fp.DimensionMismatch):
            fp.build_cache(np.ones((5, 2)), np.ones((4, 1)), np.zeros(4))
        with pytest.raises(fp.DimensionMismatch):
            fp.build_cache(np.ones(5), np.ones((5, 1)), np.zeros(5))


class TestDecompositions:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Shapes of every eigh/eigvalsh/svd argument, and S builds, during a test."""
        seen = {"eigh": [], "eigvalsh": [], "svd": [], "sample_cov": 0}
        # numpy's own helpers (norm(x, 2) -> svd) look these up in the
        # private module, so wrap them there too.
        modules = [np.linalg] + [m for m in (getattr(np.linalg, "_linalg", None),) if m is not None]
        for name in ("eigh", "eigvalsh", "svd"):
            original = getattr(np.linalg, name)

            def traced(a, *args, _name=name, _original=original, **kwargs):
                seen[_name].append(np.shape(a))
                return _original(a, *args, **kwargs)

            for module in modules:
                monkeypatch.setattr(module, name, traced)
        original_cov = dataset.compute_sample_covariance

        def counted(z):
            seen["sample_cov"] += 1
            return original_cov(z)

        monkeypatch.setattr(dataset, "compute_sample_covariance", counted)
        return seen

    def test_low_rank_fit_decomposes_z_once(self, calls):
        n, m = 60, 15
        fp.fit_optimal(problem(1, n, m, 2))
        assert calls["sample_cov"] == 0
        square = [s for s in calls["eigh"] + calls["eigvalsh"] if s[-2:] == (n, n)]
        assert square == []
        assert calls["svd"].count((n, m)) == 1

    def test_m_at_least_n_routes_to_dense(self, calls):
        n, m = 20, 30
        fp.fit_optimal(problem(1, n, m, 2))
        assert calls["sample_cov"] == 1
        assert calls["eigh"].count((n, n)) == 1
        assert (n, m) not in calls["svd"]

    def test_validation_does_not_decompose(self, calls):
        fp.validate_dataset(problem(1, 60, 15, 2))
        assert calls == {"eigh": [], "eigvalsh": [], "svd": [], "sample_cov": 0}
