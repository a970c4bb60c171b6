"""The low-rank cache (QR of the control runs and the data) against the dense cache of S and the thin SVD."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finprint as fp
import oracles
from finprint import spectral, variance
from finprint.spectral import STACK_ELEMENTS, rmt_grid
from reference import reference_runs_cache, trace_functionals

RTOL = 1e-8
# The QR route against the thin-SVD reference: both are backward stable, and
# none of the compared functionals depends on the signs or the ties of the
# eigenvectors, so they agree to round-off amplified by at most 1/b^4.
SVD_RTOL = 1e-10


def problem(seed, n, m, p, runs=None):
    """Dataset whose observations carry the fingerprint signal."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ np.ones(p) + 0.5 * rng.standard_normal(n)
    z = rng.standard_normal((n, m)) if runs is None else runs
    return fp.DetectionDataset(y=y, x_tilde=x, ensemble_sizes=np.arange(3, 3 + p), control_runs=z)


def caches(ds):
    """The cache of the control runs (QR route when m < N) and the eigh cache of S = Z Z^T/m."""
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
        # takes its eigh, from Z with m < N the QR of [Z, x~, y]. Either way it is
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


def block_rows(m, p):
    """Most rows of one block of the QR of [Z, x~, y], c = m + p + 1 columns."""
    c = m + p + 1
    return max(2 * c, STACK_ELEMENTS // c)


def differential_case(n, m, p, structure, scale, seed):
    """Control runs, x~ and y of one structured case, all scaled by ``scale``."""
    rng = np.random.default_rng(seed)
    z = runs_at_clamp(2.0, n, m) if structure == "at_clamp" else rng.standard_normal((n, m))
    if structure == "repeated_column":
        z[:, -1] = z[:, 0]
    elif structure == "zero_column":
        z[:, 0] = 0.0
    x = rng.standard_normal((n, p))
    if structure == "x_in_span":
        x = z @ rng.standard_normal((m, p))
    y = x @ np.ones(p) + 0.5 * rng.standard_normal(n)
    return scale * z, scale * x, scale * y


def assert_close_per_lambda(got, want, rtol):
    """``got`` equals ``want`` to rtol times the largest |want| at the same lambda (the leading axis)."""
    scale = np.abs(want).reshape(len(want), -1).max(axis=1).reshape(-1, *[1] * (want.ndim - 1))
    scale[scale == 0.0] = 1.0
    np.testing.assert_allclose(got / scale, want / scale, rtol=rtol, atol=rtol)


@st.composite
def differential_cases(draw):
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, n - 1))
    p = draw(st.integers(1, 3))
    structures = ["random", "x_in_span"] + (["repeated_column", "zero_column", "at_clamp"] if m >= 2 else [])
    structure = draw(st.sampled_from(structures))
    scale = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    return n, m, p, structure, scale, draw(st.integers(0, 2**32 - 1))


class TestAgainstThinSvd:
    """The QR route against the thin-SVD cache of ``reference_runs_cache``."""

    @given(differential_cases())
    @settings(max_examples=60, deadline=None)
    # N - m < p + 1: R has fewer than c rows.
    @example((5, 4, 2, "random", 1.0, 0))
    @example((48, 46, 2, "random", 1.0, 1))
    @example((48, 46, 3, "x_in_span", 1e150, 2))
    # N at a block boundary, one row either side, and several blocks.
    @example((block_rows(24, 2) - 1, 24, 2, "random", 1.0, 3))
    @example((block_rows(24, 2), 24, 2, "random", 1.0, 4))
    @example((block_rows(24, 2) + 1, 24, 2, "x_in_span", 1.0, 5))
    @example((3 * block_rows(24, 2) + 1, 24, 2, "repeated_column", 1.0, 6))
    @example((block_rows(200, 2) - 1, 200, 2, "random", 1.0, 7))
    @example((block_rows(200, 2) + 1, 200, 2, "zero_column", 1e-150, 8))
    @example((3 * block_rows(200, 2) + 1, 200, 2, "random", 1e150, 9))
    # Rank-deficient runs, x~ in span(Z), and both scales.
    @example((30, 8, 2, "repeated_column", 1.0, 10))
    @example((30, 8, 2, "zero_column", 1e150, 11))
    @example((30, 8, 2, "at_clamp", 1e-150, 12))
    @example((30, 8, 2, "x_in_span", 1e-150, 13))
    def test_functionals_match_the_thin_svd(self, case):
        n, m, p, _, scale, seed = case
        z, x, y = differential_case(*case)
        got, want = fp.build_cache(z, x, y), reference_runs_cache(z, x, y)
        assert got.eigvals.shape == (m,) and (got.null_dim, got.n_dim, got.m_runs) == (n - m, n, m)
        np.testing.assert_allclose(got.eigvals, want.eigvals, rtol=0.0, atol=SVD_RTOL * want.eigvals.max())
        grid = np.geomspace(*variance.default_bounds(got.tau_bar), variance.DEFAULT_GRID_SIZE)
        f, g = rmt_grid(got, grid), rmt_grid(want, grid)
        for name in ("theta1", "theta2", "gram", "g1", "g_s", "stability"):
            assert_close_per_lambda(getattr(f, name), getattr(g, name), SVD_RTOL)
        # A stack's row is the replicate decomposed alone, bit for bit.
        other = differential_case(n, m, p, "random", scale, seed + 1)
        stack = fp.build_cache(*(np.stack([a, b]) for a, b in zip((z, x, y), other)))
        for name in ("eigvals", "proj_x", "proj_y", "null_gram", "tau_bar"):
            np.testing.assert_array_equal(getattr(stack, name)[0], getattr(got, name))


def test_decomposition_memory_does_not_grow_with_n():
    # The growth of the peak RSS across build_cache on 8000 x 400 runs, in a
    # fresh process with one BLAS thread, stays below one N x m array
    # (24.4 MiB): the QR holds one row block, not copies of Z.
    code = (
        "import resource, numpy as np, finprint as fp\n"
        "rng = np.random.default_rng(0)\n"
        "z, x, y = rng.standard_normal((8000, 400)), rng.standard_normal((8000, 2)), rng.standard_normal(8000)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "fp.build_cache(z, x, y)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)"
    )
    src = str(Path(fp.__file__).parent.parent)
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    growth = int(done.stdout) * 1024  # ru_maxrss is in KiB on Linux
    assert growth < 8000 * 400 * 8, growth / 2**20


class TestDecompositions:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Shapes of every eigh/eigvalsh/svd/qr argument, and of every Z of a Z Z^T/m product, during a test."""
        seen = {"eigh": [], "eigvalsh": [], "svd": [], "qr": [], "runs_product": []}
        # numpy's own helpers (norm(x, 2) -> svd) look these up in the
        # private module, so wrap them there too.
        modules = [np.linalg] + [m for m in (getattr(np.linalg, "_linalg", None),) if m is not None]
        for name in ("eigh", "eigvalsh", "svd", "qr"):
            original = getattr(np.linalg, name)

            def traced(a, *args, _name=name, _original=original, **kwargs):
                seen[_name].append(np.shape(a))
                return _original(a, *args, **kwargs)

            for module in modules:
                monkeypatch.setattr(module, name, traced)
        original_product = spectral.runs_product

        def counted(z):
            seen["runs_product"].append(np.shape(z))
            return original_product(z)

        # build_cache looks the name up in its own module.
        monkeypatch.setattr(spectral, "runs_product", counted)
        return seen

    def test_low_rank_fit_decomposes_z_once(self, calls):
        # One product and one eigh, both of the m x m R11 R11^T/m, and no
        # SVD; nothing of N rows reaches a product, eigh or svd, and the QR
        # takes one row block under the running R at a time (several
        # blocks at 2000 x 200).
        for n, m in [(60, 15), (2000, 200)]:
            fp.fit_optimal(problem(1, n, m, 2))
            assert calls["runs_product"].count((m, m)) == 1
            assert [s for s in calls["runs_product"] if s[-2] == n] == []
            assert calls["svd"] == []
            assert calls["eigh"].count((m, m)) == 1
            assert [s for s in calls["eigh"] + calls["eigvalsh"] if n in s] == []
            c = m + 3
            blocks = [s for s in calls["qr"] if s[-1] == c]
            assert blocks and all(s[-2] <= block_rows(m, 2) + c for s in blocks)
        assert len(calls["qr"]) == 1 + 5  # one block of 60 rows, then five of at most 406

    def test_m_at_least_n_routes_to_dense(self, calls):
        n, m = 20, 30
        fp.fit_optimal(problem(1, n, m, 2))
        assert calls["runs_product"] == [(n, m)]  # the one N x N product Z Z^T/m
        assert calls["eigh"].count((n, n)) == 1
        assert (n, m) not in calls["svd"]

    def test_validation_does_not_decompose(self, calls):
        fp.validate_dataset(problem(1, 60, 15, 2))
        assert calls == {"eigh": [], "eigvalsh": [], "svd": [], "qr": [], "runs_product": []}
