import numpy as np
import pytest

import finprint as fp
import oracles
from conftest import random_cache, random_problem


def cache_from(s, x, y, m=10):
    return fp.build_cache(fp.SampleCovariance(s=s, m=m), x, y)


class TestTlsFit:
    def test_exact_fit_recovers_slope(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 1))
        y = 2.0 * x[:, 0]
        cache = cache_from(np.eye(6), x, y)
        for lam in (0.1, 1.0, 7.0):
            beta_hat, _, _, _ = fp.tls_fit(cache, [4], lam)
            assert beta_hat[0, 0] == pytest.approx(2.0, abs=1e-10)
            objective = oracles.tls_objective(np.eye(6), x, y, [4], lam, beta_hat[0])
            assert objective == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_closed_form(self):
        # Whitened metric is the identity (S = 0, lambda = 1); the augmented
        # Gram matrix is [[1, 0.5], [0.5, 0.5]] whose smallest eigenpair is
        # known in closed form.
        x = np.array([[1.0], [0.0]])
        y = np.array([0.5, 0.5])
        cache = cache_from(np.zeros((2, 2)), x, y, m=1)
        beta_hat, _, _, _ = fp.tls_fit(cache, [1], 1.0)
        golden_ratio_conj = (np.sqrt(5.0) - 1.0) / 2.0
        assert beta_hat[0, 0] == pytest.approx(golden_ratio_conj, abs=1e-8)
        assert oracles.tls_objective(np.zeros((2, 2)), x, y, [1], 1.0, beta_hat[0]) == pytest.approx(
            (1.5 - np.sqrt(1.25)) / 2.0, abs=1e-10
        )

    def test_weight_scale_invariance(self):
        cache = random_cache(seed=3)
        lam = cache.tau_bar
        base, _, _, _ = fp.tls_fit(cache, [3, 5], lam)
        # a * (S + lambda I) realized by scaling both S and lambda by a
        rng = np.random.default_rng(3)
        z = rng.standard_normal((8, 12))
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        scaled_cov = fp.SampleCovariance(s=7.0 * (z @ z.T) / 12, m=12)
        scaled, _, _, _ = fp.tls_fit(fp.build_cache(scaled_cov, x, y), [3, 5], 7.0 * lam)
        np.testing.assert_allclose(scaled[0], base[0], atol=1e-10)

    def test_grid_search_oracle_single_forcing(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 1))
        y = 0.8 * x[:, 0] + 0.3 * rng.standard_normal(10)
        cov = fp.compute_sample_covariance(rng.standard_normal((10, 15)))
        cache = fp.build_cache(cov, x, y)
        lam = cache.tau_bar
        beta_hat, _, _, _ = fp.tls_fit(cache, [4], lam)
        grid = np.arange(-3.0, 3.0 + 1e-9, 1e-3)
        values = [oracles.tls_objective(cov.s, x, y, [4], lam, [b]) for b in grid]
        assert abs(grid[int(np.argmin(values))] - beta_hat[0, 0]) <= 2e-3

    def test_local_optimality(self):
        cov, x, y = random_problem(seed=14)
        lam = cov.tau_bar
        sizes = [3, 5]
        beta_hat = fp.tls_fit(fp.build_cache(cov, x, y), sizes, lam)[0][0]
        base = oracles.tls_objective(cov.s, x, y, sizes, lam, beta_hat)
        rng = np.random.default_rng(99)
        for _ in range(100):
            delta = rng.standard_normal(2)
            delta *= 0.01 / np.linalg.norm(delta)
            assert oracles.tls_objective(cov.s, x, y, sizes, lam, beta_hat + delta) >= base - 1e-12

    def test_objective_equals_min_eigenvalue(self):
        cov, x, y = random_problem(seed=8)
        beta_hat, _, _, _ = fp.tls_fit(fp.build_cache(cov, x, y), [3, 5], 1.3)
        assert oracles.tls_objective(cov.s, x, y, [3, 5], 1.3, beta_hat[0]) == pytest.approx(
            oracles.tls_min_eigenvalue(cov.s, x, y, [3, 5], 1.3), abs=1e-9
        )

    def test_reparameterized_fit_matches(self):
        # Fitting the rescaled design with unit ensemble sizes returns the
        # rescaled coefficients of the original problem.
        rng = np.random.default_rng(4)
        z = rng.standard_normal((8, 12))
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        sizes = np.array([3, 5])
        cov = fp.compute_sample_covariance(z)
        lam = 0.9
        original, _, _, _ = fp.tls_fit(fp.build_cache(cov, x, y), sizes, lam)
        rescaled_design = x * np.sqrt(sizes)
        repar, _, _, _ = fp.tls_fit(fp.build_cache(cov, rescaled_design, y), [1, 1], lam)
        np.testing.assert_allclose(np.sqrt(sizes) * repar[0], original[0], atol=1e-10)
        np.testing.assert_allclose(repar[0], original[0] / np.sqrt(sizes), atol=1e-10)

    def test_eigenvector_sign_irrelevant(self, monkeypatch):
        cache = random_cache(seed=6)
        base, _, _, _ = fp.tls_fit(cache, [3, 5], 1.0)
        true_pair = fp.tls.smallest_eigenpair

        def flipped(m, *args):
            vals, vec = true_pair(m, *args)
            return vals, -vec

        monkeypatch.setattr(fp.tls, "smallest_eigenpair", flipped)
        flipped_beta, _, _, _ = fp.tls_fit(cache, [3, 5], 1.0)
        np.testing.assert_allclose(flipped_beta, base, atol=1e-14)

    def test_vertical_solution(self):
        # Zero fingerprint: the minimizing eigenvector has no response
        # component, so no finite coefficient exists.
        cache = cache_from(np.eye(3), np.zeros((3, 1)), np.array([1.0, 0.0, 0.0]))
        beta_hat, vertical, _, _ = fp.tls_fit(cache, [1], 1.0)
        assert vertical.tolist() == [True]
        assert np.isnan(beta_hat).all()

    def test_near_degenerate_flagged(self):
        delta = 1e-9
        x = np.array([[1.0], [0.0]])
        y = np.array([delta, 1.0])
        cache = cache_from(np.zeros((2, 2)), x, y, m=1)
        _, _, near_tied, _ = fp.tls_fit(cache, [1], 1.0)
        assert near_tied.tolist() == [True]

    def test_nonfinite_gram_point(self):
        # An overflowing Gram matrix has no eigenproblem to solve: NaN
        # coefficients and its own mask, without a LAPACK error, and the
        # finite point beside it fits as it does alone.
        gram = np.array([[2.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.5]])
        overflowed = gram.copy()
        overflowed[0, 1] = overflowed[1, 0] = np.inf
        beta_hat, vertical, near_tied, nonfinite = fp.tls.tls_grid(np.stack([gram, overflowed]), [3, 5])
        alone = fp.tls.tls_grid(gram[None], [3, 5])[0]
        np.testing.assert_array_equal(beta_hat[0], alone[0])
        assert np.isnan(beta_hat[1]).all()
        assert nonfinite.tolist() == [False, True]
        assert not vertical.any() and not near_tied.any()

    def test_overflowing_trace_is_not_a_tie(self):
        # Every entry is finite, but the diagonal sums past float64's
        # largest value; the two smallest eigenvalues are 1e308 apart.
        gram = np.diag([1e308, 1e308, 1.0])
        gram[0, 2] = gram[2, 0] = 1.0
        beta_hat, vertical, near_tied, nonfinite = fp.tls.tls_grid(gram[None], [1, 1])
        assert not (vertical[0] or near_tied[0] or nonfinite[0])
        assert np.isfinite(beta_hat).all()

    def test_bad_ensemble_sizes(self):
        cache = random_cache()
        with pytest.raises(ValueError):
            fp.tls_fit(cache, [3], 1.0)
        with pytest.raises(ValueError):
            fp.tls_fit(cache, [0, 5], 1.0)


class TestTlsObjective:
    """The dense oracle objective against the cache's eigenbasis."""

    def test_exact_fit_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 1))
        assert oracles.tls_objective(np.eye(5), x, 1.7 * x[:, 0], [2], 0.5, [1.7]) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_zero_beta_reduces_to_weighted_norm(self):
        cov, x, y = random_problem(seed=12)
        cache = fp.build_cache(cov, x, y)
        lam = 0.6
        expected = np.sum(cache.proj_y**2 / (cache.eigvals + lam))
        assert oracles.tls_objective(cov.s, x, y, [3, 5], lam, [0.0, 0.0]) == pytest.approx(expected)

    def test_beta_star_denominator(self):
        cov, x, y = random_problem(seed=13)
        cache = fp.build_cache(cov, x, y)
        val = oracles.tls_objective(cov.s, x, y, [4, 4], 1.0, [1.0, 1.0])
        resid = cache.proj_y - cache.proj_x @ np.ones(2)
        num = np.sum(resid**2 / (cache.eigvals + 1.0))
        assert val == pytest.approx(num / 1.5)
