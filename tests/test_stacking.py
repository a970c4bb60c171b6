"""Replicate-stacked fits against stacks of one, and a stack of one against the reference.

run_scenario draws and decomposes every replicate on its own, then fits the
replicates whose caches share a shape in stacks (variance.fit_stack).
fit_optimal is fit_stack on a stack of one. A replicate's record must
equal, with ==, the record of fit_optimal on its own dataset, whatever else
its stack holds and however large the stack is. fit_optimal itself is
checked against the slow per-lambda reference in reference.py.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

import finprint as fp
from finprint import simulate, variance
from finprint.spectral import stack_caches
from reference import reference_curve


def scenario(m_runs, gamma=1.0, replicates=30):
    return fp.SimulationScenario(
        n_dim=48,
        true_beta=(1.0, 1.0),
        gamma=gamma,
        ensemble_sizes=(35, 46),
        m_runs=m_runs,
        sigma_model=fp.SeparableAr1Sigma(8, 6, 0.3, 0.3),
        true_x=fp.SyntheticFingerprints(seed=4),
        replicates=replicates,
        base_seed=5,
    )


def expected_record(scn, i, options):
    """Replicate i's record from fit_optimal on generate_replicate(scn, i)."""
    try:
        fit = fp.fit_optimal(fp.generate_replicate(scn, i), options)
    except fp.FinprintError as exc:
        return fp.ReplicateRecord(i, None, None, None, None, None, error=f"{type(exc).__name__}: {exc}")
    lower = tuple(ci[0] for ci in fit.intervals)
    upper = tuple(ci[1] for ci in fit.intervals)
    return fp.ReplicateRecord(
        index=i,
        beta_hat=tuple(float(b) for b in fit.beta_hat),
        lambda_opt=fit.lambda_opt,
        ci_lower=lower,
        ci_upper=upper,
        covered=tuple(bool(lo <= b <= hi) for lo, hi, b in zip(lower, upper, scn.true_beta)),
    )


def expected_records(scn, options=None):
    options = options or fp.FitOptions(alpha=scn.alpha)
    return tuple(expected_record(scn, i, options) for i in range(scn.replicates))


@pytest.fixture
def stack_sizes(monkeypatch):
    """Sizes of the caches passed to each fit_stack call of run_scenario."""
    seen = []
    original = simulate.fit_stack

    def spy(caches, *args, **kwargs):
        seen.append([c.eigvals.shape[-1] for c in caches])
        return original(caches, *args, **kwargs)

    monkeypatch.setattr(simulate, "fit_stack", spy)
    return seen


def set_stack_size(monkeypatch, size, rank, grid_size=variance.DEFAULT_GRID_SIZE):
    monkeypatch.setattr(simulate, "STACK_ELEMENTS", size * grid_size * (rank + 1))
    assert simulate.stack_size(rank, grid_size) == size


class TestBatchIndependence:
    # m >= N takes the eigh of S (a cache of N eigenvalues, cap 13 at N=48);
    # m < N the thin SVD of Z (m eigenvalues when Z has full rank, cap 26 at
    # m=24). 30 replicates are two full stacks and a partial one at N=48.
    @pytest.mark.parametrize("m_runs", [60, 24], ids=["dense", "low_rank"])
    def test_records_match_fit_optimal(self, m_runs, stack_sizes):
        scn = scenario(m_runs)
        report = fp.run_scenario(scn)
        assert report.replicates == expected_records(scn)
        rank = min(48, m_runs)
        cap = simulate.stack_size(rank, variance.DEFAULT_GRID_SIZE)
        assert scn.replicates % cap != 0
        assert [len(s) for s in stack_sizes] == [cap] * (scn.replicates // cap) + [scn.replicates % cap]

    @pytest.mark.parametrize("m_runs", [60, 24], ids=["dense", "low_rank"])
    def test_no_feasible_point_replicates(self, m_runs):
        # Without signal the corrected Gram matrix is noise, and for some
        # replicates no grid point survives.
        scn = scenario(m_runs, gamma=0.0)
        report = fp.run_scenario(scn)
        assert 0 < report.failure_counts.get("NoFeasiblePoint", 0) < scn.replicates
        assert report.replicates == expected_records(scn)

    def test_rank_deficient_replicate_is_its_own_stack(self, monkeypatch, stack_sizes):
        original = simulate.ReplicateGenerator.make

        def make(self, rep_index):
            ds = original(self, rep_index)
            if rep_index == 4:
                z = ds.control_runs.copy()
                z[:, -1] = z[:, 0]
                return replace(ds, control_runs=z)
            return ds

        monkeypatch.setattr(simulate.ReplicateGenerator, "make", make)
        scn = scenario(24)
        report = fp.run_scenario(scn)
        assert report.n_failed == 0
        assert report.replicates == expected_records(scn)
        assert [23] in stack_sizes
        assert sum(len(s) for s in stack_sizes) == scn.replicates

    def test_bounds_checked_per_replicate(self):
        # A fixed lambda_min above some replicates' default upper bound
        # 10 * tau_bar fails those replicates alone, as fit_optimal does.
        scn = scenario(60, replicates=20)
        taus = [fp.generate_replicate(scn, i).tau_bar for i in range(scn.replicates)]
        options = fp.FitOptions(lambda_min=10.0 * float(np.median(taus)))
        report = fp.run_scenario(scn, fit_options=options)
        assert 0 < report.failure_counts.get("OutOfDomain", 0) < scn.replicates
        assert report.replicates == expected_records(scn, options)

    @pytest.mark.parametrize("size", [1, 7])
    def test_record_independent_of_stack_size(self, monkeypatch, size):
        scn = scenario(60, gamma=0.0, replicates=15)
        at_cap = fp.run_scenario(scn).replicates
        set_stack_size(monkeypatch, size, rank=48)
        assert fp.run_scenario(scn).replicates == at_cap == expected_records(scn)

    def test_fit_stack_matches_fit_optimal(self):
        scn = scenario(24, replicates=5)
        datasets = [fp.generate_replicate(scn, i) for i in range(scn.replicates)]
        fits = variance.fit_stack([variance.prepare_cache(ds) for ds in datasets], scn.ensemble_sizes)
        for ds, fit in zip(datasets, fits):
            want = fp.fit_optimal(ds)
            assert fit.lambda_opt == want.lambda_opt
            assert fit.intervals == want.intervals
            assert fit.verdicts == want.verdicts
            np.testing.assert_array_equal(fit.beta_hat, want.beta_hat)
            np.testing.assert_array_equal(fit.xi_hat, want.xi_hat)
            np.testing.assert_array_equal(fit.curve.objective, want.curve.objective)
            np.testing.assert_array_equal(fit.curve.reason, want.curve.reason)
            assert fit.curve.n_near_degenerate == want.curve.n_near_degenerate


class TestStackOfOne:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("covariance", ["control_runs", "sample_cov"])
    def test_fit_optimal_matches_reference(self, covariance, p):
        # Dense caches only, which the reference handles: m >= N control
        # runs, or a supplied S.
        rng = np.random.default_rng(11 + p)
        n, m, alpha = 24, 40, 0.1
        x = rng.standard_normal((n, p))
        runs = rng.standard_normal((n, m))
        if covariance == "sample_cov":
            cov = {"sample_cov": fp.compute_sample_covariance(runs)}
        else:
            cov = {"control_runs": runs}
        ds = fp.DetectionDataset(
            y=x @ np.ones(p) + 0.5 * rng.standard_normal(n),
            x_tilde=x,
            ensemble_sizes=np.arange(3, 3 + 2 * p, 2),
            **cov,
        )
        fit = fp.fit_optimal(ds, fp.FitOptions(alpha=alpha))
        cache = variance.prepare_cache(ds)
        assert cache.null_dim == 0
        points, _, chosen = reference_curve(cache, ds.ensemble_sizes, fit.curve.grid)

        assert fit.curve.chosen_index == chosen
        assert list(fit.curve.reason) == [pt["reason"] for pt in points]
        beta, xi = points[chosen]["beta_hat"], points[chosen]["xi_hat"]
        # test_grid.py's tolerances
        np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-9, atol=1e-10 * np.abs(beta).max())
        np.testing.assert_allclose(fit.xi_hat, xi, rtol=1e-9, atol=1e-10 * np.abs(xi).max())
        half = norm.ppf(1 - alpha / 2) * np.sqrt(np.diag(xi) / n)
        want = np.column_stack([beta - half, beta + half])
        np.testing.assert_allclose(fit.intervals, want, rtol=1e-9, atol=1e-10 * np.abs(want).max())


class TestStackSize:
    def test_cap(self):
        # mc_paper: N=48 <= m=100, a cache of 48 eigenvalues on a 100-point grid.
        assert simulate.stack_size(48, 100) == 13
        # N=4000 on the dense route: one replicate already exceeds the cap.
        assert simulate.stack_size(4000, 100) == 1

    def test_mismatched_caches_do_not_stack(self):
        scn = scenario(24, replicates=2)
        caches = [variance.prepare_cache(fp.generate_replicate(scn, i)) for i in range(2)]
        other = variance.prepare_cache(fp.generate_replicate(scenario(20, replicates=1), 0))
        with pytest.raises(fp.DimensionMismatch):
            stack_caches([*caches, other])


class TestFailureIsolation:
    def test_eigen_failure_refits_one_at_a_time(self, monkeypatch, stack_sizes):
        # Replicate 3 has y = 0, so the last row of every augmented Gram
        # matrix it contributes is zero; the eigensolver below fails on any
        # stack that holds one, as LAPACK does on a matrix it cannot handle.
        bad = 3
        original_make = simulate.ReplicateGenerator.make

        def make(self, rep_index):
            ds = original_make(self, rep_index)
            if rep_index == bad:
                return replace(ds, y=np.zeros_like(ds.y))
            return ds

        original_eigh = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            a = np.asarray(a)
            if a.ndim >= 3 and (a[..., -1, :] == 0.0).all(axis=-1).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original_eigh(a, *args, **kwargs)

        monkeypatch.setattr(simulate.ReplicateGenerator, "make", make)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        scn = scenario(60, replicates=20)
        report = fp.run_scenario(scn)
        assert report.failure_counts == {"EigenFailure": 1}
        assert report.replicates[bad].error == (
            "EigenFailure: augmented Gram eigenproblem failed: Eigenvalues did not converge"
        )
        assert report.replicates == expected_records(scn)
        assert len(stack_sizes[0]) > bad
