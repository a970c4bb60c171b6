"""Replicate-stacked fits against stacks of one, and a stack of one against the reference.

run_scenario draws each block of replicates into stacked arrays
(ReplicateGenerator.draw) and decomposes the block in one batched call
(spectral.build_cache); the caches of a pass of several blocks are fitted
together (variance.fit_stack), which fits every replicate of its stack or
raises. The pass is the one unit of failure: when a block's draw check, a
block's cache or the pass's fit raises, every replicate of the pass is
refitted one at a time through fit_optimal. fit_optimal is fit_stack on a
stack of one. A replicate's record must equal, with ==, the record of fit_optimal on
its own dataset, whatever else its block or pass holds and however large
they are. The stacked draw and cache must equal, bit for bit, the draw and
cache of each replicate on its own. fit_optimal itself is
checked against the slow per-lambda reference in reference.py.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import norm

import finprint as fp
from finprint import simulate, spectral, tls, variance
from finprint.spectral import STACKED, SpectralCache
from reference import reference_curve


def scenario(m_runs, gamma=1.0, replicates=30, p=2):
    return fp.SimulationScenario(
        n_dim=48,
        true_beta=(1.0,) * p,
        gamma=gamma,
        ensemble_sizes=(35, 46, 40)[:p],
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
        return fp.simulate.ReplicateRecord(i, None, None, None, None, None, error=f"{type(exc).__name__}: {exc}")
    lower = tuple(ci[0] for ci in fit.intervals)
    upper = tuple(ci[1] for ci in fit.intervals)
    return fp.simulate.ReplicateRecord(
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
def block_sizes(monkeypatch):
    """Replicates of each block run_scenario decomposes, one stacked build_cache each."""
    seen = []
    original = simulate.build_cache

    def spy(z, *args):
        seen.append(len(z))
        return original(z, *args)

    monkeypatch.setattr(simulate, "build_cache", spy)
    return seen


@pytest.fixture
def stack_sizes(monkeypatch):
    """Eigenvalue counts of the replicates of each pass run_scenario fits, one fit_stack each."""
    seen = []
    original = simulate.fit_stack

    def spy(stack, *args, **kwargs):
        seen.append([stack.eigvals.shape[-1]] * stack.eigvals.shape[0])
        return original(stack, *args, **kwargs)

    monkeypatch.setattr(simulate, "fit_stack", spy)
    return seen


def edited_draw(rep_index, edit):
    """ReplicateGenerator.draw with ``edit(y, x_tilde, z)`` applied to replicate ``rep_index``'s rows.

    make draws through draw, so generate_replicate sees the same edit.
    """
    original = simulate.ReplicateGenerator.draw

    def draw(self, indices):
        y, x_tilde, z = original(self, indices)
        for r, i in enumerate(indices):
            if i == rep_index:
                edit(y[r], x_tilde[r], z[r])
        return y, x_tilde, z

    return draw


def rank_deficient_runs(y, x_tilde, z):
    z[:, -1] = z[:, 0]


def set_stack_size(monkeypatch, size, rank, grid_size=variance.DEFAULT_GRID_SIZE):
    monkeypatch.setattr(spectral, "STACK_ELEMENTS", size * grid_size * (rank + 1))
    assert spectral.stack_size(rank, grid_size) == size


class TestBatchIndependence:
    # m >= N takes the eigh of S (a cache of N eigenvalues, blocks of 13 at
    # N=48); m < N the thin SVD of Z (m eigenvalues, whatever its rank,
    # blocks of 26 at m=24). 30 replicates are two full blocks and a partial
    # one at N=48. A pass holds as many whole blocks as keep its
    # (P, G, p+1, p+1) Gram stack within 2^16 doubles, up to 2^16 // (100 *
    # (p+1)^2) = 163, 72 and 40 replicates for p = 1, 2, 3: all 30 here,
    # except at m=24 and p = 3, where that is one block of 26. The grid's
    # small-matrix kernels differ by size: closed forms for the 2x2 Delta1
    # and 3x3 TLS Gram matrix at p = 2, LAPACK at p = 1 and 3.
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("m_runs", [60, 24], ids=["dense", "low_rank"])
    def test_records_match_fit_optimal(self, m_runs, p, block_sizes, stack_sizes):
        scn = scenario(m_runs, p=p)
        report = fp.run_scenario(scn)
        assert report.replicates == expected_records(scn)
        block = spectral.stack_size(min(48, m_runs), variance.DEFAULT_GRID_SIZE)
        assert scn.replicates % block != 0
        assert block_sizes == [block] * (scn.replicates // block) + [scn.replicates % block]
        assert [len(s) for s in stack_sizes] == ([26, 4] if (m_runs, p) == (24, 3) else [30])

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("m_runs", [120, 80], ids=["dense", "low_rank"])
    def test_records_of_a_pass_of_several_blocks(self, monkeypatch, m_runs, p, block_sizes, stack_sizes):
        # At N=96 a cache holds 96 (dense) or 80 (low rank) eigenvalues, so
        # a budget of two replicates' weights per block leaves room for at
        # least five blocks in a pass at p <= 3: the 7 replicates are three
        # full blocks and a partial one, fitted in one pass.
        scn = replace(scenario(m_runs, replicates=7, p=p), n_dim=96, sigma_model=fp.SeparableAr1Sigma(12, 8, 0.3, 0.3))
        set_stack_size(monkeypatch, 2, rank=min(96, m_runs))
        report = fp.run_scenario(scn)
        assert report.replicates == expected_records(scn)
        assert block_sizes == [2, 2, 2, 1]
        assert [len(s) for s in stack_sizes] == [7]

    @pytest.mark.parametrize("m_runs", [60, 24], ids=["dense", "low_rank"])
    def test_no_feasible_point_replicates(self, m_runs):
        # Without signal the corrected Gram matrix is noise, and for some
        # replicates no grid point survives.
        scn = scenario(m_runs, gamma=0.0)
        report = fp.run_scenario(scn)
        assert 0 < report.failure_counts.get("NoFeasiblePoint", 0) < scn.replicates
        assert report.replicates == expected_records(scn)

    def test_rank_deficient_replicate_shares_the_full_stack(self, monkeypatch, stack_sizes):
        # Replicate 4's runs have rank 23; its cache still holds all 24
        # eigenvalues, one of them a clamped 0, so it stacks with the rest.
        monkeypatch.setattr(simulate.ReplicateGenerator, "draw", edited_draw(4, rank_deficient_runs))
        scn = scenario(24)
        assert np.count_nonzero(variance.prepare_cache(fp.generate_replicate(scn, 4)).eigvals) == 23
        report = fp.run_scenario(scn)
        assert report.n_failed == 0
        assert report.replicates == expected_records(scn)
        assert stack_sizes == [[24] * scn.replicates]

    def test_bounds_checked_per_replicate(self):
        # A fixed lambda_min above some replicates' default upper bound
        # 10 * tau_bar fails those replicates alone, as fit_optimal does.
        scn = scenario(60, replicates=20)
        taus = [fp.generate_replicate(scn, i).tau_bar for i in range(scn.replicates)]
        options = fp.FitOptions(lambda_min=10.0 * float(np.median(taus)))
        columns = simulate._run_chunk(simulate.ReplicateGenerator(scn), range(scn.replicates), options)
        report = simulate.summarize_replicates(*columns, scn.true_beta)
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
        y, x_tilde, z = simulate.ReplicateGenerator(scn).draw(range(scn.replicates))
        fit = variance.fit_stack(fp.build_cache(z, x_tilde, y), scn.ensemble_sizes)
        assert fit.feasible.tolist() == [True] * scn.replicates
        for r, ds in enumerate(datasets):
            want = fp.fit_optimal(ds)
            row = fit.row(r)
            assert fit.lambda_opt[r] == want.lambda_opt
            assert tuple(zip(fit.ci_lower[r].tolist(), fit.ci_upper[r].tolist())) == want.intervals
            assert row.verdicts == want.verdicts
            np.testing.assert_array_equal(fit.beta_hat[r], want.beta_hat)
            np.testing.assert_array_equal(fit.xi_hat[r], want.xi_hat)
            np.testing.assert_array_equal(fit.curve.objective[r], want.curve.objective)
            np.testing.assert_array_equal(fit.curve.reason[r], want.curve.reason)
            assert fit.curve.n_near_degenerate[r] == want.curve.n_near_degenerate
            np.testing.assert_array_equal(row.curve.objective, want.curve.objective)

    @pytest.mark.parametrize("m_runs", [60, 24], ids=["dense", "low_rank"])
    def test_infeasible_rows_are_nan_and_fit_optimal_raises(self, m_runs):
        # Without signal some replicates have no usable grid point: their
        # rows are NaN and not feasible, where fit_optimal raises.
        scn = scenario(m_runs, gamma=0.0, replicates=12)
        y, x_tilde, z = simulate.ReplicateGenerator(scn).draw(range(scn.replicates))
        fit = variance.fit_stack(fp.build_cache(z, x_tilde, y), scn.ensemble_sizes)
        assert 0 < np.count_nonzero(~fit.feasible) < scn.replicates
        for r in range(scn.replicates):
            ds = fp.generate_replicate(scn, r)
            if fit.feasible[r]:
                assert fit.lambda_opt[r] == fp.fit_optimal(ds).lambda_opt
                continue
            with pytest.raises(fp.NoFeasiblePoint, match="every grid point was infeasible"):
                fp.fit_optimal(ds)
            for name in ("lambda_opt", "beta_hat", "xi_hat", "ci_lower", "ci_upper"):
                assert np.isnan(getattr(fit, name)[r]).all()

    @pytest.mark.parametrize("m_runs", [60, 24], ids=["dense", "low_rank"])
    def test_fit_stack_raises_for_the_whole_stack(self, m_runs):
        # Replicate 1 has no control-run variance; its error is the stack's.
        scn = scenario(m_runs)
        y, x_tilde, z = simulate.ReplicateGenerator(scn).draw(range(3))
        z[1] = 0.0
        with pytest.raises(fp.DimensionMismatch, match=r"tr\(S\)/N = 0 <= 0"):
            variance.fit_stack(fp.build_cache(z, x_tilde, y), scn.ensemble_sizes)


def spawned_rng(base_seed, i, stream):
    """Stream ``stream`` of replicate i, seeded by NumPy's own SeedSequence, not the block seeding."""
    return np.random.default_rng(np.random.SeedSequence(entropy=base_seed, spawn_key=(i, stream)))


def drawn_alone(gen, i):
    """Replicate i drawn on its own, as y, x_tilde, Z: each stream's normals times Sigma^(1/2)."""
    scn = gen.scenario
    n, p = scn.n_dim, scn.n_forcings

    def normals(stream, shape):
        return spawned_rng(scn.base_seed, i, stream).standard_normal(shape)

    signal = scn.gamma * gen.x_true
    y = signal @ np.asarray(scn.true_beta) + gen.root @ normals(0, n)
    x_tilde = np.column_stack(
        [signal[:, j] + gen.root @ normals(1 + j, n) / np.sqrt(n_j) for j, n_j in enumerate(scn.ensemble_sizes)]
    )
    return y, x_tilde, gen.root @ normals(1 + p, (n, scn.m_runs))


def halve_rank(y, x_tilde, z):
    """Repeat the first half of the control runs: rank ceil(m/2), below N on both routes here."""
    m = z.shape[-1]
    z[:, m // 2 :] = z[:, : m - m // 2]


class TestStackedDraw:
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("m_runs", [60, 24], ids=["dense", "low_rank"])
    def test_rows_equal_the_replicates_drawn_alone(self, m_runs, p):
        gen = simulate.ReplicateGenerator(scenario(m_runs, gamma=0.7, p=p))
        block = [5, 0, 12, 3]
        stacked = gen.draw(block)
        for r, i in enumerate(block):
            ds = gen.make(i)
            for got, alone, built in zip(stacked, drawn_alone(gen, i), (ds.y, ds.x_tilde, ds.control_runs)):
                assert got[r].tobytes() == alone.tobytes() == built.tobytes()


class TestBlockSeeding:
    # Indices at and past 2^32 have two-word spawn keys, so one block mixes
    # keys of two lengths; base seeds past 2^32 have two entropy words,
    # still padded to four.
    BASE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
    INDICES = [0, 2**32 - 1, 2**32 + 7, 2**63 - 1]

    @pytest.mark.parametrize("base_seed", BASE_SEEDS)
    def test_words_equal_seed_sequence(self, base_seed):
        seeds = simulate._SpawnedSeeds(base_seed)
        words = seeds.words(self.INDICES, 4)
        assert words.shape == (len(self.INDICES), 4, 4) and words.dtype == np.uint64
        for r, i in enumerate(self.INDICES):
            for stream in range(4):
                want = np.random.SeedSequence(entropy=base_seed, spawn_key=(i, stream)).generate_state(4, np.uint64)
                assert words[r, stream].tolist() == want.tolist()

    @pytest.mark.parametrize("base_seed", BASE_SEEDS)
    def test_streams_draw_the_seed_sequence_normals(self, base_seed):
        streams = simulate._SpawnedSeeds(base_seed).streams(self.INDICES, 3)
        for r, i in enumerate(self.INDICES):
            for stream, rng in enumerate(streams[r]):
                want = spawned_rng(base_seed, i, stream).standard_normal(7)
                assert rng.standard_normal(7).tobytes() == want.tobytes()

    def test_draw_of_large_indices_equals_the_replicates_drawn_alone(self):
        gen = simulate.ReplicateGenerator(replace(scenario(24, p=1), base_seed=2**63 - 1))
        stacked = gen.draw(self.INDICES)
        for r, i in enumerate(self.INDICES):
            for got, alone in zip(stacked, drawn_alone(gen, i)):
                assert got[r].tobytes() == alone.tobytes()


class TestStackedCache:
    # m >= N: one batched eigh of the stacked S; m < N: one batched thin SVD.
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("m_runs", [60, 24], ids=["dense", "low_rank"])
    def test_equals_the_caches_built_one_at_a_time(self, m_runs, p):
        gen = simulate.ReplicateGenerator(scenario(m_runs, p=p))
        y, x_tilde, z = gen.draw(range(5))
        halve_rank(y[2], x_tilde[2], z[2])
        stack = fp.build_cache(z, x_tilde, y)
        alone = [fp.build_cache(z[r], x_tilde[r], y[r]) for r in range(5)]
        assert np.count_nonzero(stack.eigvals[2]) == (m_runs + 1) // 2 < np.count_nonzero(stack.eigvals[0])
        assert stack.tau_bar.shape == (5,)
        for r in range(5):
            for f in fields(SpectralCache):
                got = getattr(stack, f.name)
                row = got[r] if f.name in STACKED else got
                np.testing.assert_array_equal(row, getattr(alone[r], f.name), strict=True)

    def test_a_two_dimensional_cache_keeps_scalar_tau_bar(self):
        gen = simulate.ReplicateGenerator(scenario(60))
        y, x_tilde, z = gen.draw([0])
        assert isinstance(fp.build_cache(z[0], x_tilde[0], y[0]).tau_bar, float)

    @pytest.mark.parametrize("m_runs", [60, 24], ids=["dense", "low_rank"])
    def test_data_must_stack_like_the_runs(self, m_runs):
        gen = simulate.ReplicateGenerator(scenario(m_runs))
        y, x_tilde, z = gen.draw(range(3))
        with pytest.raises(fp.DimensionMismatch, match=r"x_tilde must be 3 x 48 x p, got \(2, 48, 2\)"):
            fp.build_cache(z, x_tilde[:2], y)
        with pytest.raises(fp.DimensionMismatch, match=r"y must have shape \(3, 48\), got \(48,\)"):
            fp.build_cache(z, x_tilde, y[0])


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
        assert spectral.stack_size(48, 100) == 13
        # N=4000 on the dense route: one replicate already exceeds the cap.
        assert spectral.stack_size(4000, 100) == 1

    def test_passes_share_the_blocks_evenly(self, block_sizes, stack_sizes):
        # mc_paper's 100 replicates are eight blocks; a pass may hold five,
        # so they take two passes of four rather than five and three.
        scn = replace(scenario(100, replicates=100), sigma_model=fp.SeparableAr1Sigma(8, 6, 0.1, 0.1))
        fp.run_scenario(scn)
        assert block_sizes == [13] * 7 + [9]
        assert [len(s) for s in stack_sizes] == [52, 48]

    def test_no_weight_stack_exceeds_the_budget(self, monkeypatch, block_sizes, stack_sizes):
        # A pass of 40 replicates holds 40 x 100 x 49 weights, three times
        # the budget; rmt_grid walks it in slices of one block's worth.
        sizes = []
        original = spectral.weights

        def weights(cache, lams):
            w = original(cache, lams)
            sizes.append(w.shape[0])
            assert w.size <= spectral.STACK_ELEMENTS
            return w

        monkeypatch.setattr(spectral, "weights", weights)
        scn = scenario(60, replicates=40)
        report = fp.run_scenario(scn)
        assert report.replicates == expected_records(scn)
        assert block_sizes == [13, 13, 13, 1]
        assert [len(s) for s in stack_sizes] == [40]
        assert 40 * 100 * 49 > spectral.STACK_ELEMENTS
        assert sizes[:4] == [13, 13, 13, 1]


def overflow(y, x_tilde, z):
    z *= 1e160


def run_with_overflowing_replicate(monkeypatch, m_runs, replicates, bad=2):
    """run_scenario with replicate ``bad``'s Z scaled by 1e160, and the errors the stacked build_cache raised.

    The runs stay finite, so the replicate's dataset builds, but Z Z^T/m and
    tr(S)/N overflow float64. No warning may escape: pytest turns every
    RuntimeWarning into an error.
    """
    raised = []
    original = simulate.build_cache

    def build_cache(*args):
        try:
            return original(*args)
        except fp.FinprintError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(simulate.ReplicateGenerator, "draw", edited_draw(bad, overflow))
    monkeypatch.setattr(simulate, "build_cache", build_cache)
    scn = scenario(m_runs, replicates=replicates)
    report = fp.run_scenario(scn)
    assert report.replicates == expected_records(scn)
    return report, raised


class TestFailureIsolation:
    def test_failed_block_refits_its_whole_pass(self, monkeypatch, block_sizes, stack_sizes):
        # Replicate 20 fails the cache of the second of four blocks in the
        # run's one pass. The pass stops at that block, so two blocks are
        # decomposed and none is fitted stacked: all 40 replicates are
        # fitted one at a time.
        report, raised = run_with_overflowing_replicate(monkeypatch, 60, replicates=40, bad=20)
        assert [type(exc) for exc in raised] == [fp.NonFinite]
        assert report.failure_counts == {"NonFinite": 1}
        assert report.replicates[20].error == "NonFinite: s contains NaN or infinite entries"
        assert block_sizes == [13, 13]
        assert stack_sizes == []

    def test_failed_pass_leaves_the_other_pass_stacked(self, monkeypatch, block_sizes, stack_sizes):
        # 70 replicates are two passes, blocks of 13 + 13 + 13 and 13 + 13 + 5.
        # Replicate 45 fails the second pass's first block (39-51), which
        # ends that pass; the first pass still goes through one fit_stack.
        report, raised = run_with_overflowing_replicate(monkeypatch, 60, replicates=70, bad=45)
        assert [type(exc) for exc in raised] == [fp.NonFinite]
        assert report.failure_counts == {"NonFinite": 1}
        assert block_sizes == [13] * 4
        assert stack_sizes == [[48] * 39]

    def test_stacked_build_failure_refits_the_pass_one_at_a_time(self, monkeypatch, block_sizes, stack_sizes):
        # The overflowing S of replicate 2 fails its own cache and the
        # stacked cache of the first block (replicates 0-12) with NonFinite.
        # The second block (13-19) is in the same pass, so it is neither
        # decomposed nor stacked: all 20 replicates are fitted one at a time.
        report, raised = run_with_overflowing_replicate(monkeypatch, 60, replicates=20)
        assert [type(exc) for exc in raised] == [fp.NonFinite]
        assert report.failure_counts == {"NonFinite": 1}
        assert report.replicates[2].error == "NonFinite: s contains NaN or infinite entries"
        assert block_sizes == [13]
        assert stack_sizes == []

    def test_low_rank_stacked_build_failure_refits_the_pass_one_at_a_time(self, monkeypatch, block_sizes, stack_sizes):
        # m < N never forms S; replicate 2's tr(S)/N overflows, which fails
        # the stacked thin SVD's cache (replicates 0-25) before it is
        # decomposed, and that replicate's own cache. The second block
        # (26-29) shares the pass, so all 30 replicates are fitted one at a time.
        report, raised = run_with_overflowing_replicate(monkeypatch, 24, replicates=30)
        assert [type(exc) for exc in raised] == [fp.NonFinite]
        assert report.failure_counts == {"NonFinite": 1}
        assert report.replicates[2].error.startswith("NonFinite: tr(S)/N = inf is not finite")
        assert block_sizes == [26]
        assert stack_sizes == []

    @pytest.mark.parametrize(
        "array, value, message",
        [
            (0, np.nan, "NonFinite: y contains NaN or infinite entries"),
            (2, np.nan, "NonFinite: control_runs contains NaN or infinite entries"),
            (2, np.inf, "NonFinite: control_runs contains NaN or infinite entries"),
        ],
        ids=["nan_y", "nan_z", "inf_z"],
    )
    @pytest.mark.parametrize("m_runs", [60, 24], ids=["dense", "low_rank"])
    def test_dataset_errors_stay_with_their_replicate(self, monkeypatch, m_runs, array, value, message, stack_sizes):
        # A NaN in replicate 1's y fails the draw check, and a NaN or an inf
        # in its Z fails the stacked cache with NonFinite before any
        # decomposition; either sends the pass to the lone refit, where the
        # replicate's DetectionDataset records its own text. Nothing is stacked.
        def edit(*arrays):
            arrays[array].flat[4] = value

        monkeypatch.setattr(simulate.ReplicateGenerator, "draw", edited_draw(1, edit))
        scn = scenario(m_runs, replicates=4)
        report = fp.run_scenario(scn)
        assert report.replicates[1].error == message
        assert report.failure_counts == {"NonFinite": 1}
        assert report.replicates == expected_records(scn)
        assert stack_sizes == []

    def test_too_few_coordinates_fail_every_replicate(self, stack_sizes):
        scn = replace(scenario(24, replicates=3, p=3), n_dim=3, sigma_model=fp.IdentitySigma())
        report = fp.run_scenario(scn)
        assert report.failure_counts == {"DimensionMismatch": 3}
        assert report.replicates[0].error == "DimensionMismatch: N=3 too small for p=3 forcings (need N >= p+1)"
        assert report.replicates == expected_records(scn)
        assert stack_sizes == []

    def test_eigen_failure_refits_one_at_a_time(self, monkeypatch, stack_sizes):
        # Replicate 3 has y = 0, so the last row of every augmented Gram
        # matrix it contributes is zero; the TLS eigenpair kernel below fails
        # on any stack that holds one, as LAPACK does on a matrix it cannot
        # handle, and tls_grid turns that into EigenFailure.
        bad = 3

        def zero_y(y, x_tilde, z):
            y[:] = 0.0

        original_pair = tls.smallest_eigenpair

        def smallest_eigenpair(m, *args, **kwargs):
            if (m[..., -1, :] == 0.0).all(axis=-1).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original_pair(m, *args, **kwargs)

        monkeypatch.setattr(simulate.ReplicateGenerator, "draw", edited_draw(bad, zero_y))
        monkeypatch.setattr(tls, "smallest_eigenpair", smallest_eigenpair)
        scn = scenario(60, replicates=20)
        report = fp.run_scenario(scn)
        assert report.failure_counts == {"EigenFailure": 1}
        assert report.replicates[bad].error == (
            "EigenFailure: augmented Gram eigenproblem failed: Eigenvalues did not converge"
        )
        assert report.replicates == expected_records(scn)
        assert len(stack_sizes[0]) > bad
