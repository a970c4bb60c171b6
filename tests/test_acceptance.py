"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; Monte Carlo checks use fixed seeds and the stated replicate counts.
"""

import math
import time
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

import finprint as fp
import oracles
from finprint.spectral import rmt_grid
from finprint.simulate import ReplicateGenerator
from finprint.variance import delta1_hat, delta2_hat, evaluate_grid, fit_stack
from reference import trace_functionals

R = 500
ALPHA = 0.05
COVERAGE_WINDOW = (0.915, 0.975)
BASE_SEED = 20260810


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def sigma_st_scenario(m_runs: int, replicates: int = R) -> fp.SimulationScenario:
    return fp.SimulationScenario(
        n_dim=48,
        true_beta=(1.0, 1.0),
        gamma=1.0,
        ensemble_sizes=(35, 46),
        m_runs=m_runs,
        sigma_model=fp.SeparableAr1Sigma(8, 6, 0.1, 0.1),
        true_x=fp.SyntheticFingerprints(seed=7),
        replicates=replicates,
        base_seed=BASE_SEED,
        alpha=ALPHA,
    )


@pytest.fixture(scope="module")
def coverage_reports():
    out = {}
    start = time.perf_counter()
    for m in (100, 400):
        out[m] = fp.run_scenario(sigma_st_scenario(m))
    out["elapsed"] = time.perf_counter() - start
    return out


def test_c1_coverage_at_nominal_level(coverage_reports):
    details = []
    ok = True
    for m in (100, 400):
        report = coverage_reports[m]
        assert report.n_failed == 0
        for i, metrics in enumerate(report.per_forcing):
            details.append(f"m={m} f{i} cr={metrics.coverage_rate:.3f}")
            if not COVERAGE_WINDOW[0] <= metrics.coverage_rate <= COVERAGE_WINDOW[1]:
                ok = False
    # Wall-clock time goes on its own line, so that the ACCEPTANCE line of an
    # unchanged study reads the same on every run.
    elapsed = coverage_reports["elapsed"]
    print(f"\nC1 runtime={elapsed:.0f}s")
    if elapsed > 300.0:
        ok = False
        details.append(f"runtime {elapsed:.0f}s > 300s")
    _report("C1 coverage", ok, ", ".join(details))


def test_c2_unbiasedness(coverage_reports):
    details = []
    ok = True
    for m in (100, 400):
        for i, metrics in enumerate(coverage_reports[m].per_forcing):
            bound = 3.0 * metrics.sd / np.sqrt(R)
            details.append(f"m={m} f{i} |bias|={abs(metrics.bias):.4f}<={bound:.4f}")
            if abs(metrics.bias) > bound:
                ok = False
    _report("C2 unbiasedness", ok, ", ".join(details))


def stacked_caches(scn: fp.SimulationScenario, block: int = 100):
    """The scenario's replicates as stacked caches, drawn and decomposed ``block`` at a time."""
    gen = ReplicateGenerator(scn)
    for start in range(0, scn.replicates, block):
        y, x_tilde, z = gen.draw(range(start, min(start + block, scn.replicates)))
        yield fp.build_cache(z, x_tilde, y)


def test_c3_optimality_ordering():
    # Each block's chosen points and the three fixed multiples of its
    # tau_bar are read off one stacked pass each.
    scn = sigma_st_scenario(100)
    truth = np.asarray(scn.true_beta)
    mults = np.array([0.1, 1.0, 10.0])
    sq_err_opt, sq_err_fixed = [], []
    for stack in stacked_caches(scn):
        fit = fit_stack(stack, scn.ensemble_sizes)
        assert fit.feasible.all()
        sq_err_opt.append(np.sum((fit.beta_hat - truth) ** 2, axis=-1))
        est = evaluate_grid(stack, scn.ensemble_sizes, stack.tau_bar[:, None] * mults)
        sq_err_fixed.append(np.sum((est.beta_hat - truth) ** 2, axis=-1))
    mse_opt = float(np.mean(np.concatenate(sq_err_opt)))
    mse_fixed = dict(zip(mults.tolist(), np.concatenate(sq_err_fixed).mean(axis=0).tolist()))
    best_fixed = min(mse_fixed.values())
    detail = (
        f"mse_opt={mse_opt:.5f}, fixed={{"
        + ", ".join(f"{mult}*tau: {v:.5f}" for mult, v in mse_fixed.items())
        + f"}}, ratio={mse_opt / best_fixed:.3f}"
    )
    _report("C3 optimality ordering", mse_opt <= 1.15 * best_fixed, detail)


def c4_relative_errors(conventional: bool = False) -> np.ndarray:
    """C4's entrywise relative errors of the mean Xi_hat at lambda = tau_bar against the empirical covariance.

    ``conventional`` takes Xi_hat from the m = inf cache, without the finite-m correction.
    """
    n_dim, m_runs = 64, 256
    scn = fp.SimulationScenario(
        n_dim=n_dim,
        true_beta=(1.0, 1.0),
        gamma=1.0,
        ensemble_sizes=(35, 46),
        m_runs=m_runs,
        sigma_model=fp.IdentitySigma(),
        true_x=fp.SyntheticFingerprints(seed=11, column_correlation=0.5),
        replicates=R,
        base_seed=2,
        alpha=ALPHA,
    )
    # Every replicate at lambda = its tau_bar: an (R, 1) grid per block.
    caches = stacked_caches(scn)
    if conventional:
        caches = (replace(stack, m_runs=math.inf) for stack in caches)
    curves = [evaluate_grid(stack, scn.ensemble_sizes, stack.tau_bar[:, None]) for stack in caches]
    assert all(curve.feasible.all() for curve in curves)
    betas = np.concatenate([curve.beta_hat[:, 0] for curve in curves])
    xis = np.concatenate([curve.xi_hat[:, 0] for curve in curves])
    scaled = np.sqrt(n_dim) * (betas - np.asarray(scn.true_beta))
    empirical = np.cov(scaled.T, ddof=1)
    mean_xi = np.mean(xis, axis=0)
    return np.abs(mean_xi - empirical) / np.abs(empirical)


def test_c4_variance_estimator_consistency():
    rel = c4_relative_errors()
    _report(
        "C4 variance consistency",
        bool((rel < 0.15).all()),
        f"max entrywise relative error {rel.max():.3f} (limit 0.15)",
    )


def test_c4_negative_control():
    # The conventional variance (no finite-m correction) must fail C4's
    # limit; it reads 0.272 against the consistent variance's 0.049.
    rel = c4_relative_errors(conventional=True)
    assert rel.max() > 0.15, f"conventional max entrywise relative error {rel.max():.3f} (limit 0.15)"


def test_c1_negative_control():
    """C1's coverage check must reject the conventional variance (the m = inf cache's Xi_hat).

    Both variances are read at each replicate's chosen index of the same
    stacked passes, around the same beta_hat. The scenario is C1's at
    m = 100 with rho_ST = 0.5, chosen after measuring: at C1's own rho_ST =
    0.1 the conventional variance covers .928/.942 (m = 100) and .936/.960
    (m = 400), inside C1's window. Here it covers .804/.848, against the
    consistent variance's .950/.960.
    """
    scn = replace(sigma_st_scenario(100), sigma_model=fp.SeparableAr1Sigma(8, 6, 0.5, 0.5))
    truth = np.asarray(scn.true_beta)
    z = NormalDist().inv_cdf(1.0 - ALPHA / 2.0)
    covered = {"consistent": [], "conventional": []}
    for stack in stacked_caches(scn):
        fit = fit_stack(stack, scn.ensemble_sizes)
        assert fit.feasible.all()
        conventional = evaluate_grid(replace(stack, m_runs=math.inf), scn.ensemble_sizes, fit.curve.grid)
        variances = np.diagonal(conventional.xi_hat[fit.curve.chosen_at], axis1=-2, axis2=-1)
        half_width = z * np.sqrt(variances / scn.n_dim)
        ends = {
            "consistent": (fit.ci_lower, fit.ci_upper),
            "conventional": (fit.beta_hat - half_width, fit.beta_hat + half_width),
        }
        for name, (lower, upper) in ends.items():
            covered[name].append((lower <= truth) & (truth <= upper))
    rates = {name: np.concatenate(hits).mean(axis=0) for name, hits in covered.items()}
    detail = ", ".join(f"{name} {rate[0]:.3f}/{rate[1]:.3f}" for name, rate in rates.items())
    low, high = COVERAGE_WINDOW
    assert ((low <= rates["consistent"]) & (rates["consistent"] <= high)).all(), detail
    assert (rates["conventional"] < low).all(), detail


def _plugin_oracle_errors(n_dim: int, m_runs: int, seed: int):
    """Frobenius errors of the plug-in means vs true-fingerprint quadratic forms."""
    x_scale, col_corr = 0.2, 0.5
    sizes = np.array([1, 1])
    d = 1.0 / sizes
    p = 2
    corr = np.full((p, p), col_corr)
    np.fill_diagonal(corr, 1.0)
    x = x_scale * (
        np.random.default_rng(11).standard_normal((n_dim, p)) @ np.linalg.cholesky(corr).T
    )
    raw1 = np.zeros((p, p))
    raw2 = np.zeros((p, p))
    for rep in range(R):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        z = rng.standard_normal((n_dim, m_runs))
        cov = fp.compute_sample_covariance(z)
        x_tilde = x + rng.standard_normal((n_dim, p)) * np.sqrt(d)
        cache = fp.build_cache(cov, x_tilde, np.zeros(n_dim))
        lam = cache.tau_bar
        f = rmt_grid(cache, [lam])

        # eigh of the same S gives the eigenvectors the cache was built on.
        px = np.linalg.eigh(cov.s)[1].T @ x
        w = 1.0 / (cache.eigvals + lam)
        a1 = (px.T * w) @ px / n_dim      # X^T shrunk^-1 X / N
        a2 = (px.T * w**2) @ px / n_dim   # X^T shrunk^-1 Sigma shrunk^-1 X / N, Sigma = I
        raw1 += delta1_hat(f, d)[0] - a1
        raw2 += delta2_hat(f, d, n_dim, m_runs)[0] - a2
    return np.linalg.norm(raw1) / R, np.linalg.norm(raw2) / R


def _trace_plugin_bias(n_dim: int, m_runs: int, seed: int, reps: int = 5000, stack: int = 250):
    """Mean plug-in error of the two corrected trace functionals.

    The fingerprint-noise part of the plug-in error is exactly zero-mean, so
    these conditional means isolate the systematic error whose decay the
    halving check targets; replication is raised until the Monte Carlo noise
    stops masking that decay (the ratio stabilizes near 0.49 for any seed).
    Replicates are decomposed ``stack`` at a time, each from its own stream.
    """
    bias1 = 0.0
    bias2 = 0.0
    for start in range(0, reps, stack):
        count = min(stack, reps - start)
        z = np.stack(
            [
                np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,))).standard_normal(
                    (n_dim, m_runs)
                )
                for rep in range(start, start + count)
            ]
        )
        cache = fp.build_cache(z, np.zeros((count, n_dim, 1)), np.zeros((count, n_dim)))
        lam = cache.tau_bar[:, None]
        q1, q2 = trace_functionals(cache, lam)
        t1 = rmt_grid(cache, lam).theta1
        s = 1.0 + (n_dim / m_runs) * t1
        # Sigma = I oracles: tr(shrunk^-1 Sigma)/N = Q1, tr(shrunk^-2 Sigma)/N = Q2
        bias1 += float((t1 - q1).sum())
        bias2 += float((s**2 * (q1 - lam * q2) - q2).sum())
    return abs(bias1) / reps, abs(bias2) / reps


def test_c5_covariance_plugin_oracles():
    raw1_32, raw2_32 = _plugin_oracle_errors(32, 64, seed=4)
    raw1_64, raw2_64 = _plugin_oracle_errors(64, 128, seed=4)
    raw_ratios = (raw1_64 / raw1_32, raw2_64 / raw2_32)

    sys1_32, sys2_32 = _trace_plugin_bias(32, 64, seed=4)
    sys1_64, sys2_64 = _trace_plugin_bias(64, 128, seed=4)
    sys_ratios = (sys1_64 / sys1_32, sys2_64 / sys2_32)

    ok = (
        raw1_32 < 0.02
        and raw2_32 < 0.03
        and raw1_64 < 0.02
        and raw2_64 < 0.03
        and all(0.35 <= r <= 0.65 for r in raw_ratios)
        and all(0.35 <= r <= 0.65 for r in sys_ratios)
    )
    detail = (
        f"raw N32 ({raw1_32:.4f}, {raw2_32:.4f}) < (0.02, 0.03); "
        f"halving ratios raw=({raw_ratios[0]:.2f}, {raw_ratios[1]:.2f}) "
        f"systematic=({sys_ratios[0]:.2f}, {sys_ratios[1]:.2f}) in [0.35, 0.65]"
    )
    _report("C5 covariance plug-in oracles", ok, detail)


def test_c6_marchenko_pastur_oracle():
    spec = oracles.PopulationSpectrum(np.array([1.0]), np.array([1.0]), aspect_ratio=1.0)
    fixed_points = {
        1.0: oracles.mp_stieltjes(spec, 1.0).s - (np.sqrt(5.0) - 1.0) / 2.0,
        0.0: oracles.mp_stieltjes(
            oracles.PopulationSpectrum(np.array([1.0]), np.array([1.0]), aspect_ratio=0.0), 1.0
        ).s
        - 0.5,
        0.5: oracles.mp_stieltjes(
            oracles.PopulationSpectrum(np.array([2.0]), np.array([1.0]), aspect_ratio=0.5), 1.0
        ).s
        - (np.sqrt(2.0) - 1.0),
    }
    closed_ok = all(abs(err) < 1e-10 for err in fixed_points.values())

    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((400, 400))
        cache = fp.build_cache(
            fp.compute_sample_covariance(z), np.ones((400, 1)), np.zeros(400)
        )
        if abs(trace_functionals(cache, [1.0])[0][0] - 0.618034) < 0.02:
            hits += 1
    _report(
        "C6 Marchenko-Pastur oracle",
        closed_ok and hits >= 95,
        f"closed forms to 1e-10: {closed_ok}; q1(1) hits {hits}/100 (need >= 95)",
    )


def test_c7_deterministic_identities():
    rng = np.random.default_rng(33)
    n, p, m = 10, 2, 15
    z = rng.standard_normal((n, m))
    x = rng.standard_normal((n, p))
    y = x @ np.array([1.0, -0.5]) + 0.2 * rng.standard_normal(n)
    sizes = np.array([35, 46])
    cov = fp.compute_sample_covariance(z)
    cache = fp.build_cache(cov, x, y)
    lam = cache.tau_bar
    checks = {}

    # weight scale invariance: a * (S + lam I) with a = 7
    base = fp.tls_fit(cache, sizes, lam)[0][0]
    scaled_cache = fp.build_cache(fp.SampleCovariance(s=7.0 * cov.s, m=m), x, y)
    scaled = fp.tls_fit(scaled_cache, sizes, 7.0 * lam)[0][0]
    checks["scale_invariance<=1e-10"] = float(
        np.abs(scaled - base).max()
    ) <= 1e-10

    # reparameterization: unit ensemble sizes on the rescaled design
    repar_cache = fp.build_cache(cov, x * np.sqrt(sizes), y)
    repar = fp.tls_fit(repar_cache, np.ones(p, dtype=int), lam)[0][0]
    checks["reparameterization<=1e-10"] = float(
        np.abs(np.sqrt(sizes) * repar - base).max()
    ) <= 1e-10

    # q2 equals the negative derivative of q1 by central differences
    h = 1e-5 * lam
    q1, q2 = trace_functionals(cache, [lam, lam + h, lam - h])
    fd = -(q1[1] - q1[2]) / (2 * h)
    checks["q2=-q1'<=1e-6"] = abs(q2[0] - fd) <= 1e-6

    # theta2 structural identity
    h = 1e-4 * lam
    f = rmt_grid(cache, [lam, lam + h, lam - h])
    dtheta1 = (f.theta1[1] - f.theta1[2]) / (2 * h)
    ratio = cache.n_dim / cache.m_runs
    t1 = f.theta1[0]
    structural = (1.0 + ratio * t1) ** 2 * (t1 + lam * dtheta1)
    checks["theta2_identity<=1e-5"] = abs(f.theta2[0] - structural) <= 1e-5

    # single-forcing grid oracle
    x1 = rng.standard_normal((n, 1))
    y1 = 0.8 * x1[:, 0] + 0.3 * rng.standard_normal(n)
    cache1 = fp.build_cache(cov, x1, y1)
    beta1 = fp.tls_fit(cache1, [4], lam)[0][0]
    grid = np.arange(-3.0, 3.0 + 1e-9, 1e-3)
    values = [oracles.tls_objective(cov.s, x1, y1, [4], lam, [b]) for b in grid]
    checks["grid_oracle<=2e-3"] = (
        abs(grid[int(np.argmin(values))] - beta1[0]) <= 2e-3
    )

    _report(
        "C7 deterministic identities",
        all(checks.values()),
        ", ".join(f"{k}: {v}" for k, v in checks.items()),
    )


def test_c8_small_instance_bruteforce():
    checks = {}

    # closed-form 2x2 total least squares (identity whitening)
    cache = fp.build_cache(
        fp.SampleCovariance(s=np.zeros((2, 2)), m=1),
        np.array([[1.0], [0.0]]),
        np.array([0.5, 0.5]),
    )
    beta_hat, _, _, _ = fp.tls_fit(cache, [1], 1.0)
    checks["tls_2x2<=1e-8"] = abs(beta_hat[0, 0] - (np.sqrt(5.0) - 1.0) / 2.0) <= 1e-8

    # arithmetic examples, exact as stated
    cov = fp.compute_sample_covariance(np.array([[1.0, 0.0], [0.0, 1.0]]))
    checks["sample_cov"] = np.array_equal(cov.s, 0.5 * np.eye(2))
    checks["ensemble_mean"] = np.array_equal(
        fp.dataset.ensemble_mean(np.array([[1.0, 3.0], [1.0, 3.0]])), [2.0, 2.0]
    )

    flat = fp.build_cache(fp.SampleCovariance(s=np.eye(4), m=10), np.ones((4, 1)), np.zeros(4))
    mixed = fp.build_cache(
        fp.SampleCovariance(s=np.diag([0.0, 2.0]), m=10), np.ones((2, 1)), np.zeros(2)
    )
    (flat_q1,), (flat_q2,) = trace_functionals(flat, [1.0])
    (mixed_q1,), (mixed_q2,) = trace_functionals(mixed, [1.0])
    checks["q1"] = flat_q1 == 0.5 and abs(mixed_q1 - 2.0 / 3.0) < 1e-15
    checks["q2"] = flat_q2 == 0.25 and abs(mixed_q2 - (1 + 1 / 9) / 2) < 1e-15

    eq = fp.build_cache(fp.SampleCovariance(s=np.eye(2), m=2), np.ones((2, 1)), np.zeros(2))
    quad = fp.build_cache(fp.SampleCovariance(s=np.eye(2), m=4), np.ones((2, 1)), np.zeros(2))
    scalar = fp.build_cache(fp.SampleCovariance(s=np.array([[2.0]]), m=2), np.ones((1, 1)), np.zeros(1))
    eq_f, quad_f, scalar_f = (rmt_grid(c, [1.0]) for c in (eq, quad, scalar))
    checks["theta1"] = (
        abs(eq_f.theta1[0] - 1.0) < 1e-15
        and abs(quad_f.theta1[0] - 0.5 / 0.75) < 1e-15
    )
    checks["theta2"] = (
        abs(eq_f.theta2[0]) < 1e-14 and abs(scalar_f.theta2[0] - 1.125) < 1e-14
    )

    unit = fp.build_cache(
        fp.SampleCovariance(s=np.eye(2), m=10), np.array([[1.0], [0.0]]), np.zeros(2)
    )
    unit_f = rmt_grid(unit, [1.0])
    checks["g_forms"] = (
        abs(unit_f.g1[0, 0, 0] - 0.25) < 1e-15 and abs(unit_f.g_s[0, 0, 0] - 0.125) < 1e-15
    )
    checks["whiten"] = np.allclose(
        oracles.whiten(np.eye(2), 3.0, np.array([2.0, 2.0])), [1.0, 1.0], atol=1e-15
    )

    # One grid point with g_s = g1 - lambda * g2 = 0.25 - 0.125; the
    # assembly never reads the TLS data Gram.
    f = fp.spectral.RmtFunctionals(
        lam=np.array([1.0]), theta1=np.array([1.0]),
        theta2=np.array([0.0]), gram=np.full((1, 2, 2), np.nan), g1=np.array([[[0.25]]]),
        g_s=np.array([[[0.125]]]), stability=np.array([1.0]),
    )
    checks["delta1"] = abs(fp.delta1_hat(f, [0.1])[0, 0, 0] - 0.15) < 1e-15
    checks["delta2"] = abs(fp.delta2_hat(f, [0.1], 4, 4)[0, 0, 0] - 0.5) < 1e-15
    checks["xi"] = abs(fp.xi_hat([1.0], [0.5], [[2.0]], [[1.0]], 1.0)[0, 0] - 0.5) < 1e-15

    checks["da_verdict"] = (
        fp.da_verdict((0.2, 1.5)) == fp.Verdict(True, True)
        and fp.da_verdict((-0.1, 0.5)) == fp.Verdict(False, False)
        and fp.da_verdict((0.3, 0.9)) == fp.Verdict(True, False)
    )

    _report(
        "C8 small-instance brute force",
        all(checks.values()),
        ", ".join(f"{k}: {'ok' if v else 'BAD'}" for k, v in checks.items()),
    )
