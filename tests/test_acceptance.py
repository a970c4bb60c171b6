"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; Monte Carlo checks use fixed seeds and the stated replicate counts.
"""

import time

import numpy as np
import pytest

import finprint as fp
import oracles
from finprint.spectral import rmt_functionals
from finprint.simulate import ReplicateGenerator
from finprint.variance import delta1_hat, delta2_hat

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
    elapsed = coverage_reports["elapsed"]
    details.append(f"runtime={elapsed:.0f}s")
    ok = ok and elapsed <= 300.0
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


def test_c3_optimality_ordering():
    scn = sigma_st_scenario(100)
    gen = ReplicateGenerator(scn)
    truth = np.asarray(scn.true_beta)
    sq_err_opt = []
    sq_err_fixed = {0.1: [], 1.0: [], 10.0: []}
    for rep in range(R):
        ds = gen.make(rep)
        cache = fp.build_cache(ds.sample_covariance(), ds.x_tilde, ds.y)
        curve = fp.select_lambda(cache, ds.ensemble_sizes)
        sq_err_opt.append(np.sum((curve.chosen.beta_hat - truth) ** 2))
        for mult in sq_err_fixed:
            est = fp.evaluate_lambda(cache, ds.ensemble_sizes, mult * cache.tau_bar)
            sq_err_fixed[mult].append(np.sum((est.beta_hat - truth) ** 2))
    mse_opt = float(np.mean(sq_err_opt))
    mse_fixed = {mult: float(np.mean(v)) for mult, v in sq_err_fixed.items()}
    best_fixed = min(mse_fixed.values())
    detail = (
        f"mse_opt={mse_opt:.5f}, fixed={{"
        + ", ".join(f"{mult}*tau: {v:.5f}" for mult, v in mse_fixed.items())
        + f"}}, ratio={mse_opt / best_fixed:.3f}"
    )
    _report("C3 optimality ordering", mse_opt <= 1.15 * best_fixed, detail)


def test_c4_variance_estimator_consistency():
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
    gen = ReplicateGenerator(scn)
    betas, xis = [], []
    for rep in range(R):
        ds = gen.make(rep)
        cache = fp.build_cache(ds.sample_covariance(), ds.x_tilde, ds.y)
        est = fp.evaluate_lambda(cache, ds.ensemble_sizes, cache.tau_bar)
        assert est.feasible
        betas.append(est.beta_hat)
        xis.append(est.xi_hat)
    scaled = np.sqrt(n_dim) * (np.array(betas) - np.asarray(scn.true_beta))
    empirical = np.cov(scaled.T, ddof=1)
    mean_xi = np.mean(xis, axis=0)
    rel = np.abs(mean_xi - empirical) / np.abs(empirical)
    _report(
        "C4 variance consistency",
        bool((rel < 0.15).all()),
        f"max entrywise relative error {rel.max():.3f} (limit 0.15)",
    )


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
        f = rmt_functionals(cache, lam)

        px = cache.eigvecs.T @ x
        w = 1.0 / (cache.eigvals + lam)
        a1 = (px.T * w) @ px / n_dim      # X^T shrunk^-1 X / N
        a2 = (px.T * w**2) @ px / n_dim   # X^T shrunk^-1 Sigma shrunk^-1 X / N, Sigma = I
        raw1 += delta1_hat(f, d) - a1
        raw2 += delta2_hat(f, d, n_dim, m_runs) - a2
    return np.linalg.norm(raw1) / R, np.linalg.norm(raw2) / R


def _trace_plugin_bias(n_dim: int, m_runs: int, seed: int, reps: int = 5000):
    """Mean plug-in error of the two corrected trace functionals.

    The fingerprint-noise part of the plug-in error is exactly zero-mean, so
    these conditional means isolate the systematic error whose decay the
    halving check targets; replication is raised until the Monte Carlo noise
    stops masking that decay (the ratio stabilizes near 0.49 for any seed).
    """
    bias1 = 0.0
    bias2 = 0.0
    dummy_x = np.zeros((n_dim, 1))
    dummy_y = np.zeros(n_dim)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        z = rng.standard_normal((n_dim, m_runs))
        cache = fp.build_cache(fp.compute_sample_covariance(z), dummy_x, dummy_y)
        lam = cache.tau_bar
        q1v, q2v = fp.q1(cache, lam), fp.q2(cache, lam)
        t1 = fp.theta1(cache, lam)
        s = 1.0 + (n_dim / m_runs) * t1
        # Sigma = I oracles: tr(shrunk^-1 Sigma)/N = Q1, tr(shrunk^-2 Sigma)/N = Q2
        bias1 += t1 - q1v
        bias2 += s**2 * (q1v - lam * q2v) - q2v
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
        if abs(fp.q1(cache, 1.0) - 0.618034) < 0.02:
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
    base = fp.tls_fit(cache, sizes, lam)
    scaled_cache = fp.build_cache(fp.SampleCovariance(s=7.0 * cov.s, m=m), x, y)
    scaled = fp.tls_fit(scaled_cache, sizes, 7.0 * lam)
    checks["scale_invariance<=1e-10"] = float(
        np.abs(scaled.beta_hat - base.beta_hat).max()
    ) <= 1e-10

    # reparameterization: unit ensemble sizes on the rescaled design
    repar_cache = fp.build_cache(cov, x * np.sqrt(sizes), y)
    repar = fp.tls_fit(repar_cache, np.ones(p, dtype=int), lam)
    checks["reparameterization<=1e-10"] = float(
        np.abs(np.sqrt(sizes) * repar.beta_hat - base.beta_hat).max()
    ) <= 1e-10

    # q2 equals the negative derivative of q1 by central differences
    h = 1e-5 * lam
    fd = -(fp.q1(cache, lam + h) - fp.q1(cache, lam - h)) / (2 * h)
    checks["q2=-q1'<=1e-6"] = abs(fp.q2(cache, lam) - fd) <= 1e-6

    # theta2 structural identity
    h = 1e-4 * lam
    dtheta1 = (fp.theta1(cache, lam + h) - fp.theta1(cache, lam - h)) / (2 * h)
    ratio = cache.n_dim / cache.m_runs
    t1 = fp.theta1(cache, lam)
    structural = (1.0 + ratio * t1) ** 2 * (t1 + lam * dtheta1)
    checks["theta2_identity<=1e-5"] = abs(fp.theta2(cache, lam) - structural) <= 1e-5

    # single-forcing grid oracle
    x1 = rng.standard_normal((n, 1))
    y1 = 0.8 * x1[:, 0] + 0.3 * rng.standard_normal(n)
    cache1 = fp.build_cache(cov, x1, y1)
    sol1 = fp.tls_fit(cache1, [4], lam)
    grid = np.arange(-3.0, 3.0 + 1e-9, 1e-3)
    values = [fp.tls_objective(cache1, [4], lam, [b]) for b in grid]
    checks["grid_oracle<=2e-3"] = (
        abs(grid[int(np.argmin(values))] - sol1.beta_hat[0]) <= 2e-3
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
    sol = fp.tls_fit(cache, [1], 1.0)
    checks["tls_2x2<=1e-8"] = abs(sol.beta_hat[0] - (np.sqrt(5.0) - 1.0) / 2.0) <= 1e-8

    # arithmetic examples, exact as stated
    cov = fp.compute_sample_covariance(np.array([[1.0, 0.0], [0.0, 1.0]]))
    checks["sample_cov"] = np.array_equal(cov.s, 0.5 * np.eye(2))
    checks["ensemble_mean"] = np.array_equal(
        fp.ensemble_mean(np.array([[1.0, 3.0], [1.0, 3.0]])), [2.0, 2.0]
    )

    flat = fp.build_cache(fp.SampleCovariance(s=np.eye(4), m=10), np.ones((4, 1)), np.zeros(4))
    mixed = fp.build_cache(
        fp.SampleCovariance(s=np.diag([0.0, 2.0]), m=10), np.ones((2, 1)), np.zeros(2)
    )
    checks["q1"] = fp.q1(flat, 1.0) == 0.5 and abs(fp.q1(mixed, 1.0) - 2.0 / 3.0) < 1e-15
    checks["q2"] = fp.q2(flat, 1.0) == 0.25 and abs(fp.q2(mixed, 1.0) - (1 + 1 / 9) / 2) < 1e-15

    eq = fp.build_cache(fp.SampleCovariance(s=np.eye(2), m=2), np.ones((2, 1)), np.zeros(2))
    quad = fp.build_cache(fp.SampleCovariance(s=np.eye(2), m=4), np.ones((2, 1)), np.zeros(2))
    scalar = fp.build_cache(fp.SampleCovariance(s=np.array([[2.0]]), m=2), np.ones((1, 1)), np.zeros(1))
    checks["theta1"] = (
        abs(fp.theta1(eq, 1.0) - 1.0) < 1e-15
        and abs(fp.theta1(quad, 1.0) - 0.5 / 0.75) < 1e-15
    )
    checks["theta2"] = (
        abs(fp.theta2(eq, 1.0)) < 1e-14 and abs(fp.theta2(scalar, 1.0) - 1.125) < 1e-14
    )

    unit = fp.build_cache(
        fp.SampleCovariance(s=np.eye(2), m=10), np.array([[1.0], [0.0]]), np.zeros(2)
    )
    g1, g2 = fp.g_forms(unit, 1.0)
    checks["g_forms"] = abs(g1[0, 0] - 0.25) < 1e-15 and abs(g2[0, 0] - 0.125) < 1e-15
    checks["whiten"] = np.allclose(
        fp.whiten(unit, 3.0, np.array([2.0, 2.0])), [1.0, 1.0], atol=1e-15
    )

    checks["delta1"] = abs(fp.delta1_hat(
        fp.RmtFunctionals(lam=1.0, q1=0.5, q2=0.25, theta1=1.0, theta2=0.0,
                          g1=np.array([[0.25]]), g2=np.array([[0.125]])),
        [0.1],
    )[0, 0] - 0.15) < 1e-15
    checks["delta2"] = abs(fp.delta2_hat(
        fp.RmtFunctionals(lam=1.0, q1=0.5, q2=0.25, theta1=1.0, theta2=0.0,
                          g1=np.array([[0.25]]), g2=np.array([[0.125]])),
        [0.1], 4, 4,
    )[0, 0] - 0.5) < 1e-15
    checks["xi"] = abs(fp.xi_hat([1.0], [0.5], [[2.0]], [[1.0]], 1.0)[0, 0] - 0.5) < 1e-15

    checks["da_verdict"] = (
        fp.da_verdict((0.2, 1.5)) == fp.Verdict(True, True)
        and fp.da_verdict((-0.1, 0.5)) == fp.Verdict(False, False)
        and fp.da_verdict((0.3, 0.9)) == fp.Verdict(True, False)
    )
    checks["chisq_2df"] = abs(fp.quantile_chisq(2, 0.95) + 2.0 * np.log(0.05)) < 1e-9

    _report(
        "C8 small-instance brute force",
        all(checks.values()),
        ", ".join(f"{k}: {'ok' if v else 'BAD'}" for k, v in checks.items()),
    )
