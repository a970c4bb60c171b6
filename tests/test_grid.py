"""The stacked lambda grid against the slow per-lambda reference in reference.py.

The grid's small symmetric algebra runs on closed forms for p = 2
(finprint._symmetric); the differential test at the end also checks it
against the same grid on LAPACK's kernels.
"""

import sys
import warnings
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finprint as fp
from conftest import random_arrays, random_cache
from finprint import _symmetric, spectral, tls, variance
from finprint.spectral import rmt_grid
from reference import reference_curve, reference_point

TRACE_RTOL = 1e-10
# Two backward-stable inverses of a Delta1 with condition number c differ by
# ~c * 1e-16, so values are compared with LAPACK's where c <= 1e5; above it
# neither side is accurate to the grid's tolerances. Nor is, on either
# side, the trace of an indefinite Xi whose diagonal cancels to below 1/100
# of its size (such a point is infeasible; a feasible one always has its
# trace compared).
COMPARED_COND = 1e5
COMPARED_CANCELLATION = 1e-2


def signal_cache(seed, n, m, p):
    """Cache of a problem whose observations carry the fingerprint signal."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ np.ones(p) + 0.5 * rng.standard_normal(n)
    return fp.build_cache(fp.compute_sample_covariance(rng.standard_normal((n, m))), x, y)


def default_grid(cache, size=40):
    return np.geomspace(*variance.default_bounds(cache.tau_bar), size)


def assert_matches_reference(cache, sizes, grid):
    points, values, chosen = reference_curve(cache, sizes, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the grid counts near ties instead of warning
        curve = variance.evaluate_grid(cache, sizes, grid)

    degenerate = np.array([pt["reason"] == "degenerate_denominator" for pt in points])
    near_tied = np.array([pt["near_tied"] for pt in points])
    want = {name: np.array([pt[name] for pt in points]) for name in ("beta_hat", "xi_hat", "k_hat", "stability")}
    assert_same_curve(
        curve,
        sizes,
        reason=[pt["reason"] for pt in points],
        feasible=np.isfinite(values),
        chosen=chosen,
        n_near_degenerate=int((near_tied & ~degenerate).sum()),
        **want,
    )
    return curve


def vertical_amplification(beta_hat, sizes):
    """How far past COMPARED_COND a near-vertical TLS solution amplifies round-off, per point (>= 1).

    The minimizing eigenvector's response component is
    1/sqrt(1 + |beta*|^2), beta* = beta/sqrt(n); a near-vertical one
    amplifies its round-off into beta, and so into Xi, by 1/|component| in
    any kernel, as a Delta1 of that condition number does.
    """
    component = 1.0 / np.sqrt(1.0 + np.sum(beta_hat**2 / np.asarray(sizes, dtype=float), axis=-1))
    return np.maximum(1.0, 1.0 / (COMPARED_COND * component))


def assert_same_curve(curve, sizes, reason, feasible, chosen, n_near_degenerate, compared=None, **want):
    """The grid's tolerances: equal reason codes, feasibility, choice and near-tie count; close values.

    Values are compared at the ``compared`` points (a mask; default all).
    The trace is not compared where the wanted Xi's diagonal cancels
    (COMPARED_CANCELLATION), and its TRACE_RTOL is scaled by
    ``vertical_amplification`` of the wanted beta, which is 1 unless the
    solution is nearly vertical.
    """
    assert list(curve.reason) == list(reason)
    np.testing.assert_array_equal(curve.feasible, feasible)
    if chosen is not None:
        assert curve.chosen_index == chosen
    assert curve.n_near_degenerate == n_near_degenerate
    keep = slice(None) if compared is None else compared
    ref_trace = np.trace(want["xi_hat"][keep], axis1=1, axis2=2)
    trace = np.trace(curve.xi_hat[keep], axis1=1, axis2=2)
    np.testing.assert_array_equal(np.isnan(trace), np.isnan(ref_trace))
    scale = np.abs(np.diagonal(want["xi_hat"][keep], axis1=1, axis2=2)).sum(axis=1)
    usable = ~np.isnan(ref_trace) & ~(np.abs(ref_trace) < COMPARED_CANCELLATION * scale)
    rtol = TRACE_RTOL * vertical_amplification(want["beta_hat"][keep][usable], sizes)
    assert (np.abs(trace - ref_trace)[usable] <= rtol * np.abs(ref_trace[usable])).all()
    for name, ref in want.items():
        ref = ref[keep]
        finite = np.abs(ref[np.isfinite(ref)])
        atol = 1e-10 * finite.max() if finite.size else 0.0
        np.testing.assert_allclose(getattr(curve, name)[keep], ref, rtol=1e-9, atol=atol)


class TestAgainstReference:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n, m", [(24, 12), (24, 48)], ids=["m<N", "m>=N"])
    def test_random_problems(self, n, m, p):
        for seed in range(4):
            cache = signal_cache(seed, n, m, p)
            sizes = np.arange(3, 3 + 2 * p, 2)
            assert_matches_reference(cache, sizes, default_grid(cache))

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
            cache = fp.build_cache(fp.compute_sample_covariance(ds.control_runs), ds.x_tilde, ds.y)
            curve = assert_matches_reference(cache, ds.ensemble_sizes, default_grid(cache, 100))
            assert curve.feasible.all()

    def test_nonpositive_variance_points(self):
        # Observations unrelated to the fingerprints: a stretch of the grid
        # yields covariance estimates with a nonpositive diagonal.
        cache = random_cache(seed=16, n=23, p=3, m=34)
        grid = np.geomspace(1e-3, 10.0, 30) * cache.tau_bar
        curve = assert_matches_reference(cache, [4, 7, 1], grid)
        assert "nonpositive_variance" in list(curve.reason)
        assert None in list(curve.reason)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n, m", [(24, 12), (24, 48)], ids=["m<N", "m>=N"])
    def test_overflowing_gram_points(self, n, m, p):
        # Data at 2e153 overflow the augmented Gram matrix from the small-
        # lambda end of the grid up: those points read nonfinite_gram,
        # without a warning, and the others fit as the reference's do.
        rng = np.random.default_rng(0)
        x = 2e153 * rng.standard_normal((n, p))
        y = x @ np.ones(p) + 1e153 * rng.standard_normal(n)
        cache = fp.build_cache(fp.compute_sample_covariance(rng.standard_normal((n, m))), x, y)
        curve = assert_matches_reference(cache, np.arange(3, 3 + 2 * p, 2), default_grid(cache))
        nonfinite = np.equal(curve.reason, "nonfinite_gram")
        assert nonfinite[: nonfinite.sum()].all() and 0 < nonfinite.sum() < curve.feasible.size
        assert curve.feasible.any()

    def test_overflowing_delta2_points_are_infeasible(self):
        # N = m: b is small at the low end of the grid, where Delta2's factor
        # (1 + (N/m) theta1)^2 overflows a finite Gram form of data at
        # 4.4e152. Such a point's Xi is not finite, so it is infeasible and
        # reads nonfinite_variance, and the grid warns of nothing. A Delta2
        # whose entries are finite doubles stays finite: the points that read
        # nonfinite_variance are the slow reference's.
        rng = np.random.default_rng(0)
        z, x = rng.standard_normal((6, 6)), rng.standard_normal((6, 1))
        cache = fp.build_cache(z, 4.4e152 * x, 4.4e152 * (x[:, 0] + rng.standard_normal(6)))
        grid = default_grid(cache, 100)
        points, values, _ = reference_curve(cache, [1], grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = variance.evaluate_grid(cache, [1], grid)
        assert not curve.feasible[0] and curve.feasible.any()
        assert not np.isfinite(curve.xi_hat[~curve.feasible]).any()
        assert Counter(curve.reason)["nonfinite_variance"] > 0
        assert list(curve.reason) == [pt["reason"] for pt in points]
        np.testing.assert_array_equal(np.equal(curve.reason, None), curve.feasible)
        np.testing.assert_allclose(curve.objective[curve.feasible], values[curve.feasible], rtol=TRACE_RTOL)

    def test_indefinite_xi_is_feasible(self):
        # At two points of this grid Xi_hat has positive variances and a
        # negative determinant. Feasibility asks only for positive variances,
        # whose sum tr Xi_hat the search minimizes.
        rng = np.random.default_rng(2107100304)
        ds = fp.DetectionDataset(
            y=rng.standard_normal(6),
            x_tilde=rng.standard_normal((6, 2)),
            ensemble_sizes=np.array([5, 1]),
            control_runs=rng.standard_normal((6, 8)),
        )
        cache = variance.prepare_cache(ds)
        curve = assert_matches_reference(cache, ds.ensemble_sizes, default_grid(cache, 100))
        usable = curve.feasible
        indefinite = usable & (np.linalg.det(np.where(usable[:, None, None], curve.xi_hat, np.eye(2))) <= 0.0)
        assert indefinite.any()

    @pytest.mark.parametrize("route", ["dense", "qr"])
    def test_objective_is_trace_or_inf(self, route):
        # A problem whose curve has both feasible and infeasible points, on
        # either cache route: the eigh of a supplied S, or the QR of the
        # runs, which m = 23 < N = 34 selects.
        rng = np.random.default_rng(17)
        z = rng.standard_normal((34, 23))
        x = rng.standard_normal((34, 3))
        y = rng.standard_normal(34)
        cache = fp.build_cache(fp.compute_sample_covariance(z) if route == "dense" else z, x, y)
        assert cache.null_dim == (0 if route == "dense" else 34 - 23)
        curve = variance.evaluate_grid(cache, [4, 7, 1], np.geomspace(1e-3, 10.0, 30) * cache.tau_bar)
        feasible = np.equal(curve.reason, None)
        assert feasible.any() and not feasible.all()
        np.testing.assert_array_equal(curve.feasible, feasible)
        np.testing.assert_array_equal(curve.objective[~feasible], np.inf)
        np.testing.assert_array_equal(curve.objective[feasible], np.trace(curve.xi_hat[feasible], axis1=1, axis2=2))
        assert curve.chosen_index == np.argmin(curve.objective)

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
        f = rmt_grid(base, [lam])
        rng = np.random.default_rng(5)
        z = rng.standard_normal((8, 12))
        x = rng.standard_normal((8, 1)) * np.sqrt(f.theta1[0] / (n_size * f.g1[0, 0, 0]))
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
        near_tied = tls.tls_grid(rmt_grid(cache, [lam]).gram, [1])[2]
        assert near_tied[0]
        curve = assert_matches_reference(cache, [1], np.array([lam]))
        assert list(curve.reason) == ["degenerate_denominator"]
        assert curve.n_near_degenerate == 0


class TestOnePass:
    @pytest.mark.parametrize("replicates", [1, 3])
    def test_one_weight_matrix_and_two_weighted_sums(self, monkeypatch, replicates):
        # One pass forms the weights 1/(d_i + lambda) once, the data Gram
        # (which the TLS problem and g1 share) and g_s's weighted sum.
        calls = Counter()
        for name in ("weights", "weighted_gram"):
            original = getattr(spectral, name)

            def spy(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            # Every package module that binds the function counts its calls.
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("finprint") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy)
        if replicates == 1:
            cache = random_cache()
        else:
            # The stacked runs take the route of random_cache's S (m >= N).
            cache = fp.build_cache(*(np.stack(a) for a in zip(*map(random_arrays, range(replicates)))))
        grid = np.geomspace(*variance.default_bounds(cache.tau_bar), 40, axis=-1)
        curve = variance.evaluate_grid(cache, [3, 5], grid)
        assert curve.grid.shape == grid.shape
        assert calls == {"weights": 1, "weighted_gram": 2}


class TestOnePointCase:
    @pytest.mark.parametrize("lam", [0.05, 0.4, 3.0])
    def test_evaluate_lambda_matches_reference(self, lam):
        cache = signal_cache(7, 16, 10, 2)
        est = fp.evaluate_lambda(cache, [3, 5], lam)
        ref = reference_point(cache, [3, 5], lam)
        assert est.feasible[0] == (ref["reason"] is None)
        np.testing.assert_allclose(est.beta_hat[0], ref["beta_hat"], rtol=1e-10)
        np.testing.assert_allclose(est.xi_hat[0], ref["xi_hat"], rtol=1e-9)
        assert est.stability[0] == pytest.approx(ref["stability"], rel=1e-12)

    def test_failure_names_the_reason(self):
        cache = fp.build_cache(
            fp.SampleCovariance(s=np.eye(4), m=8), np.zeros((4, 1)), np.array([1.0, 0, 0, 0])
        )
        est = fp.evaluate_lambda(cache, [3], 1.0)
        assert list(est.reason) == ["vertical_solution"]


@contextmanager
def lapack_kernels():
    """The grid with LAPACK in place of every closed form: svd, inv and eigh as before them."""

    def smallest_eigenpair(m, tie_tol):
        vals, vecs = np.linalg.eigh(m)
        return vals, vecs[..., 0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_symmetric, "eigvalsh", np.linalg.eigvalsh)
        mp.setattr(_symmetric, "singular_values", lambda a: np.linalg.svd(a, compute_uv=False))
        mp.setattr(_symmetric, "inv", np.linalg.inv)
        mp.setattr(tls, "smallest_eigenpair", smallest_eigenpair)
        yield


def grid_problem(p, n, m, data, tie, axes, sizes, bounds, seed):
    """A dense cache, the caches to compare with LAPACK's kernels, and a 25-point grid.

    ``data`` is "signal", "noise", "rank_deficient" (Z of rank below
    min(N, m)) or "tie": S = c*I, under which every augmented Gram matrix
    is a multiple of the same one, whose two smallest eigenvalues are tied
    to a relative gap ``tie``. ``axes`` builds it on coordinate axes, so
    both sides of a comparison see exactly the same diagonal matrices, at
    any gap; otherwise it is rotated at random, and the gap is kept at
    1e-4 or more, where the eigenvector is still determined to the grid's
    tolerances (at a gap g it moves by ~1e-16/g under round-off in either
    kernel, and beta and Xi amplify that); those straddle the closed
    form's fallback to LAPACK at 1e-3. Under S = c*I with m = N,
    theta2 is exactly 0 and the comparison's atol (relative to the largest
    value) would be 0 as well, so tie problems take m = N + 1 there.
    ``bounds`` are the defaults, or
    reach the lambda floor 1e-153 or 1e300 ("floor", "top", "both"). At
    tau_bar ~ 1 the floor keeps N*(tau_bar/lambda_min)^2, the lambda_min
    rule's limit, finite for N <= 179 (N = 16 at most here).
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, m))
    if data == "rank_deficient" and min(n, m) > 1:
        rank = int(rng.integers(1, min(n, m)))
        z = z[:, :rank] @ rng.standard_normal((rank, m))
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n) + (x.sum(axis=1) if data == "signal" else 0.0)
    if data == "tie":
        # Augmented Gram matrix c' * V diag(spread) V^T.
        if m == n:
            m += 1
        k = p + 1
        spread = np.concatenate([[1.0, 1.0], 1.5 + rng.random(k - 2)])
        spread[1] += tie * spread.sum() / k
        if axes:
            # The tied pair lands on any two of the forcings and the response.
            basis = np.eye(n)[:, rng.permutation(n)[:k]] * np.sqrt(spread[rng.permutation(k)])
        else:
            # The minimizing eigenvector (first column of v) keeps a response
            # component of at least 1/2: a near-vertical one amplifies its
            # round-off into beta by 1/|component| in any kernel.
            head = rng.standard_normal(k - 1)
            head *= rng.uniform(0.0, np.sqrt(3.0)) / np.linalg.norm(head)
            u = np.linalg.qr(rng.standard_normal((n, k)))[0]
            v = np.linalg.qr(np.column_stack([np.append(head, 1.0), rng.standard_normal((k, k - 1))]))[0]
            basis = (u * np.sqrt(spread)) @ v.T
        x, y = basis[:, :p] / np.sqrt(sizes), basis[:, p]
        dense = fp.build_cache(fp.SampleCovariance(s=rng.uniform(0.5, 2.0) * np.eye(n), m=m), x, y)
        caches = [dense]
    else:
        dense = fp.build_cache(fp.compute_sample_covariance(z), x, y)
        caches = [dense, fp.build_cache(z, x, y)]
    lo, hi = variance.default_bounds(dense.tau_bar)
    if bounds in ("floor", "both"):
        lo = 1e-153
    if bounds in ("top", "both"):
        hi = 1e300
    return dense, caches, np.geomspace(lo, hi, 25)


@st.composite
def grid_problems(draw):
    p = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(p + 2, 16))
    m = draw(st.one_of(st.integers(1, n - 1), st.integers(n, 2 * n)))
    data = draw(st.sampled_from(["signal", "noise", "rank_deficient", "tie"]))
    axes = draw(st.booleans())
    if axes:
        tie = draw(st.just(0.0) | st.floats(-13.0, -2.0).map(lambda e: 10.0**e))
    else:
        tie = 10.0 ** draw(st.floats(-4.0, -2.0))
    sizes = np.array(draw(st.lists(st.integers(1, 50), min_size=p, max_size=p)))
    bounds = draw(st.sampled_from(["default", "floor", "top", "both"]))
    seed = draw(st.integers(0, 2**32 - 1))
    dense, caches, grid = grid_problem(p, n, m, data, tie, axes, sizes, bounds, seed)
    reference = bounds == "default" and (data != "tie" or axes)
    return dense, caches, sizes, grid, reference


def assert_matches_lapack(cache, sizes, grid):
    """The grid equals itself on LAPACK's kernels: reason codes, near ties and choice; values to tolerance."""
    with lapack_kernels():
        want = variance.evaluate_grid(cache, sizes, grid)
        objective = want.objective
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = variance.evaluate_grid(cache, sizes, grid)
    # Values are compared where Delta1 is well conditioned (or NaN: degenerate).
    d1 = variance.delta1_hat(rmt_grid(cache, grid), 1.0 / np.asarray(sizes, dtype=float))
    svals = np.linalg.svd(np.nan_to_num(d1), compute_uv=False)
    assert_same_curve(
        curve,
        sizes,
        reason=want.reason,
        feasible=np.isfinite(objective),
        chosen=None,
        n_near_degenerate=want.n_near_degenerate,
        compared=svals[:, 0] <= COMPARED_COND * svals[:, -1],
        **{name: getattr(want, name) for name in ("beta_hat", "xi_hat", "k_hat", "stability")},
    )
    if np.isfinite(objective).any():
        # Points whose objectives tie to round-off (a plateau at large
        # lambda) may trade places; the choice must attain LAPACK's minimum.
        i, j = curve.chosen_index, want.chosen_index
        assert i == j or np.isclose(objective[i], objective[j], rtol=1e-9, atol=0.0)


class TestClosedFormKernels:
    def test_near_vertical_point(self):
        # A drawn grid_problems() case (N = 6, m = 1, p = 3, sizes (25, 1, 1),
        # default bounds). At lambda = 0.178 tau_bar the TLS eigenvector's
        # response component is 1.3e-6 (its neighbours' 3.5e-4 to 1e-3), beta
        # ~ 6e5 and Xi's trace 3.7e13; the grid's trace is 2.7e-10 from the
        # reference's, which the amplification 1/1.3e-6 accounts for.
        z = np.array([0.345584192064786, 0.8216181435011584, 0.33043707618338714,
                      -1.303157231604361, 0.9053558666731177, 0.4463745723640113])[:, None]
        x = np.array([
            [-0.5369532353602852, 0.5811181041963531, 0.36457239618607573],
            [0.294132496655526, 0.02842224131579679, 0.5467129866124469],
            [-0.7364540870016669, -0.16290994799305278, -0.48211931267997826],
            [0.5988462126346276, 0.03972210748165899, -0.2924567509650886],
            [-0.7819084623568421, -0.2571922406188707, 0.008142180518343508],
            [-0.2756029052993704, 1.2940638143982073, 1.0067243153057943],
        ])
        y = np.array([-2.302425213943825, -1.019745521383903, -1.5562554397298598,
                      -0.07607884242515567, -0.817315524958758, 2.242507155427195])
        sizes = np.array([25, 1, 1])
        dense = fp.build_cache(fp.compute_sample_covariance(z), x, y)
        grid = np.geomspace(*variance.default_bounds(dense.tau_bar), 25)
        curve = assert_matches_reference(dense, sizes, grid)
        assert vertical_amplification(curve.beta_hat[10], sizes) > 1.0
        assert (vertical_amplification(np.delete(curve.beta_hat, 10, axis=0), sizes) == 1.0).all()
        for cache in (dense, fp.build_cache(z, x, y)):
            assert_matches_lapack(cache, sizes, grid)

    def test_cancelling_trace_not_compared(self):
        # A drawn grid_problems() case: at the fifth point the infeasible Xi's
        # diagonal (-9.53, 6.45, 3.09) sums to 1.4e-3, where the grid's and
        # the reference's traces, 6e-13 apart, agree to only 4.5e-10.
        sizes = np.array([17, 6, 16])
        dense, _, grid = grid_problem(3, 6, 7, "rank_deficient", 0.01, False, sizes, "default", 221)
        assert_matches_reference(dense, sizes, grid)

    @given(grid_problems())
    @settings(max_examples=150, deadline=None)
    def test_grid_matches_reference_and_lapack(self, problem):
        # The reference is compared at the default bounds. At lambda far
        # above tau_bar its G_S and theta2 underflow in another order than
        # the grid's, and near the floor at m < N the denominator b is
        # round-off that theta2 ~ 1/b^4 amplifies: there both sides of that
        # comparison are round-off, with LAPACK's kernels as with these.
        # Rotated ties are not compared with it either: on their exact
        # spectrum Xi's middle term D2 + theta2 * core nearly cancels (say
        # -5.5529 + 5.5533), which lifts the reference's other summation of
        # theta2 past 1e-10 in Xi at a few points in a thousand draws.
        dense, caches, sizes, grid, reference = problem
        if reference:
            assert_matches_reference(dense, sizes, grid)
        for cache in caches:
            assert_matches_lapack(cache, sizes, grid)
