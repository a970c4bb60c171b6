import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finprint as fp
from conftest import reported_interval

Z_975 = 1.959963984540054  # standard-normal 0.975 quantile, reference value


class TestQuantiles:
    def test_normal_upper_tail(self):
        assert fp.inference.quantile_normal(0.975) == pytest.approx(Z_975, abs=1e-8)

    def test_normal_median(self):
        assert fp.inference.quantile_normal(0.5) == 0.0

    def test_normal_symmetry(self):
        assert fp.inference.quantile_normal(0.3) == pytest.approx(-fp.inference.quantile_normal(0.7), abs=1e-12)

    def test_out_of_domain(self):
        for q in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(fp.OutOfDomain):
                fp.inference.quantile_normal(q)


class TestQuantilesAgainstScipy:
    """The stdlib quantile against SciPy's, the reference the package no longer imports."""

    def test_normal_within_8_ulps(self):
        norm = pytest.importorskip("scipy.stats").norm
        qs = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 20001), [1e-12, 1e-9, 1.0 - 1e-9, 1.0 - 1e-12]])
        ours = np.array([fp.inference.quantile_normal(float(q)) for q in qs])
        theirs = norm.ppf(qs)
        ulps = np.abs(ours - theirs) / np.spacing(np.abs(theirs))
        assert ulps.max() <= 8

    @pytest.mark.parametrize("alpha", [0.5, 0.32, 0.1, 0.05, 0.01, 1e-4, 1e-8, 1e-12, 1e-15, 2.3e-16])
    def test_reported_half_width_relative_1e12(self, alpha):
        # The half-width a fit reports is z_{1-alpha/2} sqrt(xi/N), with the
        # quantile taken at the float 1 - alpha/2, down to near the smallest
        # alpha check_alpha admits (2^-52).
        norm = pytest.importorskip("scipy.stats").norm
        xi, n_dim = 2.7, 31
        lower, upper = reported_interval(0.0, xi, n_dim, alpha=alpha)
        expected = norm.ppf(1.0 - alpha / 2.0) * np.sqrt(xi / n_dim)
        assert upper == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert lower == -upper


class TestCheckAlpha:
    @pytest.mark.parametrize("alpha", [0.5, 0.05, 0.999999, 1e-15])
    def test_returns_admissible_alpha(self, alpha):
        assert fp.inference.check_alpha(alpha) == alpha

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.05, 1.5, float("nan")])
    def test_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(fp.OutOfDomain, match=r"^alpha must be in \(0, 1\)"):
            fp.inference.check_alpha(alpha)

    def test_smallest_alpha_is_two_to_minus_52(self):
        # 1 - 2^-53 is the float just below 1; 1 - 2^-54 rounds (to even) to 1.
        assert fp.inference.check_alpha(2.0**-52) == 2.0**-52
        with pytest.raises(fp.OutOfDomain, match=r"^alpha = .* is too small"):
            fp.inference.check_alpha(2.0**-53)


def stacked_curve(xi_traces, off_diagonal=0.0, reason=None):
    """A (R, G) two-forcing curve: replicate r, point g has beta = (r + g, -g),
    xi = diag(t, 2 t) + off_diagonal at t = xi_traces[r][g] / 3, so its trace
    (the objective) is xi_traces[r][g]."""
    t = np.asarray(xi_traces, dtype=float) / 3.0
    r_count, g_count = t.shape
    r, g = np.indices(t.shape)
    xi = np.empty((r_count, g_count, 2, 2))
    xi[..., 0, 0], xi[..., 1, 1] = t, 2.0 * t
    xi[..., 0, 1] = xi[..., 1, 0] = off_diagonal
    return fp.LambdaCurve(
        grid=np.tile(np.linspace(0.5, 2.0, g_count), (r_count, 1)),
        beta_hat=np.stack([r + g, -g], axis=-1).astype(float),
        k_hat=np.zeros(t.shape),
        xi_hat=xi,
        stability=np.ones(t.shape),
        reason=np.full(t.shape, None) if reason is None else reason,
        n_near_degenerate=np.zeros(r_count, dtype=int),
    )


class TestBuildFitResult:
    TRACES = [[3.0, 1.5, 6.0, 9.0], [9.0, 6.0, 4.5, 3.0], [0.9, 1.2, 1.5, 1.8]]

    def test_each_replicate_reports_its_chosen_point(self):
        curve = stacked_curve(self.TRACES)
        fit = fp.inference.build_fit_result(curve, 40, 0.1)
        assert fit.lambda_opt.shape == (3,) and fit.ci_lower.shape == fit.ci_upper.shape == (3, 2)
        for r, g in enumerate([1, 3, 0]):
            assert fit.lambda_opt[r] == curve.grid[r, g]
            np.testing.assert_array_equal(fit.beta_hat[r], curve.beta_hat[r, g])
            np.testing.assert_array_equal(fit.xi_hat[r], curve.xi_hat[r, g])
            z = fp.inference.quantile_normal(0.95)
            for k in range(2):
                half = z * np.sqrt(curve.xi_hat[r, g, k, k] / 40)
                interval = (fit.ci_lower[r, k], fit.ci_upper[r, k])
                assert interval == pytest.approx((fit.beta_hat[r, k] - half, fit.beta_hat[r, k] + half), rel=1e-15)

    def test_records_alpha_and_dimension(self):
        fit = fp.inference.build_fit_result(stacked_curve(self.TRACES), 40, 0.1)
        assert fit.alpha == 0.1 and fit.n_dim == 40
        assert all(fit.row(r).alpha == 0.1 and fit.row(r).n_dim == 40 for r in range(3))

    @pytest.mark.parametrize("off_diagonal", [-0.4, 0.0, 0.3])
    def test_off_diagonal_leaves_marginal_intervals(self, off_diagonal):
        base = fp.inference.build_fit_result(stacked_curve(self.TRACES), 40, 0.05)
        fit = fp.inference.build_fit_result(stacked_curve(self.TRACES, off_diagonal), 40, 0.05)
        assert fit.ci_lower.tolist() == base.ci_lower.tolist()
        assert fit.ci_upper.tolist() == base.ci_upper.tolist()

    def test_verdicts_follow_intervals(self):
        fit = fp.inference.build_fit_result(stacked_curve(self.TRACES), 40, 0.05)
        for r in range(3):
            intervals = tuple(zip(fit.ci_lower[r].tolist(), fit.ci_upper[r].tolist()))
            assert fit.row(r).intervals == intervals
            assert fit.row(r).verdicts == tuple(fp.da_verdict(ci) for ci in intervals)

    def test_each_fit_carries_its_replicate_curve(self):
        curve = stacked_curve(self.TRACES)
        fit = fp.inference.build_fit_result(curve, 40, 0.05)
        assert fit.curve is curve
        for r in range(3):
            row = fit.row(r)
            np.testing.assert_array_equal(row.curve.grid, curve.grid[r])
            np.testing.assert_array_equal(row.curve.xi_hat, curve.xi_hat[r])
            assert row.curve.chosen_index == curve.chosen_index[r]

    def test_stacked_matches_one_replicate_at_a_time(self):
        curve = stacked_curve(self.TRACES)
        stacked = fp.inference.build_fit_result(curve, 40, 0.05)
        for r in range(3):
            alone = fp.inference.build_fit_result(curve.replicate(np.array([r])), 40, 0.05)
            assert alone.ci_lower.tolist() == stacked.ci_lower[[r]].tolist()
            assert alone.ci_upper.tolist() == stacked.ci_upper[[r]].tolist()
            assert alone.lambda_opt.tolist() == stacked.lambda_opt[[r]].tolist()

    def test_unusable_points_are_never_reported(self):
        reason = np.full((3, 4), None)
        reason[0, 1] = "degenerate_denominator"
        reason[2, 0] = "nonpositive_variance"
        fit = fp.inference.build_fit_result(stacked_curve(self.TRACES, reason=reason), 40, 0.05)
        assert fit.lambda_opt.tolist() == [0.5, 2.0, 1.0]
        assert fit.feasible.tolist() == [True, True, True]

    def test_replicate_without_a_usable_point_is_a_nan_row(self):
        reason = np.full((3, 4), None)
        reason[1] = "singular_delta1"
        fit = fp.inference.build_fit_result(stacked_curve(self.TRACES, reason=reason), 40, 0.05)
        assert fit.feasible.tolist() == [True, False, True]
        for name in ("lambda_opt", "beta_hat", "xi_hat", "ci_lower", "ci_upper"):
            values = getattr(fit, name)
            assert np.isnan(values[1]).all() and np.isfinite(values[[0, 2]]).all()
        assert fit.lambda_opt[[0, 2]].tolist() == [1.0, 0.5]

    def test_nonpositive_variance_of_second_forcing_rejected(self):
        curve = stacked_curve(self.TRACES)
        curve.xi_hat[1, 3, 1, 1] = 0.0
        with pytest.raises(fp.OutOfDomain, match="variance estimate must be positive, got 0.0"):
            fp.inference.build_fit_result(curve, 40, 0.05)


class TestMarginalCi:
    """The marginal interval beta +/- z_{1-alpha/2} * sqrt(xi / N) that a fit reports."""

    def test_reference_interval(self):
        lower, upper = reported_interval(1.0, 4.0, 100, alpha=0.05)
        assert lower == pytest.approx(1.0 - Z_975 * 0.2, abs=1e-8)
        assert upper == pytest.approx(1.0 + Z_975 * 0.2, abs=1e-8)
        assert (lower, upper) == pytest.approx((0.608007, 1.391993), abs=5e-7)

    def test_unit_quantile_interval(self):
        # alpha chosen so that z_{1 - alpha/2} = 1
        alpha = 2.0 * (1.0 - 0.8413447460685429)
        lower, upper = reported_interval(0.0, 1.0, 1, alpha=alpha)
        assert lower == pytest.approx(-1.0, abs=1e-8)
        assert upper == pytest.approx(1.0, abs=1e-8)

    def test_quadrupled_variance_doubles_half_width(self):
        lo1, hi1 = reported_interval(0.3, 1.7, 50)
        lo4, hi4 = reported_interval(0.3, 4.0 * 1.7, 50)
        assert hi4 - lo4 == 2.0 * (hi1 - lo1)

    def test_nonpositive_variance(self):
        with pytest.raises(fp.OutOfDomain, match="variance estimate must be positive, got 0.0"):
            reported_interval(1.0, 0.0, 10)
        with pytest.raises(fp.OutOfDomain, match="variance estimate must be positive, got -2.0"):
            reported_interval(1.0, -2.0, 10)

    def test_symmetric_about_zero_center_exactly(self):
        lower, upper = reported_interval(0.0, 2.3, 17)
        assert lower == -upper

    @given(
        st.floats(-5.0, 5.0),
        st.floats(0.01, 50.0),
        st.floats(0.01, 0.5),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_nested_in_alpha(self, beta, xi, a1, a2):
        lo_wide, hi_wide = reported_interval(beta, xi, 25, alpha=min(a1, a2))
        lo_narrow, hi_narrow = reported_interval(beta, xi, 25, alpha=max(a1, a2))
        assert lo_wide <= lo_narrow <= beta <= hi_narrow <= hi_wide

    @given(st.floats(-5.0, 5.0), st.floats(0.01, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_contains_center(self, beta, xi):
        lower, upper = reported_interval(beta, xi, 25)
        assert lower <= beta <= upper
        assert upper - beta == pytest.approx(beta - lower, abs=1e-12)


class TestDaVerdict:
    def test_detected_and_attributed(self):
        v = fp.da_verdict((0.2, 1.5))
        assert v.detected and v.attributed

    def test_not_detected(self):
        v = fp.da_verdict((-0.1, 0.5))
        assert not v.detected and not v.attributed

    def test_detected_only(self):
        v = fp.da_verdict((0.3, 0.9))
        assert v.detected and not v.attributed

    def test_order_check(self):
        with pytest.raises(ValueError):
            fp.da_verdict((1.0, 0.0))

    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(0, 3)), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_permuting_intervals_permutes_verdicts(self, raw):
        intervals = [(lo, lo + width) for lo, width in raw]
        verdicts = [fp.da_verdict(ci) for ci in intervals]
        perm = list(reversed(range(len(intervals))))
        permuted = [fp.da_verdict(intervals[i]) for i in perm]
        assert permuted == [verdicts[i] for i in perm]

    def test_boundary_zero_not_detected(self):
        assert not fp.da_verdict((0.0, 2.0)).detected
