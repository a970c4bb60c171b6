import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finprint as fp

Z_975 = 1.959963984540054  # standard-normal 0.975 quantile, reference value


class TestQuantiles:
    def test_normal_upper_tail(self):
        assert fp.inference.quantile_normal(0.975) == pytest.approx(Z_975, abs=1e-8)

    def test_normal_median(self):
        assert fp.inference.quantile_normal(0.5) == 0.0

    def test_normal_symmetry(self):
        assert fp.inference.quantile_normal(0.3) == pytest.approx(-fp.inference.quantile_normal(0.7), abs=1e-12)

    def test_chisq_two_df_closed_form(self):
        assert fp.inference.quantile_chisq(2, 0.95) == pytest.approx(-2.0 * np.log(0.05), abs=1e-10)

    def test_chisq_one_df_is_squared_normal(self):
        for alpha in (0.05, 0.2):
            z = fp.inference.quantile_normal(1.0 - alpha / 2.0)
            assert fp.inference.quantile_chisq(1, 1.0 - alpha) == pytest.approx(z**2, abs=1e-9)

    def test_out_of_domain(self):
        for q in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(fp.OutOfDomain):
                fp.inference.quantile_normal(q)
        for df in (0, 2.5, 2.0):
            with pytest.raises(fp.OutOfDomain):
                fp.inference.quantile_chisq(df, 0.5)
        with pytest.raises(fp.OutOfDomain):
            fp.inference.quantile_chisq(2, 1.0)

    @pytest.mark.parametrize("df", [1001, 1170])
    def test_chisq_df_above_1000_rejected(self, df):
        # Past df = 1000 the survival sum can overflow while e^{-h} is still
        # subnormal, so the CDF it gives is not the chi-square's.
        with pytest.raises(fp.OutOfDomain, match="df <= 1000"):
            fp.inference.quantile_chisq(df, 0.95)


class TestQuantilesAgainstScipy:
    """The stdlib quantiles against SciPy's, the reference the package no longer imports."""

    def test_normal_within_8_ulps(self):
        norm = pytest.importorskip("scipy.stats").norm
        qs = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 20001), [1e-12, 1e-9, 1.0 - 1e-9, 1.0 - 1e-12]])
        ours = np.array([fp.inference.quantile_normal(float(q)) for q in qs])
        theirs = norm.ppf(qs)
        ulps = np.abs(ours - theirs) / np.spacing(np.abs(theirs))
        assert ulps.max() <= 8

    @pytest.mark.parametrize("df", [*range(1, 13), 50, 200, 1000])
    def test_chisq_relative_1e12(self, df):
        chi2 = pytest.importorskip("scipy.stats").chi2
        qs = np.concatenate([np.linspace(0.01, 0.999, 200), [1e-9, 1e-4, 0.95, 1.0 - 1e-9]])
        ours = np.array([fp.inference.quantile_chisq(df, float(q)) for q in qs])
        np.testing.assert_allclose(ours, chi2.ppf(qs, df), rtol=1e-12, atol=0.0)


class TestMarginalCi:
    def test_reference_interval(self):
        lower, upper = fp.marginal_ci(1.0, 4.0, 100, alpha=0.05)
        assert lower == pytest.approx(1.0 - Z_975 * 0.2, abs=1e-8)
        assert upper == pytest.approx(1.0 + Z_975 * 0.2, abs=1e-8)
        assert (lower, upper) == pytest.approx((0.608007, 1.391993), abs=5e-7)

    def test_unit_quantile_interval(self):
        # alpha chosen so that z_{1 - alpha/2} = 1
        alpha = 2.0 * (1.0 - 0.8413447460685429)
        lower, upper = fp.marginal_ci(0.0, 1.0, 1, alpha=alpha)
        assert lower == pytest.approx(-1.0, abs=1e-8)
        assert upper == pytest.approx(1.0, abs=1e-8)

    def test_quadrupled_variance_doubles_half_width(self):
        lo1, hi1 = fp.marginal_ci(0.3, 1.7, 50)
        lo4, hi4 = fp.marginal_ci(0.3, 4.0 * 1.7, 50)
        assert hi4 - lo4 == 2.0 * (hi1 - lo1)

    def test_nonpositive_variance(self):
        with pytest.raises(fp.OutOfDomain, match="variance estimate must be positive, got 0.0"):
            fp.marginal_ci(1.0, 0.0, 10)
        with pytest.raises(fp.OutOfDomain, match="variance estimate must be positive, got -2.0"):
            fp.marginal_ci(1.0, -2.0, 10)

    def test_symmetric_about_zero_center_exactly(self):
        lower, upper = fp.marginal_ci(0.0, 2.3, 17)
        assert lower == -upper

    @given(
        st.floats(-5.0, 5.0),
        st.floats(0.01, 50.0),
        st.floats(0.01, 0.5),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_nested_in_alpha(self, beta, xi, a1, a2):
        lo_wide, hi_wide = fp.marginal_ci(beta, xi, 25, alpha=min(a1, a2))
        lo_narrow, hi_narrow = fp.marginal_ci(beta, xi, 25, alpha=max(a1, a2))
        assert lo_wide <= lo_narrow <= beta <= hi_narrow <= hi_wide

    @given(st.floats(-5.0, 5.0), st.floats(0.01, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_contains_center(self, beta, xi):
        lower, upper = fp.marginal_ci(beta, xi, 25)
        assert lower <= beta <= upper
        assert upper - beta == pytest.approx(beta - lower, abs=1e-12)


class TestJointRegion:
    def test_center_is_inside(self):
        res = fp.joint_region_test([1.0, 2.0], [1.0, 2.0], np.eye(2), 10)
        assert res.statistic == 0.0
        assert res.inside

    def test_reference_outside_point(self):
        res = fp.joint_region_test([0.0, 0.0], [1.0, 1.0], np.eye(2), 4, alpha=0.05)
        assert res.statistic == pytest.approx(8.0)
        assert res.threshold == pytest.approx(5.991464547107979, abs=1e-9)
        assert not res.inside

    def test_single_forcing_matches_marginal_interval(self):
        beta, xi, n, alpha = 0.3, 2.1, 17, 0.05
        lower, upper = fp.marginal_ci(beta, xi, n, alpha)
        for beta0, expected in [
            (lower + 1e-9, True),
            (upper - 1e-9, True),
            (lower - 1e-6, False),
            (upper + 1e-6, False),
            (beta, True),
        ]:
            res = fp.joint_region_test([beta0], [beta], [[xi]], n, alpha)
            assert res.inside == expected

    def test_singular_covariance(self):
        with pytest.raises(fp.OutOfDomain, match="covariance estimate is numerically singular"):
            fp.joint_region_test([0.0, 0.0], [1.0, 1.0], np.ones((2, 2)), 5)


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
