import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondo_maps.circle import circle_dist
from parrondo_maps.errors import (
    BadExpansionError,
    BadWidthError,
    DriftTooLargeError,
    NotHomeomorphismError,
)
from parrondo_maps.profiles import (
    AngularProfile,
    AngularShape,
    RadialProfile,
    default_profiles,
    make_angular_profile,
    make_radial_profile,
    trapping_interval,
    validate_profiles,
)

angles = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


class TestRadialProfile:
    def test_outside_value(self, profiles):
        rp, _ = profiles
        assert rp.delta_r(0.3) == 4.0

    def test_dip_at_zero(self, profiles):
        rp, _ = profiles
        assert rp.delta_r(0.0) == -1.0

    def test_zero_crossing(self, profiles):
        rp, _ = profiles
        assert rp.delta_r(1.0 / 40.0) == pytest.approx(0.0, abs=1e-15)

    def test_continuity_at_arc_edge(self, profiles):
        rp, _ = profiles
        eps = 1e-12
        assert rp.delta_r(rp.w) == 4.0
        assert rp.delta_r(rp.w - eps) == pytest.approx(4.0, abs=1e-9)

    def test_array_evaluation_matches_scalar(self, profiles):
        rp, _ = profiles
        thetas = np.linspace(0.0, 1.0, 101)
        np.testing.assert_array_equal(
            rp.delta_r(thetas), np.array([rp.delta_r(float(t)) for t in thetas])
        )

    def test_grid_minimum_only_in_trap_closure(self, profiles):
        rp, _ = profiles
        grid = np.linspace(0.0, 1.0, 100_000, endpoint=False)
        vals = rp.delta_r(grid)
        assert abs(float(vals.min()) - (-1.0)) <= 1e-12
        attained = grid[vals <= -1.0 + 1e-12]
        assert np.all(circle_dist(attained, 0.0) <= rp.w / rp.a + 1e-9)

    @settings(max_examples=200)
    @given(angles, angles)
    def test_lipschitz(self, x, y):
        rp, _ = default_profiles()
        bound = rp.a / rp.w * circle_dist(x, y) + 1e-12
        assert abs(rp.delta_r(x) - rp.delta_r(y)) <= bound


class TestAngularProfile:
    def test_zero_at_origin(self, profiles):
        _, ap = profiles
        assert ap.delta_theta(0.0) == 0.0

    def test_maximum_at_antipode(self, profiles):
        _, ap = profiles
        assert ap.delta_theta(0.5) == ap.d == 0.25

    def test_capped_by_gap_on_grid(self, profiles):
        rp, ap = profiles
        grid = np.linspace(0.0, 1.0, 100_000, endpoint=False)
        assert float(ap.delta_theta(grid).max()) <= (0.5 - 2 * rp.w) + 1e-12

    @settings(max_examples=200)
    @given(angles, angles)
    def test_lipschitz(self, profiles_by_shape, x, y):
        for _, ap in profiles_by_shape.values():
            slope = math.pi if ap.shape is AngularShape.RAISED_COSINE else 2.0
            bound = slope * ap.d * circle_dist(x, y) + 1e-12
            assert abs(ap.delta_theta(x) - ap.delta_theta(y)) <= bound

    def test_default_shape_is_raised_cosine(self, profiles):
        _, ap = profiles
        assert ap.shape is AngularShape.RAISED_COSINE


class TestPiecewiseLinearDrift:
    @pytest.fixture
    def ap(self, tent_profiles):
        return tent_profiles[1]

    def test_tent_values(self, ap):
        assert ap.delta_theta(0.0) == 0.0
        assert ap.delta_theta(0.5) == ap.d == 0.25
        # Oracle: 2 d dist(theta, 0), symmetric about 0.
        assert ap.delta_theta(0.1) == pytest.approx(0.05, abs=1e-15)
        assert ap.delta_theta(0.9) == pytest.approx(0.05, abs=1e-15)

    def test_array_evaluation_matches_scalar(self, ap):
        thetas = np.linspace(0.0, 1.0, 101)
        np.testing.assert_array_equal(
            ap.delta_theta(thetas), np.array([ap.delta_theta(float(t)) for t in thetas])
        )

    def test_lipschitz_constant(self, ap):
        # The bound 2 d of test_lipschitz is attained: the tent is linear on [0, 1/2].
        assert (ap.delta_theta(0.25) - ap.delta_theta(0.0)) / 0.25 == 2.0 * ap.d

    def test_string_shape_is_coerced(self):
        ap = AngularProfile(0.25, 0.125, "piecewise_linear")
        assert ap.shape is AngularShape.PIECEWISE_LINEAR
        assert ap.delta_theta(0.25) == 0.125


class TestFactories:
    def test_expansion_bound(self):
        with pytest.raises(BadExpansionError):
            make_radial_profile(4.0, 0.125)
        make_radial_profile(4.0 + 1e-9, 0.125)

    def test_width_bounds(self):
        with pytest.raises(BadWidthError):
            make_radial_profile(5.0, 0.3)
        with pytest.raises(BadWidthError):
            make_radial_profile(5.0, 0.0)

    def test_monotonicity_bound_checked_first(self):
        # 0.35 violates both the gap cap and 1/pi; the homeomorphism bound wins.
        with pytest.raises(NotHomeomorphismError):
            make_angular_profile(0.35, w_ref=0.125)

    def test_monotonicity_bound_follows_shape(self):
        # 0.4 fits the gap for w = 0.01; it breaks the raised cosine (>= 1/pi)
        # but not the tent (< 1/2).
        with pytest.raises(NotHomeomorphismError):
            make_angular_profile(0.4, w_ref=0.01)
        ap = make_angular_profile(0.4, w_ref=0.01, shape=AngularShape.PIECEWISE_LINEAR)
        assert ap.shape is AngularShape.PIECEWISE_LINEAR
        with pytest.raises(NotHomeomorphismError):
            make_angular_profile(0.5, w_ref=0.0, shape=AngularShape.PIECEWISE_LINEAR)

    def test_drift_cap(self):
        with pytest.raises(DriftTooLargeError):
            make_angular_profile(0.26, w_ref=0.125)

    def test_nonpositive_drift(self):
        with pytest.raises(ValueError):
            make_angular_profile(-0.1, w_ref=0.125)

    def test_defaults_saturate_cap(self):
        rp, ap = default_profiles()
        assert ap.d == 0.5 - 2.0 * rp.w


class TestTrappingInterval:
    @pytest.mark.parametrize("a,expected", [(5.0, 1.0 / 40.0), (10.0, 1.0 / 80.0)])
    def test_half_width_solves_zero(self, a, expected):
        rp = make_radial_profile(a, 0.125)
        trap = trapping_interval(rp)
        assert trap.half_width == pytest.approx(expected, abs=1e-15)
        # Oracle: bisection for the zero of delta_r on [0, w].
        lo, hi = 0.0, rp.w
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if rp.delta_r(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert trap.half_width == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_strictly_negative_inside(self, profiles):
        rp, _ = profiles
        trap = trapping_interval(rp)
        assert rp.delta_r(trap.half_width) == pytest.approx(0.0, abs=1e-15)
        inside = np.linspace(-0.9, 0.9, 37) * trap.half_width
        assert np.all(rp.delta_r(inside % 1.0) < 0.0)


class TestValidateProfiles:
    def test_defaults_pass(self, profiles):
        report = validate_profiles(*profiles)
        assert report.passed
        assert [c.code for c in report.checks] == ["C1", "C2", "C3", "C4", "C5"]

    def test_wide_arc_fails_c5(self):
        report = validate_profiles(RadialProfile(5.0, 0.3), AngularProfile(0.1, 0.3))
        assert not report.passed
        assert not report["C5"].passed

    def test_oversized_drift_fails_c3(self):
        report = validate_profiles(RadialProfile(5.0, 0.125), AngularProfile(0.26, 0.125))
        assert not report.passed
        c3 = report["C3"]
        assert not c3.passed

    def test_non_monotone_drift_fails_c4_with_witness(self):
        report = validate_profiles(RadialProfile(5.0, 0.01), AngularProfile(0.4, 0.01))
        c4 = report["C4"]
        assert not c4.passed
        assert c4.witness is not None

    def test_evenness_check_optional(self, profiles):
        report = validate_profiles(*profiles, require_even=True)
        assert report["C6"].passed

    def test_report_round_trips_to_dict(self, profiles):
        d = validate_profiles(*profiles).to_dict()
        assert d["passed"] is True
        assert all({"code", "passed", "witness"} <= set(c) for c in d["checks"])
