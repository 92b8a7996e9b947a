
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondo_maps.circle import (
    Angle,
    CircleInterval,
    check_monotone_lift,
    circle_dist,
    interval_gap,
    monotone_circle_inverse,
    wrap_turns,
)
from parrondo_maps.errors import (
    NoConvergenceError,
    NonDisjointError,
    NotMonotoneError,
)
from parrondo_maps.profiles import AngularProfile, AngularShape

angles = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
turns = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.0 - 2.0**-53, 1e16, -1e16, 0.5, -0.5]),
)


def _forked_circle_dist(x, y):
    """The two-branch formula that circle_dist replaced, kept as the reference."""
    t = abs(wrap_turns(getattr(x, "value", x)) - wrap_turns(getattr(y, "value", y)))
    if isinstance(t, np.ndarray):
        return np.minimum(t, 1.0 - t)
    return t if t <= 0.5 else 1.0 - t


@st.composite
def circle_point_pairs(draw):
    """Two points of one kind: floats, Angles, or arrays of one length."""
    kind = draw(st.sampled_from(["float", "angle", "array"]))
    if kind == "array":
        n = draw(st.integers(1, 6))
        return tuple(np.array(draw(st.lists(turns, min_size=n, max_size=n))) for _ in range(2))
    point = Angle if kind == "angle" else float
    return point(draw(turns)), point(draw(turns))


class TestCircleDist:
    def test_identity(self):
        assert circle_dist(0.0, 0.0) == 0.0

    def test_wraparound(self):
        assert circle_dist(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)

    def test_antipodal_maximum(self):
        assert circle_dist(0.0, 0.5) == 0.5

    def test_accepts_angles_and_arrays(self):
        assert circle_dist(Angle(0.25), Angle(0.75)) == 0.5
        xs = np.array([0.0, 0.1, 0.6])
        np.testing.assert_allclose(circle_dist(xs, 0.0), [0.0, 0.1, 0.4])

    @given(angles, angles)
    def test_symmetry_and_range(self, x, y):
        d = circle_dist(x, y)
        assert d == circle_dist(y, x)
        assert 0.0 <= d <= 0.5

    @given(angles)
    def test_self_distance_zero(self, x):
        assert circle_dist(x, x) == 0.0

    @settings(max_examples=500)
    @given(circle_point_pairs())
    def test_same_bits_as_the_forked_formula(self, pair):
        x, y = pair
        got, want = circle_dist(x, y), _forked_circle_dist(x, y)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestAngle:
    def test_normalizes(self):
        assert Angle(1.25).value == 0.25
        assert Angle(-0.25).value == 0.75

    def test_arithmetic(self):
        assert float(Angle(0.75) + 0.5) == 0.25
        assert float(Angle(0.25) - Angle(0.5)) == 0.75

    def test_dist(self):
        assert Angle(0.1).dist(0.9) == pytest.approx(0.2, abs=1e-15)


class TestCircleInterval:
    def test_contains_wraps(self):
        arc = CircleInterval(Angle(0.0), 0.125)
        assert arc.contains(0.9)
        assert not arc.contains(0.2)
        assert not arc.contains(0.125)  # open arc

    def test_center_coercion(self):
        arc = CircleInterval(0.5, 0.1)
        assert arc.center == Angle(0.5)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            CircleInterval(Angle(0.0), 0.5)

    @pytest.mark.parametrize("half_width,disjoint", [(0.2, True), (0.3, False)])
    def test_translate_disjointness(self, half_width, disjoint):
        # Grid oracle: an overlap point lies in both the arc and its translate.
        arc = CircleInterval(Angle(0.0), half_width)
        shifted = arc.translate(0.5)
        grid = np.linspace(0.0, 1.0, 20001, endpoint=False)
        overlap = arc.contains(grid) & shifted.contains(grid)
        assert (not overlap.any()) == disjoint


class TestIntervalGap:
    def test_example_by_endpoint_enumeration(self):
        # Oracle: the distance between (-1/8, 1/8) and (3/8, 5/8) is the
        # smallest pairwise distance between their endpoints.
        endpoints_a = [-0.125, 0.125]
        endpoints_b = [0.375, 0.625]
        oracle = min(circle_dist(x, y) for x in endpoints_a for y in endpoints_b)
        assert oracle == 0.25
        assert interval_gap(CircleInterval(Angle(0.0), 0.125)) == oracle

    def test_limiting_case(self):
        eps = 1e-6
        gap = interval_gap(CircleInterval(Angle(0.0), 0.25 - eps))
        assert gap == pytest.approx(2 * eps, abs=1e-15)

    def test_overlapping_raises(self):
        with pytest.raises(NonDisjointError):
            interval_gap(CircleInterval(Angle(0.0), 0.3))

    @given(st.floats(min_value=1e-6, max_value=0.2499))
    def test_gap_identity(self, half_width):
        arc = CircleInterval(Angle(0.0), half_width)
        assert abs(interval_gap(arc) + 2.0 * half_width - 0.5) <= 1e-12


def _drift_lift(d, shape=AngularShape.RAISED_COSINE):
    return AngularProfile(d, 0.125, shape).lift


# Targets on and next to the wrap point and the kink of the tent at 1/2.
EDGE_TARGETS = [0.0, 0.5, math.nextafter(1.0, 0.0), 1e-17]


def _counting(lift):
    calls = [0]

    def counted(x):
        calls[0] += 1
        return lift(x)

    return counted, calls


def _bisection_evaluations(lift, y, tol):
    """Lift evaluations of plain bisection on [0, 1], counting lift(0)."""
    base = lift(0.0)
    target = base + ((y - base) % 1.0)
    lo, hi, n = 0.0, 1.0, 1
    while True:
        mid = 0.5 * (lo + hi)
        val = lift(mid)
        n += 1
        if abs(val - target) <= tol:
            return n
        lo, hi = (mid, hi) if val < target else (lo, mid)


class TestMonotoneInverse:
    def test_identity_lift(self):
        x = monotone_circle_inverse(lambda t: t, 0.3)
        assert circle_dist(x, 0.3) <= 1e-12

    def test_forward_then_invert(self):
        lift = _drift_lift(0.25)
        y = wrap_turns(lift(0.2))
        x = monotone_circle_inverse(lift, y, 1e-12)
        assert circle_dist(x, 0.2) <= 1e-10

    def test_non_monotone_rejected(self):
        # Drift amplitude 0.5 > 1/pi makes the lift fold back.
        with pytest.raises(NotMonotoneError):
            monotone_circle_inverse(_drift_lift(0.5), 0.3)

    def test_wrong_degree_rejected(self):
        with pytest.raises(NotMonotoneError):
            check_monotone_lift(lambda t: 2.0 * t)

    def test_budget_exhaustion(self):
        with pytest.raises(NoConvergenceError):
            monotone_circle_inverse(_drift_lift(0.25), 0.3, tol=1e-15, max_iter=3)

    def test_knots_are_sampled(self):
        check_monotone_lift(lambda t: t, knots=(0.1, 0.9))

    @settings(max_examples=300)
    @given(
        st.one_of(angles, st.sampled_from(EDGE_TARGETS)),
        st.sampled_from(list(AngularShape)),
        st.floats(min_value=0.01, max_value=0.31),
        st.sampled_from([1e-9, 1e-12, 1e-14]),
    )
    def test_round_trip_on_both_drift_shapes(self, y, shape, d, tol):
        lift = _drift_lift(d, shape)
        x = monotone_circle_inverse(lift, y, tol, precheck=False)
        assert circle_dist(wrap_turns(lift(float(x))), y) <= tol

    @pytest.mark.parametrize("shape", list(AngularShape))
    def test_lift_evaluations_on_a_target_sweep(self, shape):
        lift, calls = _counting(_drift_lift(0.25, shape))
        targets = np.linspace(0.0, 1.0, 10_000, endpoint=False).tolist() + EDGE_TARGETS
        counts = []
        for y in targets:
            calls[0] = 0
            x = monotone_circle_inverse(lift, y, precheck=False)
            counts.append(calls[0])
            assert circle_dist(wrap_turns(lift(float(x))), y) <= 1e-12
        bisection = max(_bisection_evaluations(lift, y, 1e-12) for y in targets)
        assert np.mean(counts) <= 12.0
        assert max(counts) <= bisection

    @settings(max_examples=200)
    @given(angles, st.floats(min_value=0.01, max_value=0.31))
    def test_round_trip_property(self, y, d):
        lift = _drift_lift(d)
        x = monotone_circle_inverse(lift, y, 1e-12, precheck=False)
        assert circle_dist(wrap_turns(lift(float(x))), y) <= 1e-12
