
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondo_maps import circle
from parrondo_maps.circle import (
    Angle,
    CircleInterval,
    circle_dist,
    monotone_circle_inverse,
    _dist_to_zero,
    _mod1,
    wrap_turns,
)
from parrondo_maps.profiles import AngularProfile, AngularShape

angles = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
turns = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.0 - 2.0**-53, 1e16, -1e16, 0.5, -0.5]),
)


# Finite doubles of every sign and magnitude, with the edge cases of a
# reduction mod 1 drawn often: signed zeros, subnormals, integers, huge values
# and a tiny negative that rounds up to 1.
reducible = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 3.0, -3.0, 2.0**53, -(2.0**53),
                     1e300, -1e300, -1e-20, 0.5, -0.5, 1.0 - 2.0**-53, -(1.0 - 2.0**-53)]),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


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


class TestTurnReduction:
    # Equal bit patterns include the sign bit, so -0.0 and +0.0 differ here.
    @settings(max_examples=500)
    @given(st.lists(reducible, min_size=1, max_size=8))
    def test_floor_form_is_numpy_and_python_mod(self, xs):
        x = np.array(xs)
        got = _mod1(x)
        np.testing.assert_array_equal(_bits(got), _bits(x % 1.0))
        np.testing.assert_array_equal(_bits(got), _bits([v % 1.0 for v in xs]))
        np.testing.assert_array_equal(np.signbit(got), np.signbit(x % 1.0))
        # Through out, a strided view as the lock-step engine passes, x untouched.
        before = x.copy()
        buf = np.full((len(xs), 2), np.nan)[:, 0]
        assert _mod1(x, out=buf) is buf
        np.testing.assert_array_equal(_bits(buf), _bits(x % 1.0))
        np.testing.assert_array_equal(_bits(x), _bits(before))

    def test_out_may_not_be_the_input(self):
        # x - floor(x) written into x itself would read the floor back: zeros.
        x = np.array([0.25, -0.75, 3.5])
        with pytest.raises(ValueError, match="out must be another array than x"):
            _mod1(x, out=x)
        np.testing.assert_array_equal(x, [0.25, -0.75, 3.5])

    @pytest.mark.parametrize("x, kind", [(3, float), (np.float64(-0.75), np.float64), (np.array(-0.75), np.float64)])
    def test_scalar_types_are_kept(self, x, kind):
        assert type(_mod1(x)) is kind

    @settings(max_examples=300)
    @given(st.lists(reducible, min_size=1, max_size=8))
    def test_array_paths_equal_scalar_paths(self, xs):
        x = np.array(xs)
        for f in (wrap_turns, _dist_to_zero):
            np.testing.assert_array_equal(_bits(f(x)), _bits([f(v) for v in xs]))


class TestAngle:
    def test_normalizes(self):
        assert Angle(1.25).value == 0.25
        assert Angle(-0.25).value == 0.75

    def test_arithmetic(self):
        assert float(Angle(0.75) + 0.5) == 0.25
        assert float(Angle(0.25) + Angle(0.5)) == 0.75

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            Angle(value)
        with pytest.raises(ValueError, match="finite"):
            Angle(0.25) + value


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
        x = monotone_circle_inverse(lift, y)
        assert circle_dist(x, 0.2) <= 1e-10

    def test_budget_exhaustion(self, monkeypatch):
        # The tolerance and the budget are read at call time.
        monkeypatch.setattr(circle, "INVERSE_TOL", 1e-15)
        monkeypatch.setattr(circle, "INVERSE_BUDGET", 3)
        with pytest.raises(ValueError, match="within 3 iterations"):
            monotone_circle_inverse(_drift_lift(0.25), 0.3)

    @settings(max_examples=300)
    @given(
        st.one_of(angles, st.sampled_from(EDGE_TARGETS)),
        st.sampled_from(list(AngularShape)),
        st.floats(min_value=0.01, max_value=0.31),
        st.sampled_from([1e-9, 1e-12, 1e-14]),
    )
    def test_round_trip_on_both_drift_shapes(self, y, shape, d, tol):
        lift = _drift_lift(d, shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(circle, "INVERSE_TOL", tol)
            x = monotone_circle_inverse(lift, y)
        assert circle_dist(wrap_turns(lift(float(x))), y) <= tol

    @pytest.mark.parametrize("shape", list(AngularShape))
    def test_lift_evaluations_on_a_target_sweep(self, shape):
        lift, calls = _counting(_drift_lift(0.25, shape))
        targets = np.linspace(0.0, 1.0, 10_000, endpoint=False).tolist() + EDGE_TARGETS
        counts = []
        for y in targets:
            calls[0] = 0
            x = monotone_circle_inverse(lift, y)
            counts.append(calls[0])
            assert circle_dist(wrap_turns(lift(float(x))), y) <= 1e-12
        bisection = max(_bisection_evaluations(lift, y, 1e-12) for y in targets)
        assert np.mean(counts) <= 12.0
        assert max(counts) <= bisection

    @settings(max_examples=200)
    @given(angles, st.floats(min_value=0.01, max_value=0.31))
    def test_round_trip_property(self, y, d):
        lift = _drift_lift(d)
        x = monotone_circle_inverse(lift, y)
        assert circle_dist(wrap_turns(lift(float(x))), y) <= 1e-12
