import hashlib
import itertools
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parrondo_maps import circle, profiles
from parrondo_maps.circle import _dist_to_zero, _mod1, circle_dist, wrap_turns
from parrondo_maps.cli import main
from parrondo_maps.profiles import (
    DRIFT_LIPSCHITZ_FACTOR,
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

    def test_array_evaluation_matches_scalar(self):
        # Every a, those whose a * (dist / w) overflows past the arc included,
        # and the float neighbours of the arc's edges, the antipode and 1.
        for a, w in itertools.product(
            [5.0, 4.000000000001, 12.0, 1e6, 1e300, 1e308, sys.float_info.max], [0.125, 0.05, 0.2]
        ):
            rp = RadialProfile(a, w)
            edges = [x for e in (w, -w, 0.5, 1.0) for x in (math.nextafter(e, -1.0), e, math.nextafter(e, 2.0))]
            thetas = np.concatenate([np.linspace(0.0, 1.0, 101), edges])
            np.testing.assert_array_equal(
                rp.delta_r(thetas), np.array([rp.delta_r(float(t)) for t in thetas]), err_msg=f"a={a}, w={w}"
            )

    def test_array_evaluation_is_a_times_the_slow_arc_fraction_minus_one(self):
        # The fraction is a-free: 0 at whole turns, in [0, 1], and exactly 1.0 from the
        # arc's edge on, so the increment there is exactly a - 1.
        w = 0.125
        thetas = np.concatenate([np.linspace(-1.0, 2.0, 301), [w, -w, math.nextafter(w, 0.0), 0.5, -0.0]])
        q = RadialProfile(5.0, w).slow_arc_fraction(thetas)
        assert np.all(q[0:301:100] == 0.0) and np.all((0.0 <= q) & (q <= 1.0))
        assert np.array_equal(q == 1.0, circle_dist(thetas, 0.0) >= w)
        for a in (5.0, 0.5, 1e300, sys.float_info.max):
            rp = RadialProfile(a, w)
            assert np.array_equal(rp.slow_arc_fraction(thetas), q)
            assert rp.delta_r(thetas).tobytes() == (a * q - 1.0).tobytes()

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

    def test_one_class_method_serves_both_shapes(self, monkeypatch):
        # A tracer wraps delta_theta on the class; an instance holds only its fields.
        assert set(vars(AngularProfile(0.25, 0.125, "piecewise_linear"))) == {"d", "w_ref", "shape"}
        assert not hasattr(AngularProfile, "_piecewise_linear_drift")
        calls = []
        original = AngularProfile.delta_theta

        def counted(self, theta):
            calls.append(self.shape)
            return original(self, theta)

        monkeypatch.setattr(AngularProfile, "delta_theta", counted)
        for shape in AngularShape:
            ap = AngularProfile(0.25, 0.125, shape)
            for theta in (0.0, 0.1, 0.5, 0.9, np.linspace(0.0, 1.0, 5)):
                ap.delta_theta(theta)
        assert calls == [AngularShape.RAISED_COSINE] * 5 + [AngularShape.PIECEWISE_LINEAR] * 5


# Finite doubles of every sign and magnitude, signed zeros, whole turns and
# huge values included, as 1-D arrays of lanes or 2-D (step, lane) blocks.
out_turns = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
    elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, -0.5, 1.0 - 2.0**-53, -1e-20,
                         2.0**53, -(2.0**53), 1e300, -1e300]),
    ),
)

OUT_PROFILES = {"slow arc fraction": RadialProfile(5.0, 0.125).slow_arc_fraction}


def _profile_function(name):
    return {
        "radial": RadialProfile(5.0, 0.125).delta_r,
        **OUT_PROFILES,
        "raised cosine": AngularProfile(0.25, 0.125).delta_theta,
        "tent": AngularProfile(0.2, 0.125, AngularShape.PIECEWISE_LINEAR).delta_theta,
    }[name]


class TestOutContract:
    @settings(max_examples=300, deadline=None)
    @given(out_turns)
    def test_out_receives_the_result_bit_for_bit(self, theta):
        before = theta.copy()
        for name in OUT_PROFILES:
            f = _profile_function(name)
            want = f(theta)
            # Contiguous, and a strided view as the lock-step engine's last block passes.
            for buf in (np.full(want.shape, np.nan), np.full(want.shape + (2,), np.nan)[..., 0]):
                assert f(theta, out=buf) is buf, name
                assert buf.tobytes() == want.tobytes(), name
            assert theta.tobytes() == before.tobytes(), name

    @pytest.mark.parametrize("name", list(OUT_PROFILES))
    def test_out_may_not_be_theta(self, name):
        theta = np.array([0.25, -0.75, 3.5])
        with pytest.raises(ValueError, match="out must be another array than"):
            _profile_function(name)(theta, out=theta)
        np.testing.assert_array_equal(theta, [0.25, -0.75, 3.5])

    # The types a scalar angle gave before out existed: an int, a numpy float
    # (which takes the float branch) and a 0-d array.
    @pytest.mark.parametrize("name, kinds", [
        ("radial", (np.float64, float, np.float64)),
        ("slow arc fraction", (np.float64, np.float64, np.float64)),
        ("raised cosine", (np.float64, float, np.float64)),
        ("tent", (float, np.float64, np.float64)),
    ])
    def test_scalar_types_are_kept(self, name, kinds):
        f = _profile_function(name)
        for theta, kind in zip((0, np.float64(0.3), np.array(0.3)), kinds):
            assert type(f(theta)) is kind, theta


# Signed zeros, negatives, one ulp either side of 1/2 and 1, whole and huge
# turns, then seeded turns of both signs.
PINNED_TURNS = np.concatenate([
    [0.0, -0.0, -1e-20, -0.25, -0.75, -1.0, -3.5, -1e300],
    [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)],
    [1.25, 7.75, 2.0**51 + 0.5, 2.0**53, 1e300],
    np.random.default_rng(34).uniform(-4.0, 4.0, 61),
])
ARRAY_BRANCHES = {
    "mod1": _mod1,
    "raised cosine": AngularProfile(0.25, 0.125).delta_theta,
    "tent": AngularProfile(0.2, 0.125, AngularShape.PIECEWISE_LINEAR).delta_theta,
}


def test_array_branches_are_pinned():
    """sha256 over the array results of both drift shapes and of ``_mod1`` on
    (step, lane) blocks: ``_mod1``'s with no ``out``, a contiguous ``out`` and
    a strided one, and each drift's three times, as when the drifts took the
    same ``out`` arguments."""
    theta = PINNED_TURNS.reshape(4, 20)
    h = hashlib.sha256()
    for name, f in ARRAY_BRANCHES.items():
        for out in (None, np.full((4, 20), np.nan), np.full((4, 20, 3), np.nan)[..., 1]):
            got = f(theta, out) if f is _mod1 else f(theta)
            assert got.dtype == np.float64 and (out is None or f is not _mod1 or got is out), name
            h.update(name.encode() + got.tobytes())
    assert h.hexdigest() == "3a4ebd2819ed8e27e7331f6da4e8c063ed053463e99c1494c13dd036902bccb6"


# An integer angle gives a float drift.  _mod1 is left out for it: numpy 2.3
# floors an integer array to its own dtype, earlier versions to the narrowest
# float that holds it.
@pytest.mark.parametrize("name, dtype, result", [
    *[(name, dtype, dtype) for name in ARRAY_BRANCHES for dtype in (np.float16, np.float32, np.float64)],
    ("raised cosine", np.int64, np.float64),
    ("tent", np.int64, np.float64),
])
def test_array_branches_keep_their_result_dtype(name, dtype, result):
    # A Python-float constant is weak under NEP 50, so a narrow float stays narrow.
    theta = np.array([0.0, 0.25, -0.75, 1.5, 3.0]).astype(dtype)
    assert ARRAY_BRANCHES[name](theta).dtype == result


def _mod1_before_numpy_2_3(x, out=None):
    """``_mod1`` as numpy before 2.3 computes it: ``floor`` had no integer loop
    and took an integer array to the narrowest float that holds it."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iu":
        x = x.astype(np.promote_types(x.dtype, np.float16))
    return _mod1(x, out)


PUBLIC_MOD1_CALLERS = {
    "wrap_turns": wrap_turns,
    "circle_dist": circle_dist,
    "slow_arc_fraction": RadialProfile(5.0, 0.125).slow_arc_fraction,
    "delta_r": RadialProfile(5.0, 0.125).delta_r,
    **{f"delta_theta {name}": f for name, f in ARRAY_BRANCHES.items() if name != "mod1"},
}


@pytest.mark.parametrize("floor", ["this numpy", "numpy before 2.3"])
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize("name", PUBLIC_MOD1_CALLERS)
def test_integer_turns_give_float64(name, dtype, floor, monkeypatch):
    # Whatever dtype numpy floors an integer array to, int8 included, every
    # public caller of _mod1 gives float64, the same bits as on float64 turns.
    if floor != "this numpy":
        monkeypatch.setattr(circle, "_mod1", _mod1_before_numpy_2_3)
        monkeypatch.setattr(profiles, "_mod1", _mod1_before_numpy_2_3)
    f = PUBLIC_MOD1_CALLERS[name]
    turns = np.array([0, 1, -3, 7, 100], dtype=dtype)
    got = f(turns)
    assert got.dtype == np.float64
    assert got.tobytes() == f(turns.astype(np.float64)).tobytes()


@pytest.mark.parametrize("name", PUBLIC_MOD1_CALLERS)
def test_bool_turns_are_refused(name):
    # A bool array is no number of turns: each public caller refuses it,
    # naming it, where numpy's boolean subtract raised TypeError.
    with pytest.raises(ValueError, match=re.escape("turns must be numbers, got a bool array array([ True, False])")):
        PUBLIC_MOD1_CALLERS[name](np.array([True, False]))


class TestFactories:
    def test_expansion_bound(self):
        with pytest.raises(ValueError, match="expansion a must exceed 4"):
            make_radial_profile(4.0, 0.125)
        make_radial_profile(4.0 + 1e-9, 0.125)

    def test_width_bounds(self):
        with pytest.raises(ValueError, match="arc half width w must lie in"):
            make_radial_profile(5.0, 0.3)
        with pytest.raises(ValueError, match="arc half width w must lie in"):
            make_radial_profile(5.0, 0.0)

    def test_monotonicity_bound_checked_first(self):
        # 0.35 violates both the gap cap and 1/pi; the homeomorphism bound wins.
        with pytest.raises(ValueError, match="strictly increasing"):
            make_angular_profile(0.35, w_ref=0.125)

    def test_monotonicity_bound_follows_shape(self):
        # 0.4 fits the gap for w = 0.01; it breaks the raised cosine (>= 1/pi)
        # but not the tent (< 1/2).
        with pytest.raises(ValueError, match="strictly increasing"):
            make_angular_profile(0.4, w_ref=0.01)
        ap = make_angular_profile(0.4, w_ref=0.01, shape=AngularShape.PIECEWISE_LINEAR)
        assert ap.shape is AngularShape.PIECEWISE_LINEAR
        with pytest.raises(ValueError, match="strictly increasing"):
            make_angular_profile(0.5, w_ref=0.0, shape=AngularShape.PIECEWISE_LINEAR)

    @pytest.mark.parametrize("w_ref", [math.nan, -math.inf, -1.0, 0.0])
    def test_reference_width_must_be_positive(self, w_ref):
        # d = 0.1 is below both shapes' monotonicity bounds, and the gap test
        # d > 1/2 - 2*w_ref passes each of these widths (a NaN gap compares false).
        for shape in AngularShape:
            with pytest.raises(ValueError, match="w_ref"):
                make_angular_profile(0.1, w_ref=w_ref, shape=shape)

    def test_drift_cap(self):
        with pytest.raises(ValueError, match="exceeds the gap"):
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

    def test_verify_reports_the_checks(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--samples", "100", "--grid", "100", "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert d["passed"] is True
        assert all({"code", "passed", "witness"} <= set(c) for c in d["profile_checks"])

    def test_c4_band_the_grid_missed_fails(self):
        # pi * d - 1 = 3.6e-7: the lift decreases on an arc about 2.7e-4 wide
        # around 3/4, which a 4096-point grid steps over.
        report = validate_profiles(RadialProfile(5.0, 0.05), AngularProfile(0.31831, 0.05))
        assert [c.code for c in report.failures()] == ["C4"]
        assert report["C4"].witness == 0.75
        with pytest.raises(ValueError, match="strictly increasing"):
            make_angular_profile(0.31831, 0.05)

    @pytest.mark.parametrize("shape", list(AngularShape))
    def test_negative_drift_fails_c4_at_a_quarter(self, shape):
        d = -1.01 / DRIFT_LIPSCHITZ_FACTOR[shape]
        c4 = validate_profiles(RadialProfile(5.0, 0.01), AngularProfile(d, 0.01, shape))["C4"]
        assert not c4.passed and c4.witness == 0.25

    def test_wide_expansion_below_one_fails_c2(self):
        # For 2w < a < 1 the tent is negative everywhere, also off the inner arc.
        c2 = validate_profiles(RadialProfile(0.7, 0.125), AngularProfile(0.25, 0.125))["C2"]
        assert not c2.passed and c2.witness == 0.5 and c2.detail == ""
        assert validate_profiles(RadialProfile(0.2, 0.125), AngularProfile(0.25, 0.125))["C2"].passed

    def test_zero_expansion_is_negative_everywhere(self):
        report = validate_profiles(RadialProfile(0.0, 0.125), AngularProfile(0.25, 0.125))
        assert report.passed

    def test_negative_expansion_witness_is_an_angle(self):
        c2 = validate_profiles(RadialProfile(-1.0, 0.125), AngularProfile(0.25, 0.125))["C2"]
        assert not c2.passed and c2.witness == 0.5

    def test_radial_knot_near_a_whole_turn_does_not_fail_the_drift(self):
        # w/a = 20.000000000000004: the grid sampled the drift at that knot,
        # found 0 and failed C3 with witness 20.0.
        report = validate_profiles(RadialProfile(0.01, 0.2), AngularProfile(0.05, 0.2))
        assert report.passed

    def test_nan_expansion_leaves_the_drift_check_alone(self):
        report = validate_profiles(RadialProfile(math.nan, 0.1), AngularProfile(0.1, 0.1))
        assert [c.code for c in report.failures()] == ["C1", "C2"]
        assert report["C2"].detail == "delta_r(0) = nan"

    @pytest.mark.parametrize(
        "rp, ap, detail",
        [
            (RadialProfile(5.0, 0.125), AngularProfile(0.26, 0.125), "max drift 0.26 > gap 0.25"),
            (RadialProfile(5.0, 0.3), AngularProfile(-0.1, 0.3), "max drift -0.0 > gap -0.09999999999999998"),
            (RadialProfile(5.0, 0.3), AngularProfile(0.1, 0.3), "max drift 0.1 > gap -0.09999999999999998"),
        ],
    )
    def test_c3_detail_strings(self, rp, ap, detail):
        assert validate_profiles(rp, ap)["C3"].detail == detail

    @pytest.mark.parametrize(
        "rp, ap",
        [
            (RadialProfile(5.0, 0.0), AngularProfile(0.1, 0.0)),
            (RadialProfile(5.0, 0.1), AngularProfile(math.inf, 0.1)),
            (RadialProfile(math.nan, 0.1), AngularProfile(0.1, 0.1)),
            (RadialProfile(math.inf, math.inf), AngularProfile(-math.inf, math.inf)),
            (RadialProfile(math.nan, math.nan), AngularProfile(math.nan, math.nan, "piecewise_linear")),
        ],
    )
    def test_degenerate_parameters_neither_raise_nor_warn(self, rp, ap):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_profiles(rp, ap, require_even=True)
        assert not report.passed
        params = (rp.a, rp.w, ap.d)
        if not all(map(math.isfinite, params)):
            assert not report["C6"].passed
        _assert_witnesses_are_angles(report)


def _assert_witnesses_are_angles(report):
    for c in report.checks:
        if c.code != "C5":
            assert (c.witness is None) == c.passed, c
            assert c.witness is None or (math.isfinite(c.witness) and 0.0 <= c.witness < 1.0), c


def _grid_oracle(rp, ap, grid_n=4096):
    """The sampled decision ``validate_profiles`` used to make: each condition
    tested on a grid of ``grid_n`` angles plus the tent's breakpoints.

    Returns ``{code: (passed, detail)}`` with C6 included.  Its own rounding
    misleads it in two places, so the sweep below stays clear of both: a
    breakpoint ``w/a`` near a whole number of turns, where the drift rounds to
    0, and a large ``a/w``, where the mirrored breakpoints differ by more than
    its 1e-12 evenness tolerance.
    """
    a, w, d = rp.a, rp.w, ap.d
    jw = w / a if a != 0 else math.inf
    thetas = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, 1.0, grid_n, endpoint=False),
                np.asarray([0.0, jw, (-jw) % 1.0, w, (-w) % 1.0], float),
                np.asarray([0.5], float),
            ]
        )
    )
    dist = _dist_to_zero(thetas)
    dr = rp.delta_r(thetas)
    dth = ap.delta_theta(thetas)
    out = {"C1": (not ((dist >= w) & (dr != a - 1.0)).any(), "")}
    at_zero_ok = rp.delta_r(0.0) == -1.0
    bad = (dr < -1.0 - 1e-15) | ((dist < jw) & (dr >= 1e-12)) | ((dist > jw) & (dr < -1e-12))
    out["C2"] = (at_zero_ok and not bad.any(), "" if at_zero_ok else f"delta_r(0) = {rp.delta_r(0.0)}")
    gap = 0.5 - 2.0 * w
    nonneg = not (dth < 0.0).any()
    zero_only_at_zero = bool(ap.delta_theta(0.0) == 0.0) and not ((thetas != 0.0) & (dth <= 0.0)).any()
    capped = d <= gap + 1e-12 and float(dth.max()) <= gap + 1e-12
    out["C3"] = (
        nonneg and zero_only_at_zero and capped,
        "" if capped else f"max drift {max(d, float(dth.max()))} > gap {gap}",
    )
    xs = np.unique(np.concatenate([thetas, np.asarray([1.0])]))
    out["C4"] = (not (np.diff(ap.lift(xs)) <= 0.0).any(), "")
    out["C5"] = (w < 0.25, "")
    uneven = (np.abs(dr - rp.delta_r(-thetas)) > 1e-12) | (np.abs(dth - ap.delta_theta(-thetas)) > 1e-12)
    out["C6"] = (not uneven.any(), "")
    return out


def _near(x, bounds, rel=1e-6):
    """Whether ``x`` lies within ``rel`` of a bound, relative except at 0."""
    return any(abs(x - b) < rel * (abs(b) or 1.0) for b in bounds)


EPS = 2e-6  # relative offset of the sweep's points on either side of a bound
SWEEP_W = [-0.2, -0.013, 0.011, 0.05, 0.125, 0.2, 0.25 * (1 - EPS), 0.25 * (1 + EPS), 0.3, 0.45, 0.6, 0.8]


@pytest.mark.parametrize("shape", list(AngularShape))
@pytest.mark.parametrize("w", SWEEP_W)
def test_exact_checks_match_the_grid_away_from_the_bounds(shape, w):
    bound = 1.0 / DRIFT_LIPSCHITZ_FACTOR[shape]
    gap = 0.5 - 2.0 * w
    a_values = [-3.0, -0.017, 0.0017, 0.043, 0.3, 0.7, 1 - EPS, 1 + EPS, 2.5, 5.0, 40.0, 2 * w * (1 - EPS), 2 * w * (1 + EPS)]
    d_values = [-0.6, -0.4, -0.2, -0.003, 0.003, 0.1, 0.25, 0.45, 0.55]
    d_values += [b * (1 + s) for b in (gap, bound, -bound) for s in (-EPS, EPS)]
    verdicts = set()
    for a, d in itertools.product(a_values, d_values):
        if _near(a, (0.0, 1.0, 2 * w)) or _near(w, (0.0, 0.25)) or _near(d, (0.0, gap, bound, -bound)):
            continue
        rp, ap = RadialProfile(a, w), AngularProfile(d, w, shape)
        report = validate_profiles(rp, ap, require_even=True)
        got = {c.code: (c.passed, c.detail) for c in report.checks}
        assert got == _grid_oracle(rp, ap), (a, w, d, shape)
        _assert_witnesses_are_angles(report)
        verdicts.update((c.code, c.passed) for c in report.checks)
    # Each check that the parameters can fail fails somewhere in the sweep.
    assert {("C2", False), ("C3", False), ("C4", False)} <= verdicts


dims = st.fixed_dictionaries(
    {
        "a": st.floats(min_value=4.0, max_value=1e3, exclude_min=True),
        "w": st.floats(min_value=0.0, max_value=0.25, exclude_min=True, exclude_max=True),
        "d_share": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        "shape": st.sampled_from(list(AngularShape)),
    }
)


@settings(max_examples=200)
@given(dims)
def test_what_the_factories_accept_passes_every_check(p):
    cap = min(0.5 - 2.0 * p["w"], 1.0 / DRIFT_LIPSCHITZ_FACTOR[p["shape"]])
    try:
        rp = make_radial_profile(p["a"], p["w"])
        ap = make_angular_profile(p["d_share"] * cap, p["w"], p["shape"])
    except ValueError:
        return
    assert validate_profiles(rp, ap, require_even=True).passed


@settings(max_examples=300)
@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.floats(min_value=0.0, max_value=0.25, exclude_min=True, exclude_max=True),
    st.sampled_from(list(AngularShape)),
)
@example(0.31831, 0.05, AngularShape.RAISED_COSINE)
@example(1.0 / math.pi, 0.01, AngularShape.RAISED_COSINE)
@example(math.nextafter(1.0 / math.pi, 0.0), 0.01, AngularShape.RAISED_COSINE)
@example(0.5, 0.01, AngularShape.PIECEWISE_LINEAR)
def test_c4_fails_iff_the_factory_refuses_the_drift(d, w, shape):
    c4 = validate_profiles(RadialProfile(5.0, w), AngularProfile(d, w, shape))["C4"]
    try:
        make_angular_profile(d, w, shape)
        refused = False
    except ValueError as exc:
        # The monotonicity refusal, or the gap's: only the first is C4's.
        refused = "strictly increasing" in str(exc)
        assert refused or "exceeds the gap" in str(exc)
    assert c4.passed is not refused


drifts = st.sampled_from(list(AngularShape)).flatmap(
    lambda shape: st.tuples(
        st.floats(0.0, 1.0 / DRIFT_LIPSCHITZ_FACTOR[shape], exclude_min=True, exclude_max=True),
        st.just(shape),
    )
)


@settings(max_examples=300)
@given(drifts, st.floats(min_value=0.0, max_value=0.25, exclude_min=True, exclude_max=True))
@example((math.nextafter(0.25, 1.0), AngularShape.RAISED_COSINE), 0.125)
@example((math.nextafter(0.25, 1.0), AngularShape.PIECEWISE_LINEAR), 0.125)
@example((0.25 + 1e-13, AngularShape.RAISED_COSINE), 0.125)
@example((0.25 + 1e-13, AngularShape.PIECEWISE_LINEAR), 0.125)
@example((0.25, AngularShape.RAISED_COSINE), 0.125)
def test_c3_fails_iff_the_factory_refuses_the_gap(drift, w):
    # Below the monotonicity bound the gap is the factory's only refusal.
    d, shape = drift
    c3 = validate_profiles(RadialProfile(5.0, w), AngularProfile(d, w, shape))["C3"]
    try:
        make_angular_profile(d, w, shape)
        refused = False
    except ValueError as exc:
        assert "exceeds the gap" in str(exc)
        refused = True
    assert c3.passed is not refused
    assert c3.witness == (0.5 if refused else None)
