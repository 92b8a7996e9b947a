import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parrondo_maps.circle import Angle, circle_dist
from parrondo_maps.dynamics import iterate
from parrondo_maps import highdim
from parrondo_maps.highdim import (
    apply_h,
    apply_h_k,
    apply_j_k,
    check_cone_condition,
    robust_norm,
)
from parrondo_maps.planar import CylPoint, apply_f0
from parrondo_maps.profiles import TWO_PI, AngularProfile, AngularShape, RadialProfile, default_profiles

angles = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
shapes = st.sampled_from(list(AngularShape))


@st.composite
def scaled_batches(draw, min_k=2, max_k=25):
    """Batches whose rows sit at scales 1e-300 to 1e300, with zero rows and axis rows."""
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-300.0, 300.0, (n, 1))
    kinds = draw(st.lists(st.sampled_from(["general", "zero", "pole", "equator"]), min_size=n, max_size=n))
    for row, kind in zip(X, kinds):
        if kind == "zero":
            row[:] = 0.0
        elif kind == "pole":
            row[:-1] = 0.0
        elif kind == "equator":
            row[-1] = 0.0
    return X


def _profiles_with(shape):
    rp, _ = default_profiles()
    return rp, AngularProfile(0.25, 0.125, shape)


def _quarter_turn(x):
    """e_last -> e_first -> -e_last, as a permutation of the coordinates with one negation."""
    return np.concatenate([x[-1:], x[1:-1], -x[:1]])


def _quarter_turn_inv(x):
    return np.concatenate([-x[-1:], x[1:-1], x[:1]])


def _equatorial_dir(x):
    """The unit direction of a point's first k - 1 coordinates."""
    return x[:-1] / np.linalg.norm(x[:-1])


def _mirrored_half_step(rp, ap, p):
    """``apply_h`` written out on Python floats: the doubled-angle step on
    [0, 1/2], mirrored at 1/2 for the other half."""
    t = p.theta.value
    if t <= 0.5:
        return CylPoint(p.r + rp.delta_r(2.0 * t), Angle(t + 0.5 * ap.delta_theta(2.0 * t)))
    u = 1.0 - t
    return CylPoint(p.r + rp.delta_r(2.0 * u), Angle(1.0 - (u + 0.5 * ap.delta_theta(2.0 * u))))


class TestApplyH:
    @pytest.mark.parametrize("shape", list(AngularShape))
    def test_equals_the_scalar_mirror_bit_for_bit(self, shape):
        rp, ap = _profiles_with(shape)
        seams = [0.0, 0.25, 0.5, 0.75, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
                 math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]
        ts = seams + np.random.default_rng(17).random(10_000).tolist()
        for t in ts:
            p = CylPoint(0.3, Angle(t))
            q, o = apply_h(rp, ap, p), _mirrored_half_step(rp, ap, p)
            assert type(q.r) is float and type(q.theta.value) is float
            assert (q.r.hex(), q.theta.value.hex()) == (o.r.hex(), o.theta.value.hex()), t

    def test_invariant_ray_north(self, profiles):
        rp, ap = profiles
        q = apply_h(rp, ap, CylPoint(0.0, Angle(0.0)))
        assert (q.r, q.theta.value) == (-1.0, 0.0)

    def test_invariant_ray_south(self, profiles):
        rp, ap = profiles
        q = apply_h(rp, ap, CylPoint(0.0, Angle(0.5)))
        assert (q.r, q.theta.value) == (-1.0, 0.5)

    def test_equator_point(self, profiles):
        rp, ap = profiles
        q = apply_h(rp, ap, CylPoint(0.0, Angle(0.25)))
        assert q.r == 4.0
        assert q.theta.value == 0.25 + 0.125

    def test_seam_continuity(self, profiles):
        rp, ap = profiles
        eps = 1e-9
        upper = apply_h(rp, ap, CylPoint(0.0, Angle(0.5 - eps)))
        lower = apply_h(rp, ap, CylPoint(0.0, Angle(0.5 + eps)))
        assert abs(upper.r - lower.r) <= 1e-6
        assert circle_dist(upper.theta, lower.theta) <= 1e-6

    @settings(max_examples=200)
    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_doubling_conjugacy_on_upper_half(self, t):
        # On [0, 1/2] the doubled angle must follow the base map's lift.
        rp, ap = default_profiles()
        q = apply_h(rp, ap, CylPoint(0.0, Angle(t)))
        base = apply_f0(rp, ap, CylPoint(0.0, Angle(2.0 * t)))
        assert q.r == base.r
        assert circle_dist(2.0 * q.theta.value, base.theta.value) <= 1e-12

    @settings(max_examples=200)
    @given(angles)
    def test_mirror_symmetry(self, t):
        # The reflected angle loses one ulp, which the tent's slope a/w
        # amplifies; 1e-12 absorbs that.
        rp, ap = default_profiles()
        q = apply_h(rp, ap, CylPoint(0.0, Angle(t)))
        m = apply_h(rp, ap, CylPoint(0.0, Angle(-t)))
        assert q.r == pytest.approx(m.r, abs=1e-12)
        assert circle_dist(q.theta.value, -m.theta.value) <= 1e-12


class TestSphericalCoords:
    """The polar split and recomposition inside ``apply_h_k``, seen through
    the map that only shrinks: gain -1 everywhere and no drift, so each point
    goes to itself over e."""

    still = (RadialProfile(0.0, 0.125), AngularProfile(0.0, 0.125))

    def test_north_pole(self):
        assert np.array_equal(apply_h_k(*self.still, np.array([0.0, 0.0, 1.0])), [0.0, 0.0, math.exp(-1.0)])

    def test_equator(self):
        img = apply_h_k(*self.still, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(img[:-1], [math.exp(-1.0), 0.0])
        assert abs(img[-1]) <= 1e-16

    def test_pole_compose_is_exact(self):
        for sign in (1.0, -1.0):
            img = apply_h_k(*self.still, np.array([0.0, 0.0, 0.0, sign]))
            assert np.array_equal(img, [0.0, 0.0, 0.0, sign * math.exp(-1.0)])

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_round_trip(self, k):
        rng = np.random.default_rng(k)
        for _ in range(300):
            x = rng.normal(size=k) * math.exp(rng.uniform(-5, 5))
            np.testing.assert_allclose(apply_h_k(*self.still, x), x * math.exp(-1.0), rtol=1e-9, atol=0.0)

    def test_robust_norm_extreme_scales(self):
        assert robust_norm(np.array([1e-300, 0.0, 0.0])) == 1e-300
        assert robust_norm(np.array([3e-200, 4e-200, 0.0])) == pytest.approx(
            5e-200, rel=1e-15
        )
        assert robust_norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
        assert robust_norm(np.zeros(3)) == 0.0
        long = np.full(20, 3e-200)
        long[0] = 4e200
        assert robust_norm(long) == pytest.approx(4e200, rel=1e-15)
        assert robust_norm(np.full(25, 1e200)) == pytest.approx(5e200, rel=1e-15)


class TestSuspension:
    def test_origin_fixed(self, profiles):
        rp, ap = profiles
        assert np.array_equal(apply_h_k(rp, ap, np.zeros(3)), np.zeros(3))

    def test_north_ray_contracts(self, profiles):
        rp, ap = profiles
        img = apply_h_k(rp, ap, np.array([0.0, 0.0, 1.0]))
        assert img[0] == 0.0 and img[1] == 0.0
        assert img[2] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_equator_expands_keeping_azimuth(self, profiles):
        rp, ap = profiles
        img = apply_h_k(rp, ap, np.array([1.0, 0.0, 0.0]))
        assert robust_norm(img) == pytest.approx(math.exp(4.0), rel=1e-12)
        np.testing.assert_allclose(_equatorial_dir(img), [1.0, 0.0], atol=1e-15)

    def test_dimension_guard(self, profiles):
        rp, ap = profiles
        with pytest.raises(ValueError):
            apply_h_k(rp, ap, np.ones(2))

    @pytest.mark.parametrize("fn", [apply_h_k, apply_j_k])
    def test_only_one_point_is_accepted(self, profiles, fn):
        rp, ap = profiles
        for x in (np.ones((2, 3)), np.ones((1, 4)), np.float64(1.0), np.ones(2)):
            with pytest.raises(ValueError, match="one point"):
                fn(rp, ap, x)

    @settings(max_examples=200)
    @given(scaled_batches(min_k=3, max_k=8), shapes)
    def test_single_point_matches_the_row_formula(self, X, shape):
        # Reference: the suspension's formula on one row, with numpy's hypot
        # reduction for the norms; zero, pole and equator rows included.  The
        # tolerance is relative to the image's norm.
        rp, ap = _profiles_with(shape)
        for x in X:
            expected, rho = np.zeros_like(x), 0.0
            norm = np.hypot.reduce(x)
            if norm > 0.0:
                polar = np.arccos(np.clip(x[-1] / norm, -1.0, 1.0)) / TWO_PI
                doubled = 2.0 * polar
                rho = np.exp(np.log(norm) + rp.delta_r(doubled))
                p2 = polar + 0.5 * ap.delta_theta(doubled)
                pnorm = np.hypot.reduce(x[:-1])
                if pnorm > 0.0:
                    expected[:-1] = rho * np.sin(TWO_PI * p2) * (x[:-1] / pnorm)
                    expected[-1] = rho * np.cos(TWO_PI * p2)
                else:
                    expected[-1] = rho if polar < 0.25 else -rho
            np.testing.assert_allclose(apply_h_k(rp, ap, x), expected, rtol=1e-12, atol=1e-12 * rho)

    def test_overflowing_step_gives_infinity(self, profiles):
        rp, ap = profiles
        x = np.full(3, 1e307)
        single = apply_h_k(rp, ap, x)
        assert np.array_equal(single, [math.inf, math.inf, math.inf])
        trace = iterate(lambda y: apply_h_k(rp, ap, y), x, 200)
        assert trace.n_steps == 1
        assert trace.rs[-1] == math.inf
        assert trace.thetas[-1] == 0.0

    def test_equatorial_direction_preserved(self, profiles):
        rp, ap = profiles
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.normal(size=4)
            before = _equatorial_dir(x)
            after = _equatorial_dir(apply_h_k(rp, ap, x))
            np.testing.assert_allclose(after, before, rtol=0.0, atol=1e-15)

    def test_axis_orbit_decreases_one_per_step(self, profiles):
        rp, ap = profiles
        for pole in (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])):
            x = pole
            prev = 0.0
            for _ in range(30):
                x = apply_h_k(rp, ap, x)
                r = math.log(robust_norm(x))
                assert r == pytest.approx(prev - 1.0, abs=1e-12)
                assert x[0] == 0.0 and x[1] == 0.0
                prev = r


class TestRotatedConjugate:
    def test_origin_fixed(self, profiles):
        rp, ap = profiles
        assert np.array_equal(apply_j_k(rp, ap, np.zeros(4)), np.zeros(4))

    def test_first_axis_contracts(self, profiles):
        rp, ap = profiles
        img = apply_j_k(rp, ap, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(img, [math.exp(-1.0), 0.0, 0.0], rtol=1e-14, atol=0.0)

    def test_matches_manual_conjugation(self, profiles):
        rp, ap = profiles
        rng = np.random.default_rng(6)
        for x in rng.normal(size=(50, 3)):
            manual = _quarter_turn_inv(apply_h_k(rp, ap, _quarter_turn(x)))
            np.testing.assert_array_equal(apply_j_k(rp, ap, x), manual)

    @settings(max_examples=300)
    @given(scaled_batches(min_k=3, max_k=8), shapes)
    def test_single_point_is_the_conjugate_formula_bit_for_bit(self, X, shape):
        rp, ap = _profiles_with(shape)
        for x in X:
            conjugate = _quarter_turn_inv(apply_h_k(rp, ap, _quarter_turn(x)))
            assert apply_j_k(rp, ap, x).tobytes() == conjugate.tobytes()

    def test_composed_gain_depends_only_on_direction(self, profiles):
        rp, ap = profiles
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.normal(size=4)
            gains = []
            for scale in (1.0, 1e-6, 1e6):
                y = apply_j_k(rp, ap, apply_h_k(rp, ap, scale * x))
                gains.append(math.log(robust_norm(y)) - math.log(robust_norm(scale * x)))
            assert max(gains) - min(gains) <= 1e-10


def _edge_branch_digest() -> str:
    """sha256 over ``apply_h_k`` and ``apply_j_k`` images of the points an
    orbit digest never reaches, for both drift shapes:

    * zero, +pole, -pole, equator and general rows at scales 1e300 and
      1e-300, for k = 3 ... 8;
    * an overflowing row (1e307 in each coordinate) and a subnormal row;
    * int lists, tuples, float32 arrays and a strided float64 view.
    """
    points = []
    for k in range(3, 9):
        rng = np.random.default_rng(1000 + k)
        for scale in (1e300, 1e-300):
            general = rng.standard_normal(k) * scale
            pole = np.zeros(k)
            pole[-1] = 1.5 * scale
            equator = general.copy()
            equator[-1] = 0.0
            points += [np.zeros(k), pole, -pole, equator, general]
        subnormal = np.zeros(k)
        subnormal[0], subnormal[-1] = 5e-324, -1e-320
        points += [np.full(k, 1e307), subnormal]
    points += [
        [1, -2, 3],
        [0, 0, 0, 7],
        (0.5, 0.0, -2.0, 1e-300),
        (3.0, 4.0, 0.0),
        np.array([1.0, -0.25, 2.0, 0.125], dtype=np.float32),
        np.array([0.0, 0.0, -3.0], dtype=np.float32),
        np.arange(1.0, 11.0)[::2],
    ]
    h = hashlib.sha256()
    for shape in AngularShape:
        rp, ap = _profiles_with(shape)
        for x in points:
            for fn in (apply_h_k, apply_j_k):
                y = fn(rp, ap, x)
                assert y.dtype == np.float64 and y.shape == (len(x),)
                h.update(y.tobytes())
    return h.hexdigest()


def test_edge_branch_images_are_pinned():
    # Digest taken before apply_h_k and apply_j_k became one inline kernel;
    # the lean step must keep every bit of these images.
    assert _edge_branch_digest() == "287252a587aa49a0d8ce912e8fdd9cab3d973418f078ceccb726773d338515cb"


@pytest.mark.parametrize("fn", [apply_h_k, apply_j_k])
def test_each_step_calls_each_profile_method_once(profiles, fn, monkeypatch):
    # A tracer wraps delta_r and delta_theta on the class, as here: the step
    # kernel reads the profiles only through them, so it sees every step.
    rp, ap = profiles
    calls = {"delta_r": 0, "delta_theta": 0}
    for cls, name in ((RadialProfile, "delta_r"), (AngularProfile, "delta_theta")):
        def counted(self, theta, out=None, _original=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _original(self, theta, out)

        monkeypatch.setattr(cls, name, counted)
    trace = iterate(lambda y: fn(rp, ap, y), np.array([0.3, -1.2, 0.7, 0.4]), 50)
    assert trace.n_steps == 50
    assert calls == {"delta_r": 50, "delta_theta": 50}


def _circle_point(k, polar):
    """The point of the (x_0, x_last) great circle at ``polar`` turns from e_last."""
    x = np.zeros(k)
    x[0], x[-1] = math.sin(TWO_PI * polar), math.cos(TWO_PI * polar)
    return x


class TestCircleStep:
    """On the (x_0, x_last) great circle the cone check reads ``h_k`` and
    ``j_k`` as circle maps of the angle from the last axis."""

    @pytest.mark.parametrize("shape", list(AngularShape))
    @pytest.mark.parametrize("k", range(3, 9))
    def test_matches_the_suspension_on_the_circle(self, k, shape):
        rp, ap = _profiles_with(shape)
        alpha = np.concatenate([np.random.default_rng(k).random(100), [0.0, 0.25, 0.5, 0.75]])
        for sym, fn in ((0, apply_h_k), (1, apply_j_k)):
            gains, images = highdim._circle_step(rp, ap, alpha, sym)
            for t, gain, image in zip(alpha, gains, images):
                y = fn(rp, ap, _circle_point(k, t))
                norm = robust_norm(y)
                assert math.log(norm) == pytest.approx(gain, abs=1e-9)
                np.testing.assert_allclose(y / norm, _circle_point(k, image), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("shape", list(AngularShape))
    def test_symbol_array_matches_the_scalar_steps(self, shape):
        # One call with a symbol per lane is each lane's own call, bit for bit.
        rp, ap = _profiles_with(shape)
        rng = np.random.default_rng(7)
        edges = [0.0, 0.25, 0.5, 0.75, np.nextafter(0.25, 0.0), np.nextafter(0.75, 1.0)]
        alpha = np.concatenate([rng.random(200), edges])
        syms = rng.integers(0, 2, len(alpha))
        gains, images = highdim._circle_step(rp, ap, alpha, syms)
        lanes = [highdim._circle_step(rp, ap, float(t), int(s)) for t, s in zip(alpha, syms)]
        got = np.stack([gains, images], axis=1)
        np.testing.assert_array_equal(got.view(np.uint64), np.array(lanes, dtype=float).view(np.uint64))


class TestConeCondition:
    @pytest.mark.parametrize("k", [3, 4])
    def test_holds_at_defaults(self, profiles, k):
        rp, ap = profiles
        result = check_cone_condition(rp, ap, k, n_samples=5000, seed=1)
        assert result.holds
        assert result.min_gain_jh >= 3.0 - 1e-9
        assert result.min_gain_hj >= 3.0 - 1e-9

    @pytest.mark.parametrize("k", [3, 4])
    def test_holds_for_piecewise_linear_drift(self, k, tent_profiles):
        rp, ap = tent_profiles
        result = check_cone_condition(rp, ap, k, n_samples=5000, seed=1)
        assert result.holds
        assert result.min_gain_jh >= 3.0 - 1e-9
        assert result.min_gain_hj >= 3.0 - 1e-9

    def test_results_are_pinned(self, profiles):
        # The results of the gather-and-reduce batch formula at one seed.
        rp, ap = profiles
        for k in (3, 4, 5):
            assert dataclasses.asdict(check_cone_condition(rp, ap, k, n_samples=5000, seed=11)) == {
                "holds": True, "min_gain_jh": 3.0, "min_gain_hj": 3.0,
            }
            wide = check_cone_condition(RadialProfile(5.0, 0.24), AngularProfile(0.25, 0.24), k, 5000, seed=11)
            assert dataclasses.asdict(wide) == {"holds": False, "min_gain_jh": 3.0, "min_gain_hj": 3.0}

    def test_widened_cone_overlaps(self):
        # Pushing the slow arc to w = 0.24 makes the image of the cone reach
        # the rotated cone; built raw because the factory would reject it.
        rp = RadialProfile(5.0, 0.24)
        ap = AngularProfile(0.25, 0.24)
        result = check_cone_condition(rp, ap, 3, n_samples=5000, seed=1)
        assert not result.holds

    def test_dimension_guard(self, profiles):
        rp, ap = profiles
        with pytest.raises(ValueError):
            check_cone_condition(rp, ap, 2, n_samples=10)
        with pytest.raises(ValueError):
            check_cone_condition(rp, ap, 3, n_samples=0)
        for w in (0.0, -0.1, 0.5, 0.7, math.nan):
            with pytest.raises(ValueError):
                check_cone_condition(RadialProfile(5.0, w), AngularProfile(0.25, w), 3, n_samples=10)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, False])
    def test_seed_must_be_a_non_negative_integer(self, profiles, seed):
        rp, ap = profiles
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            check_cone_condition(rp, ap, 3, n_samples=10, seed=seed)

    @pytest.mark.parametrize("k", [3.5, 3.0, "3", None])
    def test_dimension_must_be_an_integer(self, profiles, k):
        rp, ap = profiles
        with pytest.raises(ValueError, match="integer dimension k >= 3, got"):
            check_cone_condition(rp, ap, k, n_samples=10)

    @pytest.mark.parametrize("n_samples", [2.5, 10.0, "10", 0, -3, True, False])
    def test_sample_count_must_be_a_positive_integer(self, profiles, n_samples):
        rp, ap = profiles
        with pytest.raises(ValueError, match="n_samples must be a positive integer, got"):
            check_cone_condition(rp, ap, 3, n_samples=n_samples)

    def test_numpy_integers_are_accepted(self, profiles):
        rp, ap = profiles
        expected = check_cone_condition(rp, ap, 4, n_samples=10)
        assert check_cone_condition(rp, ap, np.int64(4), n_samples=np.int32(10)) == expected

    def test_missed_overlap_is_found(self):
        # The cone edge in direction e_0 maps to aperture 0.11979 from the e_0
        # axis, below w/2 = 0.12045; a sampled audit at this seed missed it.
        rp, ap = RadialProfile(5.0, 0.2409), AngularProfile(0.0414, 0.2409)
        assert not check_cone_condition(rp, ap, 5, n_samples=5000, seed=3).holds

    def test_zero_margin_holds(self):
        # At zero margin the edge images touch the rotated cone's boundary,
        # and both cones are open; one ulp more drift crosses it.
        w, d = 0.21875, 1.0 / 7.0
        rp = RadialProfile(5.0, w)
        ap = AngularProfile(d, w, AngularShape.PIECEWISE_LINEAR)
        assert 0.5 - 2 * w - ap.delta_theta(w) == 0.0
        assert check_cone_condition(rp, ap, 3, n_samples=10).holds
        wider = AngularProfile(math.nextafter(d, 1.0), w, AngularShape.PIECEWISE_LINEAR)
        assert not check_cone_condition(rp, wider, 3, n_samples=10).holds

    @pytest.mark.parametrize("shape", list(AngularShape))
    @pytest.mark.parametrize("w", [0.125, 0.24, 0.3, 0.45])
    def test_same_result_in_every_dimension(self, shape, w):
        rp, ap = RadialProfile(5.0, w), AngularProfile(0.25, w, shape)
        results = {check_cone_condition(rp, ap, k, n_samples=2000, seed=4) for k in range(3, 9)}
        assert len(results) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1e-3, 0.499),
        st.floats(1e-4, 0.49),
        st.booleans(),
        shapes,
        st.integers(3, 8),
    )
    def test_fails_iff_a_cone_edge_enters_the_rotated_cone(self, w, size, negative, shape, k):
        # Witnesses, not the margin formula: the north and south edges of the
        # cone, just inside it, in equatorial direction e_0.  The margin only
        # keeps the draw away from the boundary case.
        d = -size if negative else size
        rp, ap = RadialProfile(5.0, w), AngularProfile(d, w, shape)
        assume(abs(0.5 - 2.0 * w - abs(ap.delta_theta(w))) > 1e-9)
        edge = 0.5 * w * (1.0 - 1e-12)
        entered = False
        for polar in (edge, 0.5 - edge):
            y = apply_h_k(rp, ap, _circle_point(k, polar))
            entered |= math.acos(min(1.0, abs(y[0]) / robust_norm(y))) / TWO_PI < 0.5 * w
        assert check_cone_condition(rp, ap, k, n_samples=1, seed=0).holds is not entered


class TestConeMemo:
    """The cone check does not depend on k, so it is computed once per
    (profile pair, n_samples, seed) and shared across dimensions."""

    @staticmethod
    def _uncached(rp, ap, n_samples, seed):
        return highdim._cone_check.__wrapped__(rp, ap, n_samples, seed)

    @pytest.mark.parametrize("shape", list(AngularShape))
    def test_every_dimension_returns_the_same_object(self, shape):
        rp, ap = RadialProfile(5.0, 0.4), AngularProfile(0.25, 0.4, shape)
        results = [check_cone_condition(rp, ap, k, n_samples=700, seed=21) for k in range(3, 9)]
        assert all(r is results[0] for r in results)
        assert results[0] == self._uncached(rp, ap, 700, 21)

    def test_other_arguments_give_a_fresh_result(self):
        rp, ap = RadialProfile(5.0, 0.4), AngularProfile(0.25, 0.4)
        base = check_cone_condition(rp, ap, 3, n_samples=700, seed=21)
        other_rp, other_ap = RadialProfile(6.0, 0.4), AngularProfile(0.2, 0.4)
        for args in [(rp, ap, 700, 22), (rp, ap, 300, 21), (other_rp, ap, 700, 21), (rp, other_ap, 700, 21)]:
            result = check_cone_condition(args[0], args[1], 4, n_samples=args[2], seed=args[3])
            assert result is not base
            assert result == self._uncached(*args)
        assert check_cone_condition(rp, ap, 3, n_samples=700, seed=22) != base

    def test_drift_shapes_do_not_collide(self):
        rp = RadialProfile(5.0, 0.4)
        cosine = AngularProfile(0.25, 0.4, AngularShape.RAISED_COSINE)
        tent = AngularProfile(0.25, 0.4, AngularShape.PIECEWISE_LINEAR)
        first = check_cone_condition(rp, cosine, 3, n_samples=700, seed=21)
        second = check_cone_condition(rp, tent, 3, n_samples=700, seed=21)
        assert first == self._uncached(rp, cosine, 700, 21)
        assert second == self._uncached(rp, tent, 700, 21)
        assert first != second

    def test_arguments_are_checked_on_a_warm_cache(self, profiles):
        rp, ap = profiles
        check_cone_condition(rp, ap, 3, n_samples=50, seed=1)
        with pytest.raises(ValueError, match="k >= 3"):
            check_cone_condition(rp, ap, 2, n_samples=50, seed=1)
        with pytest.raises(ValueError, match="n_samples"):
            check_cone_condition(rp, ap, 3, n_samples=0, seed=1)
        # True == 1 and False == 0 hash alike, so a bool would hit this entry.
        check_cone_condition(rp, ap, 3, n_samples=1, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            check_cone_condition(rp, ap, 3, n_samples=True, seed=0)
        with pytest.raises(ValueError, match="seed"):
            check_cone_condition(rp, ap, 3, n_samples=1, seed=False)
        # Warm the memo on a profile the public check rejects.
        for w in (0.5, 0.7):
            wide_rp, wide_ap = RadialProfile(5.0, w), AngularProfile(0.25, w)
            highdim._cone_check(wide_rp, wide_ap, 50, 1)
            with pytest.raises(ValueError, match="w must lie"):
                check_cone_condition(wide_rp, wide_ap, 3, n_samples=50, seed=1)


def _one_array_cone_minima(rp, ap, n_samples, seed):
    """The composed-gain minima with every circle angle in one array: the
    samples with the four axes appended, each map applied once."""
    alpha = np.concatenate([np.random.default_rng(seed).random(n_samples), [0.0, 0.5, 0.25, 0.75]])
    gain_h, after_h = highdim._circle_step(rp, ap, alpha, 0)
    gain_j, after_j = highdim._circle_step(rp, ap, alpha, 1)
    return (
        float(np.min(gain_h + highdim._circle_step(rp, ap, after_h, 1)[0])),
        float(np.min(gain_j + highdim._circle_step(rp, ap, after_j, 0)[0])),
    )


class TestConeBlocks:
    """The sampled circle goes through the maps in blocks of ``GAIN_CELLS``
    angles, with the axes as a last block."""

    @pytest.mark.parametrize("shape", list(AngularShape))
    @pytest.mark.parametrize("w", [0.125, 0.4])
    @pytest.mark.parametrize("n_samples", [1, 8191, 8192, 8193, 16384, 16385, 30000])
    def test_minima_equal_the_one_array_formula(self, n_samples, w, shape):
        # 8192 and 16384 end a block exactly; 8193 and 16385 leave a block of
        # one sample.  At w = 0.125 every minimum sits on an axis (3.0); at
        # w = 0.4 the cone condition fails and the minima come from samples.
        rp, ap = RadialProfile(5.0, w), AngularProfile(0.25, w, shape)
        result = highdim._cone_check.__wrapped__(rp, ap, n_samples, 5)
        jh, hj = _one_array_cone_minima(rp, ap, n_samples, 5)
        assert (result.min_gain_jh.hex(), result.min_gain_hj.hex()) == (jh.hex(), hj.hex())

    @pytest.mark.parametrize("shape, n_samples, seed", [
        (AngularShape.RAISED_COSINE, 8192, 1538), (AngularShape.RAISED_COSINE, 8193, 7208),
        (AngularShape.RAISED_COSINE, 16384, 3970), (AngularShape.RAISED_COSINE, 16385, 8327),
        (AngularShape.PIECEWISE_LINEAR, 8192, 1461), (AngularShape.PIECEWISE_LINEAR, 8193, 22762),
        (AngularShape.PIECEWISE_LINEAR, 16384, 2311), (AngularShape.PIECEWISE_LINEAR, 16385, 12047),
    ])
    def test_a_minimum_on_a_block_edge(self, shape, n_samples, seed):
        # At these seeds the last sample, the last of a block or alone in
        # one, sets a minimum, so a block split that loses it shows.
        rp, ap = RadialProfile(5.0, 0.4), AngularProfile(0.25, 0.4, shape)
        jh, hj = _one_array_cone_minima(rp, ap, n_samples, seed)
        assert (jh, hj) != _one_array_cone_minima(rp, ap, n_samples - 1, seed)
        result = highdim._cone_check.__wrapped__(rp, ap, n_samples, seed)
        assert (result.min_gain_jh.hex(), result.min_gain_hj.hex()) == (jh.hex(), hj.hex())

    def test_peak_memory_is_the_draw_plus_one_block(self, profiles):
        rp, ap = profiles
        # numpy.random imports lazily; its first use traces about 1 MB.
        np.random.default_rng(0).random(1)
        tracemalloc.start()
        try:
            highdim._cone_check.__wrapped__(rp, ap, 100_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 100_000 + 2**20


def _composed_gain(rp, ap, first, second, x):
    y = second(rp, ap, first(rp, ap, x))
    return math.log(robust_norm(y)) - math.log(robust_norm(x))


class TestGreatCircleBound:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(3, 9),
        shapes,
        st.sampled_from([(5.0, 0.125, 0.25), (8.0, 0.2, 0.1), (5.0, 0.24, 0.25), (6.0, 0.4, 0.2)]),
        st.integers(0, 2**32 - 1),
    )
    def test_off_circle_points_gain_at_least_the_circle(self, k, shape, params, seed):
        # The first two pairs hold the cone condition, the last two do not.
        a, w, d = params
        rp, ap = RadialProfile(a, w), AngularProfile(d, w, shape)
        x = np.random.default_rng(seed).standard_normal(k)
        norm = robust_norm(x)
        polar = math.acos(x[-1] / norm) / TWO_PI
        from_first = math.acos(x[0] / norm) / TWO_PI
        jh = _composed_gain(rp, ap, apply_h_k, apply_j_k, x)
        assert jh >= _composed_gain(rp, ap, apply_h_k, apply_j_k, _circle_point(k, polar)) - 1e-9
        hj = _composed_gain(rp, ap, apply_j_k, apply_h_k, x)
        assert hj >= _composed_gain(rp, ap, apply_j_k, apply_h_k, _circle_point(k, 0.25 - from_first)) - 1e-9


class TestReductionToThreeDimensions:
    """Both maps keep the direction of the middle block ``x_1 .. x_{k-2}``, so
    ``(x_0, |x_mid|, x_{k-1})`` of a k-orbit is the k = 3 orbit of that point."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([4, 5, 7]),
        shapes,
        st.integers(0, 2**32 - 1),
        st.floats(-20.0, 20.0),
        st.lists(st.booleans(), min_size=1, max_size=40),
    )
    def test_every_step_is_the_reduced_orbit(self, k, shape, seed, log_radius, word):
        # A seeded normal direction keeps the start off the axes, where acos is ill-conditioned.
        rp, ap = _profiles_with(shape)
        x = np.random.default_rng(seed).standard_normal(k)
        x *= math.exp(log_radius) / robust_norm(x)
        y = np.array([x[0], robust_norm(x[1:-1]), x[-1]])
        for use_j in word:
            step = apply_j_k if use_j else apply_h_k
            x, y = step(rp, ap, x), step(rp, ap, y)
            reduced = np.array([x[0], robust_norm(x[1:-1]), x[-1]])
            assert np.max(np.abs(reduced - y)) <= 1e-9 * robust_norm(x)
