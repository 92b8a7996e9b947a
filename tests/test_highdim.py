import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parrondo_maps.circle import Angle, circle_dist
from parrondo_maps.dynamics import iterate
from parrondo_maps.errors import OriginNotRepresentableError
from parrondo_maps.highdim import (
    SphericalDecomp,
    apply_h,
    apply_h_k,
    apply_j_k,
    check_cone_condition,
    robust_norm,
    rotate90,
    rotate90_inv,
    spherical_compose,
    spherical_decompose,
)
from parrondo_maps.planar import CylPoint, angular_escape_margin, apply_f0
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


class TestApplyH:
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
    def test_north_pole(self):
        s = spherical_decompose(np.array([0.0, 0.0, 1.0]))
        assert s.polar == 0.0 and s.equatorial_dir is None and s.r == 0.0

    def test_equator(self):
        s = spherical_decompose(np.array([1.0, 0.0, 0.0]))
        assert s.polar == 0.25
        np.testing.assert_array_equal(s.equatorial_dir, [1.0, 0.0])

    def test_origin_rejected(self):
        with pytest.raises(OriginNotRepresentableError):
            spherical_decompose(np.zeros(3))

    def test_compose_requires_direction_off_poles(self):
        with pytest.raises(ValueError):
            spherical_compose(SphericalDecomp(0.0, 0.25, None, 3))

    def test_pole_compose_is_exact(self):
        north = spherical_compose(SphericalDecomp(0.0, 0.0, None, 4))
        south = spherical_compose(SphericalDecomp(0.0, 0.5, None, 4))
        assert np.array_equal(north, [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(south, [0.0, 0.0, 0.0, -1.0])

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_round_trip(self, k):
        rng = np.random.default_rng(k)
        for _ in range(300):
            x = rng.normal(size=k) * math.exp(rng.uniform(-5, 5))
            back = spherical_compose(spherical_decompose(x))
            np.testing.assert_allclose(back, x, rtol=1e-9, atol=0.0)

    def test_robust_norm_extreme_scales(self):
        assert robust_norm(np.array([1e-300, 0.0, 0.0])) == 1e-300
        assert robust_norm(np.array([3e-200, 4e-200, 0.0])) == pytest.approx(
            5e-200, rel=1e-15
        )
        assert robust_norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
        rows = robust_norm(
            np.array(
                [
                    [1e-300, 0.0, 0.0],
                    [3e-200, 4e-200, 0.0],
                    [3e200, 4e200, 0.0],
                    [0.0, 0.0, 0.0],
                ]
            )
        )
        assert rows.shape == (4,)
        assert rows[0] == 1e-300
        assert rows[1] == pytest.approx(5e-200, rel=1e-15)
        assert rows[2] == pytest.approx(5e200, rel=1e-15)
        assert rows[3] == 0.0
        long = np.full(20, 3e-200)
        long[0] = 4e200
        assert robust_norm(long) == pytest.approx(4e200, rel=1e-15)
        assert robust_norm(np.full(25, 1e200)) == pytest.approx(5e200, rel=1e-15)

    @settings(max_examples=300)
    @given(scaled_batches())
    def test_batch_norm_is_the_row_reduction_bit_for_bit(self, X):
        assert robust_norm(X).tobytes() == np.hypot.reduce(X, axis=-1).tobytes()


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
        s = spherical_decompose(img)
        np.testing.assert_allclose(s.equatorial_dir, [1.0, 0.0], atol=1e-15)

    def test_dimension_guard(self, profiles):
        rp, ap = profiles
        with pytest.raises(ValueError):
            apply_h_k(rp, ap, np.ones(2))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_single_matches_batch(self, profiles, k):
        rp, ap = profiles
        rng = np.random.default_rng(k)
        X = rng.normal(size=(50, k)) * np.exp(rng.uniform(-3, 3, size=(50, 1)))
        batch = apply_h_k(rp, ap, X)
        for row_in, row_out in zip(X, batch):
            np.testing.assert_allclose(
                apply_h_k(rp, ap, row_in), row_out, rtol=1e-12, atol=1e-300
            )

    @settings(max_examples=200)
    @given(scaled_batches(min_k=3, max_k=8), shapes)
    def test_batch_matches_the_masked_row_reduction_bit_for_bit(self, X, shape):
        # Reference: the same formula on the gathered nonzero rows, with a
        # per-row norm reduction, scattered back into a zero batch.
        rp, ap = _profiles_with(shape)
        out = np.zeros_like(X)
        nonzero = np.any(X != 0.0, axis=-1)
        Z = X[nonzero]
        norms = np.hypot.reduce(Z, axis=-1)
        polar = np.arccos(np.clip(Z[:, -1] / norms, -1.0, 1.0)) / TWO_PI
        pnorms = np.hypot.reduce(Z[:, :-1], axis=-1)[:, None]
        dirs = np.divide(Z[:, :-1], pnorms, out=np.zeros_like(Z[:, :-1]), where=pnorms > 0.0)
        doubled = 2.0 * polar
        r2 = np.log(norms) + rp.delta_r(doubled)
        p2 = polar + 0.5 * ap.delta_theta(doubled)
        rho = np.exp(r2)
        Y = np.empty_like(Z)
        Y[:, :-1] = (rho * np.sin(TWO_PI * p2))[:, None] * dirs
        Y[:, -1] = rho * np.cos(TWO_PI * p2)
        on_axis = ~np.any(dirs != 0.0, axis=-1)
        Y[on_axis, :-1] = 0.0
        Y[on_axis, -1] = np.where(polar[on_axis] < 0.25, rho[on_axis], -rho[on_axis])
        out[nonzero] = Y
        with np.errstate(over="ignore"):
            assert apply_h_k(rp, ap, X).tobytes() == out.tobytes()

    def test_overflowing_step_gives_infinity_like_the_batch(self, profiles):
        rp, ap = profiles
        x = np.full(3, 1e307)
        with np.errstate(over="ignore"):
            batch = apply_h_k(rp, ap, x[None, :])[0]
        single = apply_h_k(rp, ap, x)
        assert np.array_equal(single, [math.inf, math.inf, math.inf])
        assert np.array_equal(single, batch)
        trace = iterate(lambda y: apply_h_k(rp, ap, y), x, 200)
        assert trace.n_steps == 1
        assert trace.rs[-1] == math.inf
        assert np.array_equal(trace.cart[-1], single)

    def test_equatorial_direction_preserved(self, profiles):
        rp, ap = profiles
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.normal(size=4)
            before = spherical_decompose(x).equatorial_dir
            after = spherical_decompose(apply_h_k(rp, ap, x)).equatorial_dir
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


class TestRotation:
    def test_axis_to_equator(self):
        np.testing.assert_array_equal(rotate90(np.array([0.0, 0.0, 1.0])), [1.0, 0.0, 0.0])

    def test_order_four(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5)
        y = x
        for _ in range(4):
            y = rotate90(y)
        np.testing.assert_array_equal(y, x)

    def test_inverse(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=4)
        np.testing.assert_array_equal(rotate90_inv(rotate90(x)), x)

    def test_isometry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(size=3)
            assert robust_norm(rotate90(x)) == pytest.approx(robust_norm(x), rel=1e-12)


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
        for _ in range(50):
            x = rng.normal(size=3)
            manual = rotate90_inv(apply_h_k(rp, ap, rotate90(x)))
            np.testing.assert_array_equal(apply_j_k(rp, ap, x), manual)

    @settings(max_examples=300)
    @given(scaled_batches(min_k=3, max_k=8), shapes)
    def test_single_point_is_the_conjugate_formula_bit_for_bit(self, X, shape):
        rp, ap = _profiles_with(shape)
        for x in X:
            conjugate = rotate90_inv(apply_h_k(rp, ap, rotate90(x)))
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


def _circle_point(k, polar):
    """The point of the (x_0, x_last) great circle at ``polar`` turns from e_last."""
    x = np.zeros(k)
    x[0], x[-1] = math.sin(TWO_PI * polar), math.cos(TWO_PI * polar)
    return x


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
            assert check_cone_condition(rp, ap, k, n_samples=5000, seed=11).to_dict() == {
                "holds": True, "min_gain_jh": 3.0, "min_gain_hj": 3.0,
            }
            wide = check_cone_condition(RadialProfile(5.0, 0.24), AngularProfile(0.25, 0.24), k, 5000, seed=11)
            assert wide.to_dict() == {"holds": False, "min_gain_jh": 3.0, "min_gain_hj": 3.0}

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
        assert angular_escape_margin(rp, ap) == 0.0
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
