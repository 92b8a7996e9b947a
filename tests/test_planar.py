import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondo_maps.circle import Angle, CircleInterval, circle_dist, wrap_turns
from parrondo_maps.planar import (
    CERTIFICATE_SLACK,
    CylPoint,
    MapWord,
    apply_f0,
    apply_f1,
    composition_radial_gain,
    inverse_f0,
    semistable_1d,
    word_step,
)
from parrondo_maps.profiles import (
    AngularProfile,
    RadialProfile,
    default_profiles,
    make_angular_profile,
    make_radial_profile,
    validate_profiles,
)

angles = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
radii = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
# Angles anywhere, and crowded around the half turn and just below one turn,
# where the half-turn additions of f1 round.
f1_angles = st.one_of(
    angles,
    st.floats(min_value=0.5 - 1e-9, max_value=0.5 + 1e-9),
    st.floats(min_value=1.0 - 1e-9, max_value=1.0, exclude_max=True),
    st.sampled_from([0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0), 5e-324]),
)


def _tau(p):
    """The half-turn rotation, the conjugacy that takes f0 to f1."""
    return CylPoint(p.r, p.theta + 0.5)


class TestMapWord:
    def test_parse_forms(self):
        assert MapWord.parse("f0,f1").symbols == (0, 1)
        assert MapWord.parse("01").symbols == (0, 1)
        assert MapWord.parse("f1 f0").symbols == (1, 0)
        assert len(MapWord.parse("010")) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MapWord(())

    @pytest.mark.parametrize("symbols", [(0, 2), (0.5,)])
    def test_symbols_other_than_0_and_1_rejected(self, symbols):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            MapWord(symbols)

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError, match="'f2'"):
            MapWord.parse("f2")

    def test_str_round_trip(self):
        word = MapWord.parse("f0,f1,f1")
        assert MapWord.parse(str(word)) == word


class TestApplyMaps:
    def test_a_float_angle_becomes_an_angle(self):
        p = CylPoint(1.0, 0.3)
        assert isinstance(p.theta, Angle) and p == CylPoint(1.0, Angle(0.3))

    def test_f0_on_invariant_ray(self, profiles):
        rp, ap = profiles
        q = apply_f0(rp, ap, CylPoint(0.0, Angle(0.0)))
        assert (q.r, q.theta.value) == (-1.0, 0.0)

    def test_f0_at_antipode(self, profiles):
        rp, ap = profiles
        q = apply_f0(rp, ap, CylPoint(0.0, Angle(0.5)))
        assert (q.r, q.theta.value) == (4.0, 0.75)

    def test_f0_generic_point(self, profiles):
        rp, ap = profiles
        q = apply_f0(rp, ap, CylPoint(10.0, Angle(0.3)))
        # Oracle: evaluate the raised-cosine drift independently.
        drift = 0.25 * (1.0 - math.cos(2.0 * math.pi * 0.3)) / 2.0
        assert q.r == 14.0
        assert q.theta.value == pytest.approx(0.3 + drift, abs=1e-15)

    def test_tau(self):
        assert _tau(CylPoint(0.0, Angle(0.0))) == CylPoint(0.0, Angle(0.5))
        assert _tau(CylPoint(3.2, Angle(0.75))) == CylPoint(3.2, Angle(0.25))

    @given(radii, angles)
    def test_tau_involution(self, r, t):
        # Exact for the radius; the angle can lose its last mantissa bit in
        # the +1/2 additions, so one ulp of slack is allowed there.
        p = CylPoint(r, Angle(t))
        q = _tau(_tau(p))
        assert q.r == p.r
        assert circle_dist(q.theta, p.theta) <= 2.0**-52

    def test_f1_attracts_antipodal_ray(self, profiles):
        rp, ap = profiles
        q = apply_f1(rp, ap, CylPoint(0.0, Angle(0.5)))
        assert (q.r, q.theta.value) == (-1.0, 0.5)

    def test_f1_at_zero_by_hand(self, profiles):
        rp, ap = profiles
        # tau: 0 -> 1/2; f0: gain 4, angle 1/2 + 1/4; tau: back by 1/2.
        q = apply_f1(rp, ap, CylPoint(0.0, Angle(0.0)))
        assert (q.r, q.theta.value) == (4.0, 0.25)

    @given(radii, angles)
    def test_f1_is_conjugate(self, r, t):
        rp, ap = default_profiles()
        p = CylPoint(r, Angle(t))
        assert apply_f1(rp, ap, p) == _tau(apply_f0(rp, ap, _tau(p)))


    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6), f1_angles)
    def test_f1_one_hop_is_the_conjugate_bit_for_bit(self, profiles_by_shape, r, t):
        for rp, ap in profiles_by_shape.values():
            p = CylPoint(r, Angle(t))
            q = apply_f1(rp, ap, p)
            oracle = _tau(apply_f0(rp, ap, _tau(p)))
            assert (q.r.hex(), q.theta.value.hex()) == (oracle.r.hex(), oracle.theta.value.hex())


class TestApplyWord:
    def test_singleton(self, profiles):
        rp, ap = profiles
        p = CylPoint(1.0, Angle(0.3))
        assert word_step(MapWord.parse("f0"), rp, ap)(p) == apply_f0(rp, ap, p)

    def test_mixed_pair_gain_on_ray(self, profiles):
        rp, ap = profiles
        q = word_step(MapWord.parse("f0,f1"), rp, ap)(CylPoint(0.0, Angle(0.0)))
        assert q.r >= 3.0

    def test_repeated_f0_on_ray(self, profiles):
        rp, ap = profiles
        q = word_step(MapWord.parse("f0,f0"), rp, ap)(CylPoint(0.0, Angle(0.0)))
        assert q.r == -2.0

    def test_order_is_first_letter_first(self, profiles):
        rp, ap = profiles
        p = CylPoint(0.0, Angle(0.1))
        lhs = word_step(MapWord.parse("f0,f1"), rp, ap)(p)
        assert lhs == apply_f1(rp, ap, apply_f0(rp, ap, p))

    @given(radii, radii, angles)
    def test_gain_depends_only_on_angle(self, r1, r2, t):
        rp, ap = default_profiles()
        step = word_step(MapWord.parse("f0,f1,f0"), rp, ap)
        g1 = step(CylPoint(r1, Angle(t))).r - r1
        g2 = step(CylPoint(r2, Angle(t))).r - r2
        assert abs(g1 - g2) <= 1e-12


class TestInverse:
    def test_round_trip(self, profiles):
        rp, ap = profiles
        p = CylPoint(0.0, Angle(0.3))
        q = apply_f0(rp, ap, p)
        back = inverse_f0(rp, ap, q)
        assert abs(back.r - p.r) <= 1e-9
        assert circle_dist(back.theta, p.theta) <= 1e-9

    def test_fixed_ray_arithmetic(self, profiles):
        rp, ap = profiles
        back = inverse_f0(rp, ap, CylPoint(-1.0, Angle(0.0)))
        assert abs(back.r - 0.0) <= 1e-9
        assert circle_dist(back.theta, 0.0) <= 1e-9

    @settings(max_examples=300)
    @given(radii, angles)
    def test_round_trip_property(self, profiles_by_shape, r, t):
        p = CylPoint(r, Angle(t))
        for rp, ap in profiles_by_shape.values():
            back = inverse_f0(rp, ap, apply_f0(rp, ap, p))
            assert abs(back.r - p.r) <= 1e-8
            assert circle_dist(back.theta, p.theta) <= 1e-8


class TestCartesian:
    def test_planar_extension_fixes_origin(self, f0_cartesian):
        assert np.array_equal(f0_cartesian([0.0, 0.0]), [0.0, 0.0])

    def test_invariant_ray_contracts(self, f0_cartesian):
        img = f0_cartesian([1.0, 0.0])
        np.testing.assert_allclose(img, [math.exp(-1.0), 0.0], rtol=1e-14, atol=0)

    def test_ratio_bounds(self, f0_cartesian):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(1000, 2)) * np.exp(rng.uniform(-5, 5, size=(1000, 1)))
        lo, hi = math.exp(-1.0), math.exp(4.0)
        for x in pts:
            ratio = np.linalg.norm(f0_cartesian(x)) / np.linalg.norm(x)
            assert lo - 1e-12 <= ratio <= hi + 1e-9

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
    def test_small_balls_stay_controlled(self, f0_cartesian, eps):
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(200, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * (eps * rng.uniform(0.0, 1.0, size=(200, 1)))
        for x in pts:
            img = f0_cartesian(x)
            assert np.linalg.norm(img) <= math.exp(4.0) * eps * (1 + 1e-12)


class TestCompositionGain:
    def test_single_letter_dips_at_zero(self, profiles):
        rp, ap = profiles
        study = composition_radial_gain(MapWord.parse("f0"), rp, ap, grid_n=4096)
        assert study.min_gain == -1.0
        assert study.argmin.value == 0.0
        assert study.certified
        assert study.lower_bound == -1.0

    @pytest.mark.parametrize("text", ["f0,f1", "f1,f0"])
    def test_mixed_pairs_certified_above_three(self, profiles, text):
        rp, ap = profiles
        study = composition_radial_gain(MapWord.parse(text), rp, ap, grid_n=100_000)
        assert study.certified
        assert study.min_gain >= 3.0 - 1e-9
        assert study.lower_bound >= 3.0 - 1e-9

    def test_unmixed_pair_hits_minus_two(self, profiles):
        rp, ap = profiles
        study = composition_radial_gain(MapWord.parse("f0,f0"), rp, ap, grid_n=10_000)
        assert study.min_gain == -2.0
        assert study.argmin.value == 0.0

    def test_grid_eval_matches_pointwise_oracle(self, profiles):
        # Oracle: drive the word point by point on a coarse grid.
        rp, ap = profiles
        word = MapWord.parse("f1,f0")
        study = composition_radial_gain(word, rp, ap, grid_n=2000)
        step = word_step(word, rp, ap)
        oracle = min(
            step(CylPoint(0.0, Angle(t))).r
            for t in np.linspace(0.0, 1.0, 2000, endpoint=False)
        )
        assert study.min_gain == pytest.approx(oracle, abs=1e-12)

    def test_lower_bound_is_a_true_bound(self, profiles):
        rp, ap = profiles
        word = MapWord.parse("f0,f1")
        coarse = composition_radial_gain(word, rp, ap, grid_n=100)
        fine = composition_radial_gain(word, rp, ap, grid_n=100_000)
        assert coarse.lower_bound <= fine.min_gain
        assert coarse.lower_bound <= coarse.min_gain

    def test_temporaries_stay_small(self, profiles):
        # The cells are carried through the word in blocks, so one study at
        # the default grid holds its edges and one block's arrays, not a
        # dozen arrays of every cell.
        rp, ap = profiles
        word = MapWord.parse("f0,f1")
        composition_radial_gain(word, rp, ap, grid_n=100_000)
        tracemalloc.start()
        try:
            composition_radial_gain(word, rp, ap, grid_n=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_tiny_grid_rejected(self, profiles):
        rp, ap = profiles
        # A count is an integer: a bool or a float is refused, a numpy integer is not.
        for bad in (1, True, 2.5):
            with pytest.raises(ValueError, match="grid_n must be at least 2"):
                composition_radial_gain(MapWord.parse("f0"), rp, ap, grid_n=bad)
        composition_radial_gain(MapWord.parse("f0"), rp, ap, grid_n=np.int64(2))

    @pytest.mark.parametrize("d", [0.35, 0.31831])
    @pytest.mark.parametrize("text", ["f0,f1", "f1,f0"])
    def test_no_certificate_without_an_increasing_lift(self, text, d):
        # The bound propagates arcs to arcs, which needs the C4 condition.
        rp, ap = RadialProfile(5.0, 0.05), AngularProfile(d, 0.05)
        assert not validate_profiles(rp, ap)["C4"].passed
        study = composition_radial_gain(MapWord.parse(text), rp, ap, grid_n=2000)
        assert study.min_gain - study.lower_bound < CERTIFICATE_SLACK
        assert not study.certified

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=4.1, max_value=12.0),
        st.floats(min_value=0.02, max_value=0.24),
        st.integers(min_value=0, max_value=2**4 - 1),
        st.integers(min_value=1, max_value=4),
    )
    def test_certificate_soundness_property(self, a, w, word_bits, word_len):
        # The cell-wise bound must never exceed the true minimum; probe the
        # true gain function densely and independently via word_step.
        gap = 0.5 - 2.0 * w
        d = min(0.3, 0.9 * gap)
        if d <= 0.0:
            return
        rp = make_radial_profile(a, w)
        ap = make_angular_profile(d, w_ref=w)
        word = MapWord(tuple((word_bits >> i) & 1 for i in range(word_len)))
        study = composition_radial_gain(word, rp, ap, grid_n=257)
        step = word_step(word, rp, ap)
        probe = min(
            step(CylPoint(0.0, Angle(t))).r
            for t in np.linspace(0.0, 1.0, 1009, endpoint=False)
        )
        assert study.lower_bound <= probe + 1e-9
        assert study.lower_bound <= study.min_gain + 1e-12


def _cellwise_gain_study(word, rp, ap, grid_n):
    """The cell-wise propagation with separate lo and hi edge arrays, as
    ``composition_radial_gain`` computed it before the shared edges were
    carried once; the reference for bit identity."""
    edges = np.linspace(0.0, 1.0, grid_n + 1)
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    gains, bound = np.zeros(grid_n), np.zeros(grid_n)
    for sym in word:
        s = 0.5 if sym == 1 else 0.0
        dlo, dhi = rp.delta_r(lo + s), rp.delta_r(hi + s)
        gains += dlo
        contains_zero = (-(lo + s)) % 1.0 <= hi - lo
        bound += np.where(contains_zero, -1.0, np.minimum(dlo, dhi))
        lo = lo + ap.delta_theta(lo + s)
        hi = hi + ap.delta_theta(hi + s)
    i = int(np.argmin(gains))
    return float(gains[i]), float(edges[i]), float(bound.min())


class TestSharedEdgeBitIdentity:
    # 8191 to 16385 put the last cell of a block, a full last block and a
    # one-cell last block at the planar.GAIN_CELLS = 8192 block boundary.
    @pytest.mark.parametrize("grid_n", [2, 3, 1000, 8191, 8192, 8193, 16385])
    def test_matches_the_cellwise_propagation(self, profiles_by_shape, grid_n):
        words = [MapWord(symbols) for n in range(1, 5) for symbols in itertools.product((0, 1), repeat=n)]
        for rp, ap in profiles_by_shape.values():
            for word in words:
                study = composition_radial_gain(word, rp, ap, grid_n=grid_n)
                min_gain, argmin, lower = _cellwise_gain_study(word, rp, ap, grid_n)
                got = (study.min_gain.hex(), study.argmin.value.hex(), study.lower_bound.hex())
                assert got == (min_gain.hex(), argmin.hex(), lower.hex()), (str(word), grid_n)
                assert study.certified == (min_gain - lower < CERTIFICATE_SLACK)


class TestSetCondition:
    def test_images_of_slow_arc_miss_translate(self, profiles):
        rp, ap = profiles
        thetas = np.linspace(-rp.w, rp.w, 20001)
        images = wrap_turns(thetas + ap.delta_theta(thetas))
        assert not CircleInterval(Angle(0.5), rp.w).contains(images).any()


class TestSemistable1d:
    def test_printed_values(self):
        assert semistable_1d(-9.0, "FoG") == -1.0
        assert semistable_1d(1.0, "FoG") == 4.0
        assert semistable_1d(-1.0, "F") == 2.0
        assert semistable_1d(1.0, "G") == -2.0

    @pytest.mark.parametrize("x", [-9.0, -1.0, 0.0, 1.0, 2.0])
    def test_exact_at_reference_points(self, x):
        expected = x / 9.0 if x <= 0 else 4.0 * x
        assert semistable_1d(x, "fog") == expected

    @pytest.mark.parametrize("x", [-9.0, -1.0, 0.0, 1.0, 2.0, 0.37, -5.21])
    def test_composition_matches_branchwise(self, x):
        composed = semistable_1d(semistable_1d(x, "g"), "f")
        assert composed == pytest.approx(semistable_1d(x, "fog"), rel=1e-15, abs=1e-300)

    def test_unknown_branch(self):
        with pytest.raises(ValueError):
            semistable_1d(1.0, "h")


class TestWordStep:
    def test_matches_the_letter_maps(self, profiles):
        rp, ap = profiles
        step = word_step(MapWord.parse("f1,f0,f1"), rp, ap)
        p = CylPoint(0.2, Angle(0.7))
        assert step(p) == apply_f1(rp, ap, apply_f0(rp, ap, apply_f1(rp, ap, p)))
