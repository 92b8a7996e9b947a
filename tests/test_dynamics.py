import math

import numpy as np
import pytest

from parrondo_maps.circle import Angle, CircleInterval
from parrondo_maps.dynamics import (
    OrbitClass,
    OrbitTrace,
    classify_orbit,
    detect_trap_entry,
    iterate,
)
from parrondo_maps.errors import WindowTooLargeError
from parrondo_maps.highdim import apply_h_k
from parrondo_maps.planar import (
    CylPoint,
    MapWord,
    apply_f0,
    apply_f0_cartesian,
    apply_f1,
    word_step,
)
from parrondo_maps.profiles import trapping_interval


def _f0_step(profiles):
    rp, ap = profiles
    return lambda p: apply_f0(rp, ap, p)


class TestIterate:
    def test_invariant_ray_is_exact(self, profiles):
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.0)), 10)
        np.testing.assert_array_equal(trace.rs, -np.arange(11.0))
        np.testing.assert_array_equal(trace.thetas, np.zeros(11))

    def test_start_beyond_escape_bound_is_rejected(self, profiles):
        for r in (2e3, -2e3):
            with pytest.raises(ValueError, match="escape bound"):
                iterate(_f0_step(profiles), CylPoint(r, Angle(0.3)), 10, r_escape=1e3)
        trace = iterate(_f0_step(profiles), CylPoint(1e3, Angle(0.3)), 10, r_escape=1e3)
        assert trace.n_steps == 1

    def test_gains_match_radius_differences(self, profiles):
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.37)), 200)
        np.testing.assert_array_equal(trace.gains, np.diff(trace.rs))

    def test_angles_increase_and_approach_zero(self, profiles):
        rp, ap = profiles
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.5)), 10_000)
        drifts = ap.delta_theta(trace.thetas[:-1])
        assert np.all(drifts > 0.0)
        lifted = trace.thetas[0] + np.concatenate([[0.0], np.cumsum(drifts)])
        assert np.all(np.diff(lifted) > 0.0)
        # The raised-cosine drift is quadratically tangent at its zero, so the
        # approach is ~1/(d pi^2 n); check the analytic envelope, not more.
        gap = 1.0 - lifted[-1]
        assert 0.0 < gap <= 1.0 / (ap.d * math.pi**2 * 10_000) * 1.05

    def test_piecewise_linear_drift_approaches_geometrically(self, tent_profiles):
        trace = iterate(_f0_step(tent_profiles), CylPoint(0.0, Angle(0.5)), 40)
        # Once below 1/2 the distance to the fixed angle shrinks by 1 - 2d = 1/2
        # per step; after 40 steps it is of order 2^-40.
        gaps = 1.0 - trace.thetas[1:30]
        np.testing.assert_allclose(gaps[1:] / gaps[:-1], 0.5, rtol=1e-6)
        assert 1.0 - trace.thetas[-1] < 1e-11 or trace.thetas[-1] == 0.0

    def test_gains_in_trap_are_contractions(self, profiles):
        rp, _ = profiles
        trap = trapping_interval(rp)
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.5)), 500, trap=trap)
        n0 = trace.entered_trap_at
        assert n0 is not None
        post = trace.gains[n0:]
        assert np.all(post >= -1.0 - 1e-12)
        assert np.all(post < 0.0)

    def test_early_exit_on_escape(self, profiles):
        rp, ap = profiles
        step = word_step(MapWord.parse("f0,f1"), rp, ap)
        trace = iterate(step, CylPoint(0.0, Angle(0.3)), 10_000, r_escape=1e3)
        assert trace.n_steps < 10_000
        assert abs(trace.rs[-1]) > 1e3

    def test_rejects_zero_steps(self, profiles):
        with pytest.raises(ValueError):
            iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.0)), 0)

    def test_cartesian_trace_records_log_norms(self, profiles):
        rp, ap = profiles
        step = lambda x: apply_h_k(rp, ap, x)
        start = np.array([1.0, 1.0, 1.0])
        trace = iterate(step, start, 50)
        assert trace.cart.shape == (51, 3)
        oracle = [math.log(np.linalg.norm(row)) for row in trace.cart]
        np.testing.assert_allclose(trace.rs, oracle, rtol=1e-12)

    def test_polynomial_demo_orbit_runs(self, profiles):
        # The 2-D Cartesian path of iterate, on the planar extension of f0.
        rp, ap = profiles
        step = lambda xy: apply_f0_cartesian(rp, ap, xy)
        trace = iterate(step, np.array([0.1, 0.0]), 50)
        assert trace.cart.shape == (51, 2)
        assert trace.thetas is not None

    def test_cartesian_orbit_stops_at_the_origin(self):
        # Halve the point until its first coordinate is at most 0.1, then map
        # it to the origin: five steps, the last with log-radius -inf.
        step = lambda x: x / 2.0 if x[0] > 0.1 else np.zeros(3)
        trace = iterate(step, np.ones(3), 50)
        assert trace.n_steps == 5
        assert trace.rs[-1] == -math.inf
        assert np.all(np.isfinite(trace.rs[:-1]))
        np.testing.assert_array_equal(trace.cart[:-1], [np.ones(3) / 2.0**i for i in range(5)])
        np.testing.assert_array_equal(trace.cart[-1], np.zeros(3))

    def test_points_property(self, profiles):
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.25)), 5)
        pts = trace.points
        assert len(pts) == 6
        assert pts[0] == CylPoint(0.0, Angle(0.25))


class TestClassify:
    def test_attracted_orbit(self, profiles):
        trace = iterate(_f0_step(profiles), CylPoint(3.0, Angle(0.41)), 500)
        label, rate = classify_orbit(trace)
        assert label is OrbitClass.ATTRACTED
        assert rate < -0.8
        assert trace.classification is OrbitClass.ATTRACTED
        assert trace.rate == rate

    def test_repelled_word_orbit(self, profiles):
        rp, ap = profiles
        step = word_step(MapWord.parse("f1,f0"), rp, ap)
        trace = iterate(step, CylPoint(0.0, Angle(0.3)), 300)
        label, rate = classify_orbit(trace)
        assert label is OrbitClass.REPELLED
        assert rate >= 3.0

    def test_constant_trace_undecided(self):
        rs = np.zeros(201)
        trace = OrbitTrace(rs=rs, gains=np.diff(rs), thetas=np.zeros(201))
        label, rate = classify_orbit(trace)
        assert label is OrbitClass.UNDECIDED
        assert rate == 0.0

    def test_window_too_large(self, profiles):
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.3)), 50)
        with pytest.raises(WindowTooLargeError):
            classify_orbit(trace, window=51)
        classify_orbit(trace, window=50)

    def test_f1_orbits_attract_too(self, profiles):
        rp, ap = profiles
        step = lambda p: apply_f1(rp, ap, p)
        rng = np.random.default_rng(0)
        for _ in range(20):
            start = CylPoint(rng.uniform(-20, 20), Angle(rng.uniform(0, 1)))
            label, _ = classify_orbit(iterate(step, start, 500))
            assert label is OrbitClass.ATTRACTED

    def test_mixed_word_repels_from_all_random_starts(self, profiles):
        rp, ap = profiles
        step = word_step(MapWord.parse("f0,f1"), rp, ap)
        rng = np.random.default_rng(2)
        for _ in range(100):
            start = CylPoint(rng.uniform(-20, 20), Angle(rng.uniform(0, 1)))
            label, rate = classify_orbit(iterate(step, start, 300, r_escape=1e9))
            assert label is OrbitClass.REPELLED
            assert rate >= 3.0


class TestTrapEntry:
    def test_start_inside_on_invariant_ray(self, profiles):
        rp, _ = profiles
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.0)), 50)
        assert detect_trap_entry(trace, trapping_interval(rp)) == 0

    def test_entry_index_matches_scan_oracle(self, profiles):
        rp, _ = profiles
        trap = trapping_interval(rp)
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.5)), 500)
        n0 = detect_trap_entry(trace, trap)
        member = [bool(trap.contains(t)) for t in trace.thetas]
        oracle = next(
            i for i in range(len(member)) if all(member[i:])
        )
        assert n0 == oracle
        assert 0 < n0 < 100

    def test_none_when_finish_outside(self, profiles):
        rp, _ = profiles
        trap = trapping_interval(rp)
        thetas = np.array([0.0, 0.3, 0.01, 0.4])
        rs = np.zeros(4)
        trace = OrbitTrace(rs=rs, gains=np.diff(rs), thetas=thetas)
        assert detect_trap_entry(trace, trap) is None

    def test_repelling_word_orbit_has_no_trailing_trap(self, profiles):
        rp, ap = profiles
        step = word_step(MapWord.parse("f0,f1"), rp, ap)
        trace = iterate(step, CylPoint(0.0, Angle(0.3)), 137, r_escape=1e9)
        # The pair's angular displacement is bounded below off the fixed set,
        # so angles keep circulating; this seed/length ends outside the trap.
        assert detect_trap_entry(trace, trapping_interval(rp)) is None

    def test_cartesian_orbit_records_entry(self, profiles):
        rp, ap = profiles
        trap = CircleInterval(Angle(0.5), rp.w / (2.0 * rp.a))
        trace = iterate(lambda x: apply_h_k(rp, ap, x), np.ones(3), 300, trap=trap)
        assert trace.entered_trap_at is not None
        assert trace.entered_trap_at == detect_trap_entry(trace, trap)

    def test_requires_angles(self, profiles):
        rp, ap = profiles
        trace = iterate(lambda x: apply_h_k(rp, ap, x), np.ones(3), 10)
        trace.thetas = None
        with pytest.raises(ValueError):
            detect_trap_entry(trace, trapping_interval(rp))
