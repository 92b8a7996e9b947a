import hashlib
import math

import numpy as np
import pytest

from parrondo_maps.circle import Angle, CircleInterval
from parrondo_maps.dynamics import (
    R_ESCAPE,
    OrbitClass,
    OrbitTrace,
    classify_orbit,
    detect_trap_entry,
    iterate,
)
from parrondo_maps.highdim import apply_h_k, apply_j_k, robust_norm
from parrondo_maps.planar import (
    CylPoint,
    MapWord,
    apply_f0,
    apply_f1,
    inverse_f0,
    word_step,
)
from parrondo_maps.profiles import TWO_PI, trapping_interval


def _f0_step(profiles):
    rp, ap = profiles
    return lambda p: apply_f0(rp, ap, p)


class TestIterate:
    def test_invariant_ray_is_exact(self, profiles):
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.0)), 10)
        np.testing.assert_array_equal(trace.rs, -np.arange(11.0))
        np.testing.assert_array_equal(trace.thetas, np.zeros(11))

    def test_start_beyond_escape_bound_is_rejected(self, profiles):
        for r in (2.0 * R_ESCAPE, -2.0 * R_ESCAPE):
            with pytest.raises(ValueError, match="escape bound"):
                iterate(_f0_step(profiles), CylPoint(r, Angle(0.3)), 10)
        trace = iterate(_f0_step(profiles), CylPoint(R_ESCAPE, Angle(0.3)), 10)
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
        trace = iterate(step, CylPoint(R_ESCAPE - 1e3, Angle(0.3)), 10_000)
        assert trace.n_steps < 10_000
        assert abs(trace.rs[-1]) > R_ESCAPE

    def test_rejects_zero_steps(self, profiles):
        # A count is an integer: a bool or a float is refused, a numpy integer is not.
        for bad in (0, True, 2.5):
            with pytest.raises(ValueError, match=f"^n_steps must be at least 1 and an integer, got {bad}$"):
                iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.0)), bad)
        assert iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.0)), np.int64(2)).n_steps == 2

    @pytest.mark.parametrize("start, shape", [(np.ones((2, 3)), r"\(2, 3\)"), (np.float64(1.0), r"\(\)"),
                                              ([], r"\(0,\)")])
    def test_cartesian_start_must_be_one_point(self, profiles, start, shape):
        rp, ap = profiles
        with pytest.raises(ValueError, match=f"one point, an array of shape \\(k,\\), got shape {shape}"):
            iterate(lambda x: apply_h_k(rp, ap, x), start, 10)

    @pytest.mark.parametrize("start", [[1.0, 0.5], [2.0]])
    def test_cartesian_start_needs_three_coordinates(self, profiles, start):
        rp, ap = profiles
        with pytest.raises(ValueError, match=f"needs k >= 3 coordinates, got shape \\({len(start)},\\)"):
            iterate(lambda x: apply_h_k(rp, ap, x), start, 10)

    def test_cartesian_start_at_the_origin_is_rejected(self, profiles):
        rp, ap = profiles
        with pytest.raises(ValueError, match="^Cartesian orbits must start off the origin$"):
            iterate(lambda x: apply_h_k(rp, ap, x), np.zeros(3), 5)

    def test_trace_is_frozen(self, profiles):
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.3)), 10)
        with pytest.raises(AttributeError):
            trace.entered_trap_at = 3

    def test_step_that_changes_the_dimension(self):
        with pytest.raises(ValueError, match="changed the dimension of the point from 3"):
            iterate(lambda x: np.ones(x.shape[0] + 1), np.ones(3), 5)

    def test_cartesian_trace_records_log_norms(self, profiles):
        rp, ap = profiles
        step = lambda x: apply_h_k(rp, ap, x)
        start = np.array([1.0, 1.0, 1.0])
        trace = iterate(step, start, 50)
        assert trace.rs.shape == (51,)
        oracle = [math.log(np.linalg.norm(row)) for row in _cartesian_rows(step, start, 50)]
        np.testing.assert_allclose(trace.rs, oracle, rtol=1e-12)

    def test_cartesian_orbit_stops_at_the_origin(self):
        # Halve the point until its first coordinate is at most 0.1, then map
        # it to the origin: five steps, the last with log-radius -inf.
        step = lambda x: x / 2.0 if x[0] > 0.1 else np.zeros(3)
        trace = iterate(step, np.ones(3), 50)
        assert trace.n_steps == 5
        assert trace.rs[-1] == -math.inf
        np.testing.assert_array_equal(trace.rs[:-1], [math.log(math.sqrt(3.0) / 2.0**i) for i in range(5)])


def _cartesian_rows(step, start, n_steps):
    """The points of a Cartesian orbit, stepped ``n_steps`` times or until a
    log-norm leaves ``[-R_ESCAPE, R_ESCAPE]``, as ``iterate`` stops."""
    x = np.array(start, dtype=float)
    rows = [x]
    for _ in range(n_steps):
        norm = robust_norm(x)
        if norm == 0.0 or not abs(math.log(norm)) <= R_ESCAPE:
            break
        x = np.array(step(x), dtype=float)
        rows.append(x)
    return np.array(rows)


def _reference_cartesian_iterate(step, start, n_steps):
    """A per-step Cartesian loop with preallocated arrays and the observer
    formula on numpy scalars, as ``iterate`` computed it before each point
    was observed once; the reference for bit identity.  A step's result is
    taken through ``np.asarray``, so a step may return a list."""

    def observe(x):
        norm = robust_norm(x)
        if norm == 0.0 or not math.isfinite(norm):
            theta = 0.0
        else:
            theta = math.acos(max(-1.0, min(1.0, x[-1] / norm))) / TWO_PI
        return (math.log(norm) if norm > 0.0 else -math.inf), theta

    x = np.asarray(start, dtype=float)
    rs, thetas = np.empty(n_steps + 1), np.empty(n_steps + 1)
    rs[0], thetas[0] = observe(x)
    n_done = n_steps
    for i in range(1, n_steps + 1):
        x = np.asarray(step(x), dtype=float)
        rs[i], thetas[i] = observe(x)
        if not math.isfinite(rs[i]) or abs(rs[i]) > R_ESCAPE:
            n_done = i
            break
    return rs[: n_done + 1], thetas[: n_done + 1]


def _cartesian_starts(k, n=4, seed=0):
    rng = np.random.default_rng(seed + k)
    for _ in range(n):
        x = rng.standard_normal(k)
        yield x * math.exp(rng.uniform(-20.0, 20.0)) / np.linalg.norm(x)


class TestCartesianObserverBitIdentity:
    """``iterate`` observes each Cartesian point once, on Python floats; its
    traces equal the per-step reference loop bit for bit."""

    @staticmethod
    def _assert_same(step, start, n_steps):
        trace = iterate(step, np.array(start, dtype=float), n_steps)
        rs, thetas = _reference_cartesian_iterate(step, np.array(start, dtype=float), n_steps)
        assert trace.rs.tobytes() == rs.tobytes()
        assert trace.thetas.tobytes() == thetas.tobytes()
        np.testing.assert_array_equal(trace.gains, np.diff(rs))
        return trace

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("fn", [apply_h_k, apply_j_k])
    def test_suspension_steps(self, profiles, k, fn):
        rp, ap = profiles
        step = lambda x: fn(rp, ap, x)
        axis = np.zeros(k)
        axis[-1] = 2.0
        for start in [np.ones(k), axis, -axis, *_cartesian_starts(k)]:
            self._assert_same(step, start, 300)

    def test_stop_at_the_origin(self, profiles):
        rp, ap = profiles
        trace = self._assert_same(lambda x: apply_h_k(rp, ap, x), [1e-300, 0.0, 0.0], 200)
        assert trace.n_steps == 120
        assert trace.rs[-1] == -math.inf

    def test_stop_on_overflow(self, profiles):
        rp, ap = profiles
        for fn in (apply_h_k, apply_j_k):
            trace = self._assert_same(lambda x: fn(rp, ap, x), [1e307, 1e307, 1e307], 200)
            assert trace.n_steps == 1
            assert trace.rs[-1] == math.inf

    def test_step_that_mutates_its_input(self, profiles):
        rp, ap = profiles

        def step(x):
            x[:] = apply_h_k(rp, ap, x)
            return x

        trace = self._assert_same(step, [1.0, 2.0, 3.0, 4.0], 100)
        plain = iterate(lambda x: apply_h_k(rp, ap, x), np.array([1.0, 2.0, 3.0, 4.0]), 100)
        assert trace.rs.tobytes() == plain.rs.tobytes()
        assert len(set(trace.rs.tolist())) == 101

    def test_step_that_returns_a_list(self, profiles):
        rp, ap = profiles
        trace = self._assert_same(lambda x: apply_j_k(rp, ap, x).tolist(), [1.0, 2.0, 3.0], 100)
        plain = iterate(lambda x: apply_j_k(rp, ap, x), np.array([1.0, 2.0, 3.0]), 100)
        assert trace.rs.tobytes() == plain.rs.tobytes()
        assert trace.thetas.tobytes() == plain.thetas.tobytes()

    @pytest.mark.parametrize("start", [[1.0, math.nan, 0.0], [math.inf, 0.0, 0.0], [0.0, -math.inf]])
    def test_non_finite_start_is_rejected(self, profiles, start):
        # Checked before the origin test: a NaN coordinate used to read as
        # the origin (its norm is NaN).
        rp, ap = profiles
        with pytest.raises(ValueError, match="finite coordinates"):
            iterate(lambda x: apply_h_k(rp, ap, x), start, 10)


class TestClassify:
    def test_attracted_orbit(self, profiles):
        trace = iterate(_f0_step(profiles), CylPoint(3.0, Angle(0.41)), 500)
        label, rate = classify_orbit(trace)
        assert label is OrbitClass.ATTRACTED
        assert rate < -0.8

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
        with pytest.raises(ValueError, match="window 51 exceeds the 50-step trace"):
            classify_orbit(trace, window=51)
        classify_orbit(trace, window=50)
        classify_orbit(trace, window=np.int64(50))

    @pytest.mark.parametrize("window", [0, -5, True, 2.5])
    def test_window_below_one_is_rejected(self, profiles, window):
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.3)), 50)
        with pytest.raises(ValueError, match=f"window must be at least 1, got {window}"):
            classify_orbit(trace, window=window)

    @pytest.mark.parametrize("tol", [-5.0, -1e-300, math.nan, math.inf])
    def test_tol_must_be_finite_and_non_negative(self, profiles, tol):
        trace = iterate(_f0_step(profiles), CylPoint(0.0, Angle(0.3)), 200)
        with pytest.raises(ValueError, match=r"tol must be finite and non-negative"):
            classify_orbit(trace, tol=tol)
        assert classify_orbit(trace, tol=0.0).label is OrbitClass.ATTRACTED

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
            label, rate = classify_orbit(iterate(step, start, 300))
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
        trace = iterate(step, CylPoint(0.0, Angle(0.3)), 137)
        # The pair's angular displacement is bounded below off the fixed set,
        # so angles keep circulating; this seed/length ends outside the trap.
        assert detect_trap_entry(trace, trapping_interval(rp)) is None

    def test_cartesian_orbit_records_entry(self, profiles):
        rp, ap = profiles
        trap = CircleInterval(Angle(0.5), rp.w / (2.0 * rp.a))
        trace = iterate(lambda x: apply_h_k(rp, ap, x), np.ones(3), 300, trap=trap)
        assert trace.entered_trap_at is not None
        assert trace.entered_trap_at == detect_trap_entry(trace, trap)


def _orbit_digest(profiles) -> str:
    """sha256 over single-point orbits and round trips of every map:

    * ``rs``, ``thetas`` and the points of ``h_k``/``j_k`` orbits for k = 3,
      4, 5 from seeded starts of scale e^(+-20), drawn as criterion 4 draws
      them; the points are stepped here, apart from ``iterate``;
    * ``rs``, ``thetas`` and ``entered_trap_at`` of ``f0``/``f1`` orbits;
    * 300 ``inverse_f0`` round trips: the image and the recovered preimage.
    """
    rp, ap = profiles
    h = hashlib.sha256()
    for k in (3, 4, 5):
        rng = np.random.default_rng(900 + k)
        for fn in (apply_h_k, apply_j_k):
            for _ in range(6):
                x = rng.standard_normal(k)
                x *= math.exp(rng.uniform(-20.0, 20.0)) / np.linalg.norm(x)
                step = lambda y: fn(rp, ap, y)
                trace = iterate(step, x, 300)
                for arr in (trace.rs, trace.thetas, _cartesian_rows(step, x, 300)):
                    h.update(arr.tobytes())
    rng = np.random.default_rng(910)
    trap = trapping_interval(rp)
    for step, arc in ((lambda p: apply_f0(rp, ap, p), trap), (lambda p: apply_f1(rp, ap, p), trap.translate(0.5))):
        for _ in range(10):
            start = CylPoint(rng.uniform(-20.0, 20.0), Angle(rng.uniform(0.0, 1.0)))
            trace = iterate(step, start, 500, trap=arc)
            h.update(trace.rs.tobytes() + trace.thetas.tobytes() + repr(trace.entered_trap_at).encode())
    rng = np.random.default_rng(911)
    for _ in range(300):
        q = apply_f0(rp, ap, CylPoint(rng.uniform(-50.0, 50.0), Angle(rng.uniform(0.0, 1.0))))
        back = inverse_f0(rp, ap, q)
        h.update(np.array([q.r, q.theta.value, back.r, back.theta.value]).tobytes())
    return h.hexdigest()


def test_single_point_orbits_are_pinned(profiles):
    # Digest taken at commit c293081, before Angle, CylPoint, apply_h_k,
    # apply_j_k and the Cartesian path of iterate were made leaner; a faster
    # step must leave every bit of these traces unchanged.
    assert _orbit_digest(profiles) == "263f6865553ddc00ec32b5527e8574c743cf23ca7a8129d1571bf2d0ca0cdc20"
