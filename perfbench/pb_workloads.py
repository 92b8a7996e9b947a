"""The benchmark workloads: inputs drawn from the workload seed, one timed pass
over fixed work, and the output checks behind ``error_rate``.

Constructing a workload is the set-up a user pays before the first task
(profiles, config and, for the CLI workloads, the argument parser).
``make_inputs`` then draws every input from the seed, ``run`` is the timed
pass, and ``check`` runs afterwards, untimed.  Library calls are looked up
through ``pm.<name>`` and ``cli.main`` at call time, so that the tracer's
wrappers see them.

The sizes are scaled down from the paper's experiments (about 1000 sequences,
100 cells x 100 sequences, 100 starts per map) so that a pass takes one to
three seconds on a 2-core machine; each workload keeps its mix of work.  They
are class constants, so the harness tests run exactly what the benchmark runs.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

import parrondo_maps as pm
from parrondo_maps import cli

import pb_reference as ref

P, A, W, D = 0.5, 5.0, 0.125, 0.25
START_THETA = 0.25  # the CLI's default start (0, 1/4)
ESCAPE_THRESHOLD = 100.0
CLASSIFY_WINDOW = 100  # classify_orbit's default trailing window


class Checks:
    """Tally of output checks.

    ``known`` counts failures of criterion 2's known defect: the raised-cosine
    drift is quadratically tangent at its fixed angle, so planar orbits
    approach and leave it only like 1/n.  It fails the trailing-gain check
    (|gain + 1| < 1e-6 from trap entry + 200 steps) and, for orbits that
    enter the trap in the last classification window, the 500-step
    attraction check.  Those failures stay counted in ``failed``; every other
    failure makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.failures: dict[str, int] = {}

    def expect(self, ok: bool, what: str, known_defect: bool = False) -> None:
        self.count(0 if ok else 1, 1, what, known_defect)

    def count(self, n_failed: int, n: int, what: str, known_defect: bool = False) -> None:
        self.attempted += n
        self.failed += n_failed
        if known_defect:
            self.known += n_failed
        if n_failed:
            key = f"{what} (known defect)" if known_defect else what
            self.failures[key] = self.failures.get(key, 0) + n_failed

    @property
    def notes(self) -> list[str]:
        return [f"{what}: {n} failed" for what, n in self.failures.items()]

    @property
    def unexpected(self) -> int:
        return self.failed - self.known


class Pass:
    """Operations (calls into the program) of one pass; an exception fails one."""

    def __init__(self):
        self.ops = 0
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.ops += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark boundary: record and go on
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def run_cli(argv: list[str]) -> bytes:
    """``parrondo <argv>`` in-process; the output bytes it writes to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"parrondo {argv[0]} exited with code {code}")
    return buf.getvalue().encode()


def _circle_dist(x: float, y: float) -> float:
    t = abs(x - y) % 1.0
    return min(t, 1.0 - t)


def _csv_rows(out: bytes, columns: str, checks: Checks) -> list[list[str]]:
    lines = out.decode().splitlines()
    checks.expect(
        len(lines) >= 3 and lines[0].startswith("# version:") and lines[2] == columns,
        "CSV header",
    )
    return [line.split(",") for line in lines[3:]]


class McEscape:
    """``parrondo ifs --format csv`` at p = 1/2, a = 5, w = 1/8, d = 1/4."""

    name = "mc_escape"
    SEQUENCES = 300
    HORIZON = 2000
    REFERENCE_STREAMS = 8

    def __init__(self, seed: int):
        self.seed = seed
        # Set-up a CLI user pays before the first task (setup_s); the pass goes through cli.main.
        self.parser = cli.build_parser()
        self.profiles = pm.default_profiles(A, W, D)
        self.config = pm.IfsConfig(p=P, a=A, seed=seed, horizon=self.HORIZON, n_sequences=self.SEQUENCES, w=W, d=D)

    def make_inputs(self) -> None:
        self.argv = [
            "ifs", "--format", "csv", "--p", repr(P), "--a", repr(A), "--w", repr(W), "--d", repr(D),
            "--horizon", str(self.HORIZON), "--sequences", str(self.SEQUENCES), "--seed", str(self.seed),
        ]
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0xBE,)))
        self.sample = sorted(rng.choice(self.SEQUENCES, size=self.REFERENCE_STREAMS, replace=False).tolist())

    def run(self):
        ps = Pass()
        return ps, ps.call(run_cli, self.argv)

    def check(self, out: bytes | None) -> Checks:
        checks = Checks()
        if out is None:
            return checks
        rows = _csv_rows(out, "sequence_id,m,k_m,delta_2m", checks)
        n, m = self.SEQUENCES, self.HORIZON // 2
        ids = [int(r[0]) for r in rows]
        checks.expect(ids == list(range(n)) and all(int(r[1]) == m for r in rows), "one row per sequence")
        if len(rows) != n:
            return checks
        k = np.array([int(r[2]) for r in rows])
        delta = np.array([float(r[3]) for r in rows])
        checks.count(int(np.count_nonzero(delta < A * k - 2.0 * m)), n, "delta >= a k_m - 2m")
        recount = np.array([ref.mixed_pairs(ref.symbols(P, self.HORIZON, self.seed, i)) for i in range(n)])
        checks.count(int(np.count_nonzero(recount != k)), n, "k_m equals the recount from the seeded streams")
        for i in self.sample:
            sym = ref.symbols(P, self.HORIZON, self.seed, i)
            gain = ref.orbit_gain(sym, A, W, D, START_THETA)
            checks.expect(ref.mixed_pairs(sym) == k[i], f"reference k_m of stream {i}")
            checks.expect(abs(gain - delta[i]) <= 1e-9 * abs(gain), f"reference delta of stream {i}")
        checks.expect(float(np.mean(delta > ESCAPE_THRESHOLD)) >= 0.99, "escape fraction >= 0.99")
        # Criterion 6's tolerance: 3 sigma of k_m / m for one sequence of m pairs.
        two_pq = 2.0 * P * (1.0 - P)
        tol = 3.0 * math.sqrt(two_pq * (1.0 - two_pq) / m)
        checks.expect(abs(float(np.mean(k / m)) - two_pq) <= tol, "mixed fraction within 3 sigma of 2pq")
        return checks


class SweepFrontier:
    """``parrondo sweep`` over 9 x 4 (p, a) cells on both sides of a_min."""

    name = "sweep_frontier"
    P_GRID = "0.1:0.9:9"
    A_GRID = (4.0, 5.0, 8.0, 12.0)
    SEQUENCES = 50
    HORIZON = 400

    def __init__(self, seed: int):
        self.seed = seed
        # Set-up a CLI user pays before the first task (setup_s); the pass goes through cli.main.
        self.parser = cli.build_parser()
        self.profiles = pm.default_profiles(A, W, D)

    def make_inputs(self) -> None:
        self.argv = [
            "sweep", "--p-grid", self.P_GRID, "--a-grid", ",".join(repr(a) for a in self.A_GRID),
            "--w", repr(W), "--d", repr(D), "--horizon", str(self.HORIZON),
            "--sequences", str(self.SEQUENCES), "--seed", str(self.seed),
        ]
        self.cells = [(p, a) for p in np.linspace(0.1, 0.9, 9).tolist() for a in self.A_GRID]

    def run(self):
        ps = Pass()
        return ps, ps.call(run_cli, self.argv)

    def check(self, out: bytes | None) -> Checks:
        checks = Checks()
        if out is None:
            return checks
        rows = _csv_rows(
            out, "p,a,a_min,K,pair_slope_lb,empirical_slope,escape_fraction,admissibility", checks
        )
        same_cells = len(rows) == len(self.cells) and all(
            math.isclose(float(r[0]), p, rel_tol=1e-12) and float(r[1]) == a
            for r, (p, a) in zip(rows, self.cells)
        )
        checks.expect(same_cells, "one row per (p, a) cell, in grid order")
        if not same_cells:
            return checks
        for r, (p, a) in zip(rows, self.cells):
            pq = p * (1.0 - p)
            a_min, k_bound, slope_lb, slope = (float(x) for x in r[2:6])
            checks.expect(math.isclose(a_min, 1.0 / pq, rel_tol=1e-12), f"a_min at {(p, a)}")
            checks.expect(abs(k_bound - 2.0 * (a * pq - 1.0)) <= 1e-12 * a, f"K at {(p, a)}")
            checks.expect(abs(slope_lb - (2.0 * a * pq - 2.0)) <= 1e-12 * a, f"pair_slope_lb at {(p, a)}")
            margin = a * pq - 1.0
            label = "boundary" if abs(margin) <= 1e-12 else ("admissible" if margin > 0 else "inadmissible")
            checks.expect(r[7] == label, f"label at {(p, a)}")
            checks.expect(-2.0 <= slope <= 2.0 * a - 2.0, f"empirical slope in [-2, 2a-2] at {(p, a)}")
        return checks


class GeometryAudit:
    """The deterministic library calls behind acceptance criteria 1-4."""

    name = "geometry_audit"
    STEPS = 500
    GAIN_GRID = 100_000
    PLANAR_STARTS = 25
    ROUND_TRIPS = 2500
    CONE_SAMPLES = 25_000
    HD_STARTS = 25

    def __init__(self, seed: int):
        self.seed = seed
        self.rp, self.ap = pm.default_profiles(A, W, D)
        trap = pm.trapping_interval(self.rp)
        self.traps = {"f0": trap, "f1": trap.translate(0.5)}

    def make_inputs(self) -> None:
        planar, inverse, hd = (np.random.default_rng(s) for s in np.random.SeedSequence(self.seed).spawn(3))
        self.planar = list(zip(planar.uniform(-20.0, 20.0, self.PLANAR_STARTS).tolist(),
                               planar.uniform(0.0, 1.0, self.PLANAR_STARTS).tolist()))
        self.inverse = list(zip(inverse.uniform(-50.0, 50.0, self.ROUND_TRIPS).tolist(),
                                inverse.uniform(0.0, 1.0, self.ROUND_TRIPS).tolist()))
        self.hd = []
        for k in (3, 4, 5):
            for fn in ("h_k", "j_k"):
                for _ in range(self.HD_STARTS):
                    x = hd.standard_normal(k)
                    x *= math.exp(hd.uniform(-20.0, 20.0)) / np.linalg.norm(x)
                    self.hd.append((fn, x))

    def _planar_orbit(self, name: str, r: float, theta: float):
        rp, ap = self.rp, self.ap
        if name == "f0":
            step = lambda q: pm.apply_f0(rp, ap, q)  # noqa: E731
        else:
            step = lambda q: pm.apply_f1(rp, ap, q)  # noqa: E731
        trace = pm.iterate(step, pm.CylPoint(r, pm.Angle(theta)), self.STEPS, trap=self.traps[name])
        return trace, pm.classify_orbit(trace).label

    def _round_trip(self, r: float, theta: float):
        back = pm.inverse_f0(self.rp, self.ap, pm.apply_f0(self.rp, self.ap, pm.CylPoint(r, pm.Angle(theta))))
        return back.r, back.theta.value

    def _hd_orbit(self, fn: str, x: np.ndarray):
        rp, ap = self.rp, self.ap
        if fn == "h_k":
            step = lambda y: pm.apply_h_k(rp, ap, y)  # noqa: E731
        else:
            step = lambda y: pm.apply_j_k(rp, ap, y)  # noqa: E731
        return pm.classify_orbit(pm.iterate(step, x, self.STEPS)).label

    def run(self):
        ps = Pass()
        gains = [
            ps.call(pm.composition_radial_gain, pm.MapWord.parse(word), self.rp, self.ap, grid_n=self.GAIN_GRID)
            for word in ("f0,f1", "f1,f0")
        ]
        planar = [ps.call(self._planar_orbit, name, r, t) for name in ("f0", "f1") for r, t in self.planar]
        trips = [ps.call(self._round_trip, r, t) for r, t in self.inverse]
        cones = [
            ps.call(pm.check_cone_condition, self.rp, self.ap, k, n_samples=self.CONE_SAMPLES, seed=self.seed)
            for k in (3, 4, 5)
        ]
        hd = [ps.call(self._hd_orbit, fn, x) for fn, x in self.hd]
        return ps, (gains, planar, trips, cones, hd)

    def check(self, out) -> Checks:
        checks = Checks()
        gains, planar, trips, cones, hd = out
        attracted = pm.OrbitClass.ATTRACTED
        for study in gains:  # criterion 1
            checks.expect(study is not None and study.certified and study.min_gain >= 3.0 - 1e-9,
                          "certified composition gain >= 3")
        for result in planar:  # criterion 2
            if result is None:
                continue
            trace, label = result
            n0 = trace.entered_trap_at
            # The same tangency: a start just past the fixed angle on its repelling
            # side leaves it like 1/n and may enter the trap inside the final
            # classification window, which then still holds escaping steps.
            late = n0 is not None and n0 > self.STEPS - CLASSIFY_WINDOW
            checks.expect(label is attracted, "planar orbit attracted", known_defect=late)
            checks.expect(n0 is not None, "planar orbit enters its trapping arc")
            tail = trace.gains[n0 + 200:] if n0 is not None else None
            trailing_ok = tail is not None and (tail.size == 0 or float(np.max(np.abs(tail + 1.0))) < 1e-6)
            checks.expect(trailing_ok, "trailing gain within 1e-6 of -1", known_defect=True)
        for (r, t), back in zip(self.inverse, trips):  # criterion 3
            if back is not None:
                checks.expect(abs(back[0] - r) < 1e-8 and _circle_dist(back[1], t) < 1e-8,
                              "inverse_f0 round trip within 1e-8")
        for cone in cones:  # criterion 4
            checks.expect(cone is not None and cone.holds and cone.min_gain_jh >= 3.0 - 1e-6,
                          "cone condition holds with min gain >= 3")
        checks.count(sum(label is not attracted for label in hd if label is not None),
                     sum(label is not None for label in hd), "h_k / j_k orbit attracted")
        return checks


WORKLOADS = {cls.name: cls for cls in (McEscape, SweepFrontier, GeometryAudit)}
