"""One fresh benchmark process: set-up, input draw, timed pass, checks.

Started by run.py, one child at a time::

    python3 perfbench/pb_worker.py WORKLOAD SEED MODE SPAWN_TIME OUT_DIR INDEX

MODE is ``warm`` (set-up only), ``measure`` (one untraced pass) or ``trace``
(one untraced pass, then one traced pass).  SPAWN_TIME is the parent's
``time.monotonic()`` just before the spawn; that clock is system-wide, so
set-up time runs from the spawn to the workload being ready.  The child
prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import pb_reference

SRC = Path(__file__).resolve().parent.parent / "src"

# Reference speed: the machine speed at which the calibration kernel takes
# CAL_REF_S.  The kernel is benchmark-owned code whose work never changes
# between commits; timed right before and right after a pass, it tells how
# fast a shared machine runs just then, and the pass's times are reported
# scaled to the reference speed.
CAL_REF_S = 0.12


def _digest(out) -> dict:
    if not isinstance(out, bytes):
        return {"sha256": None, "output_bytes": 0}
    return {"sha256": hashlib.sha256(out).hexdigest(), "output_bytes": len(out)}


def _checked(wl, ps, out) -> dict:
    checks = wl.check(out)
    checks.count(len(ps.errors), len(ps.errors), "operation raised")
    return {
        "ops": ps.ops,
        "op_failures": len(ps.errors),
        "errors": ps.errors[:5],
        "checks_attempted": checks.attempted,
        "checks_failed": checks.failed,
        "checks_known": checks.known,
        "notes": checks.notes,
        **_digest(out),
    }


class Calibration:
    """The reference orbit loop over 120 000 steps plus 300 numpy cosines of 20 000 angles.

    About 0.15 s on a 2-core VM: long enough that the kernel's own noise does
    not dominate the scale of a one- to two-second pass.
    """

    def __init__(self):
        self.symbols = pb_reference.symbols(0.5, 120_000, 0, 0)
        self.grid = np.linspace(0.0, 1.0, 20_000)

    def seconds(self) -> tuple[float, float]:
        """Wall and process CPU seconds of one kernel run."""
        w = time.perf_counter()
        c = time.process_time()
        pb_reference.orbit_gain(self.symbols, 5.0, 0.125, 0.25, 0.25)
        for _ in range(300):
            np.cos(self.grid)
        return time.perf_counter() - w, time.process_time() - c


def measure(wl, calibration: Calibration) -> dict:
    """One untraced pass; wall time is scaled by the kernel's wall time, CPU time by its CPU time."""
    before = calibration.seconds()
    w0 = time.perf_counter()
    c0 = time.process_time()
    ps, out = wl.run()
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0
    after = calibration.seconds()
    wall_scale = CAL_REF_S / (0.5 * (before[0] + after[0]))
    cpu_scale = CAL_REF_S / (0.5 * (before[1] + after[1]))
    return {
        "wall_raw_s": wall,
        "cpu_raw_s": cpu,
        "calibration_s": [before[0], after[0]],
        "calibration_cpu_s": [before[1], after[1]],
        "speed_scale": wall_scale,
        "cpu_speed_scale": cpu_scale,
        "wall_s": wall * wall_scale,
        "cpu_s": cpu * cpu_scale,
        **_checked(wl, ps, out),
    }


def trace(wl, package, untraced: dict, spans_path: Path) -> dict:
    from pb_trace import Tracer, same_objects, snapshot  # only traced children import the tracer

    before = snapshot(package)
    tracer = Tracer()
    tracer.install(package)
    try:
        tracer.begin_pass(0)
        try:
            ps, out = wl.run()
        finally:
            traced_wall = tracer.end_pass()
    finally:
        patches = tracer.restore()
    restored = same_objects(before, snapshot(package))
    layers = tracer.layer_metrics(0)
    layers["cli.output_bytes"] = untraced["output_bytes"]
    layers["trace.overhead_s"] = traced_wall - untraced["wall_raw_s"]
    tracer.save(spans_path)
    return {
        "traced": {"wall_s": traced_wall, **_checked(wl, ps, out)},
        "restored": restored and len(patches) > 0,
        "layers": layers,
        "spans_file": spans_path.name,
    }


def main(argv: list[str]) -> int:
    workload, seed, mode, t_spawn, out_dir, index = argv
    sys.path.insert(0, str(SRC))
    import parrondo_maps as pm
    import pb_workloads

    if not Path(pm.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"parrondo_maps imported from {pm.__file__}, not from {SRC}")
    wl = pb_workloads.WORKLOADS[workload](int(seed))
    setup = time.monotonic() - float(t_spawn)
    result = {"setup_raw_s": setup, "python": sys.version.split()[0], "numpy": np.__version__}
    if mode != "warm":
        wl.make_inputs()
        result.update(measure(wl, Calibration()))
        if mode == "trace":
            result.update(trace(wl, pm, result, Path(out_dir) / f"spans-{workload}-{index}.npz"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
