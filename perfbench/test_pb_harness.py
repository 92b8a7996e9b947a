"""Tests of the benchmark harness itself: span arithmetic, wrapper restoration,
the independent reference loop and the workload checks on a second seed.

    python3 -m pytest perfbench/test_pb_harness.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import parrondo_maps as pm  # noqa: E402
import pb_reference as ref  # noqa: E402
import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402

def test_self_time_on_synthetic_nested_spans():
    t = pb_trace.Tracer()
    root = t.record("bench.pass", -1, 0, 100)
    outer = t.record("m.a", root, 10, 60)
    t.record("m.b", outer, 20, 30)
    t.record("m.b", outer, 35, 50)
    t.record("m.a", outer, 52, 58)  # re-entry of m.a inside itself
    t.record("m.b", root, 70, 90)
    t.record("m.b", -1, 0, 1000, pass_id=1)
    agg = t.aggregate(0)
    ns = pytest.approx
    assert agg["bench.pass"] == {"calls": 1, "s": ns(100e-9), "self_s": ns(30e-9)}
    assert agg["m.a"] == {"calls": 2, "s": ns(50e-9), "self_s": ns((50 - 10 - 15 - 6 + 6) * 1e-9)}
    assert agg["m.b"] == {"calls": 3, "s": ns(45e-9), "self_s": ns(45e-9)}
    assert sum(a["self_s"] for a in agg.values()) == ns(100e-9)
    assert t.aggregate(1)["m.b"] == {"calls": 1, "s": ns(1e-6), "self_s": ns(1e-6)}
    assert t.child_count(0, "m.a", "m.b") == 2
    assert t.layer_metrics(0)["trace.unaccounted_share"] == ns(0.3)


def test_every_wrapped_function_is_the_original_again():
    before = pb_trace.snapshot(pm)
    wl = pb_workloads.GeometryAudit(seed=5)
    wl.make_inputs()
    tracer = pb_trace.Tracer()
    tracer.install(pm)
    assert not pb_trace.same_objects(before, pb_trace.snapshot(pm))
    try:
        tracer.begin_pass(0)
        try:
            _, out = wl.run()
        finally:
            tracer.end_pass()
    finally:
        patches = tracer.restore()
    patched = {(owner.__name__, attr) for owner, attr, _ in patches}
    for example in [("parrondo_maps.cli", "monte_carlo"), ("parrondo_maps.dynamics", "robust_norm"),
                    ("parrondo_maps", "iterate"), ("parrondo_maps.cli", "main"),
                    ("AngularProfile", "lift"), ("Angle", "__post_init__")]:
        assert example in patched
    assert pb_trace.same_objects(before, pb_trace.snapshot(pm))
    m = tracer.layer_metrics(0)
    g = pb_workloads.GeometryAudit
    assert m["planar.inverse_f0.calls"] == g.ROUND_TRIPS and m["circle.lift_evals_per_inverse"] > 1.0
    assert m["dynamics.iterate.calls"] == 2 * g.PLANAR_STARTS + 6 * g.HD_STARTS
    assert m["highdim.cone_samples"] == 3 * g.CONE_SAMPLES
    assert wl.check(out).unexpected == 0


def test_declared_per_layer_metrics_match_the_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    t = pb_trace.Tracer()
    t.begin_pass(0)
    t.end_pass()
    produced = set(t.layer_metrics(0)) | {"cli.output_bytes", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert all(m["unit"] == pb_trace.unit_of(m["name"]) for m in spec["per_layer"])


@pytest.mark.parametrize("p, seed", [(0.5, 20240), (0.3, 7)])
def test_reference_loop_matches_run_ifs(p, seed):
    config = pm.IfsConfig(p=p, a=5.0, seed=seed, horizon=400, n_sequences=3)
    for stream in range(3):
        run = pm.run_ifs(config, stream=stream)
        sym = ref.symbols(p, 400, seed, stream)
        assert np.array_equal(sym, run.symbols)
        assert ref.mixed_pairs(sym) == run.k_m
        assert ref.orbit_gain(sym, 5.0, 0.125, 0.25, 0.25) == pytest.approx(run.delta_total, rel=1e-9)


@pytest.mark.parametrize("name", sorted(pb_workloads.WORKLOADS))
def test_second_seed_fails_only_the_known_defect(name):
    wl = pb_workloads.WORKLOADS[name](987654)
    wl.make_inputs()
    ps, out = wl.run()
    checks = wl.check(out)
    assert ps.errors == []
    assert checks.attempted > 0 and checks.unexpected == 0, checks.notes
    if name != "geometry_audit":
        assert checks.known == 0


def test_late_trap_entry_counts_as_the_known_defect():
    # Seed 240 draws an f1 start just past the fixed angle 1/2; that orbit
    # enters its trap at step 481 and is not yet classified as attracted.
    wl = pb_workloads.GeometryAudit(240)
    wl.make_inputs()
    _, out = wl.run()
    checks = wl.check(out)
    assert checks.failures.get("planar orbit attracted (known defect)") == 1
    assert checks.unexpected == 0


def test_inputs_depend_only_on_the_seed():
    def inputs(seed):
        wl = pb_workloads.GeometryAudit(seed)
        wl.make_inputs()
        return wl.planar, wl.inverse, [x.tolist() for _, x in wl.hd]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_escape", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
