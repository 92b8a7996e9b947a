"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function of the library's layer
modules (the names in each module's ``__all__`` that the module defines), in
the defining module and in every package module that imported it by name,
plus ``cli.main`` and the class methods reached through bound-method lookups
(``RadialProfile.delta_r``, ``AngularProfile.delta_theta``,
``AngularProfile.lift``, ``Angle`` construction).  ``restore`` puts the
original objects back.

Each call records one span (name, start, end, parent, pass id) in flat
arrays kept in memory; ``save`` writes them once at the end.  A span's self
time is its duration minus the durations of its direct children, which the
single-threaded call nesting makes disjoint and contained in the parent.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("circle", "profiles", "planar", "highdim", "dynamics", "ifs")
METHODS = (
    ("circle", "Angle", "__post_init__", "circle.Angle"),
    ("profiles", "RadialProfile", "delta_r", "profiles.delta_r"),
    ("profiles", "AngularProfile", "delta_theta", "profiles.delta_theta"),
    ("profiles", "AngularProfile", "lift", "profiles.lift"),
)
ROOT = "bench.pass"


def _bound(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _elements(key):
    def hook(counts, fn, args, kwargs, result):
        theta = args[1]
        counts[key] += theta.size if isinstance(theta, np.ndarray) else 1

    return hook


def _run_ifs(counts, fn, args, kwargs, result):
    counts["ifs.steps"] += len(result.symbols)


def _iterate(counts, fn, args, kwargs, result):
    counts["dynamics.iterate.steps"] += result.n_steps
    counts["dynamics.iterate.early_stops"] += result.n_steps < _bound(fn, args, kwargs, "n_steps")


def _cone(counts, fn, args, kwargs, result):
    counts["highdim.cone_samples"] += _bound(fn, args, kwargs, "n_samples")


def _inverse(counts, fn, args, kwargs, result):
    counts["circle.inverses_found"] += 1


# Work counts recorded at the layer boundary, from the call's arguments and result.
HOOKS = {
    "profiles.delta_r": _elements("profiles.delta_r.elements"),
    "profiles.delta_theta": _elements("profiles.delta_theta.elements"),
    "ifs.run_ifs": _run_ifs,
    "dynamics.iterate": _iterate,
    "highdim.check_cone_condition": _cone,
    "circle.monotone_circle_inverse": _inverse,
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its quantity suffix."""
    if metric.endswith("ns_per_step"):
        return "ns"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_share"):
        return "share"
    return "count"


def _modules(package) -> list:
    return [package] + [getattr(package, m) for m in LAYERS + ("cli",)]


def namespaces(package) -> list:
    """The package modules and classes whose attributes ``Tracer.install`` may replace."""
    return _modules(package) + [getattr(getattr(package, layer), cls) for layer, cls, _, _ in METHODS]


def snapshot(package) -> dict:
    """Every attribute of those namespaces, keyed by (namespace id, name)."""
    return {(id(ns), key): value for ns in namespaces(package) for key, value in vars(ns).items()}


def same_objects(before: dict, after: dict) -> bool:
    """Whether two snapshots hold the very same objects under the same names."""
    return after.keys() == before.keys() and all(after[key] is value for key, value in before.items())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("h")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[int, defaultdict] = {}
        self._stack = [-1]
        self._pass = 0
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def record(self, label: str, parent: int, start_ns: int, end_ns: int, pass_id: int = 0) -> int:
        """Append a finished span directly; the wrappers record the same fields."""
        self.name.append(self._id(label))
        self.parent.append(parent)
        self.pass_id.append(pass_id)
        self.start.append(start_ns)
        self.end.append(end_ns)
        return len(self.name) - 1

    def begin_pass(self, pass_id: int) -> None:
        """Open the root span of one pass; every span until ``end_pass`` nests in it."""
        self._pass = pass_id
        self.counts[pass_id] = defaultdict(int)
        self._stack.append(self.record(ROOT, -1, time.perf_counter_ns(), 0, pass_id))

    def end_pass(self) -> float:
        """Close the pass's root span and return its duration in seconds."""
        root = self._stack.pop()
        self.end[root] = time.perf_counter_ns()
        return (self.end[root] - self.start[root]) * 1e-9

    def _wrap(self, label: str, fn):
        nid = self._id(label)
        hook = HOOKS.get(label)
        names, parents, passes, starts, ends = self.name, self.parent, self.pass_id, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            passes.append(tracer._pass)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts[tracer._pass], fn, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self, package) -> None:
        targets = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        targets[id(package.cli.main)] = (package.cli.main, self._wrap("cli.main", package.cli.main))
        for mod in _modules(package):
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for layer, cls, method, label in METHODS:
            owner = getattr(getattr(package, layer), cls)
            self._patch(owner, method, self._wrap(label, vars(owner)[method]))

    def restore(self) -> list[tuple[object, str, object]]:
        """Put every original back; returns the (owner, attribute, original) list."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return patches

    def _columns(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return name, parent, dur

    def aggregate(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds ``s`` and ``self_s`` for one pass.

        ``s`` sums only the outermost span of each name, so a function that
        re-enters itself is not counted twice.
        """
        name, parent, dur = self._columns()
        n = len(name)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - covered
        outermost = np.ones(n, dtype=bool)
        anc = parent.copy()
        live = np.nonzero(anc >= 0)[0]
        while live.size:
            outermost[live[name[anc[live]] == name[live]]] = False
            anc[live] = parent[anc[live]]
            live = live[anc[live] >= 0]
        mine = np.frombuffer(self.pass_id, dtype=np.int16) == pass_id
        k = len(self.names)
        calls = np.bincount(name[mine], minlength=k)
        incl = np.bincount(name[mine & outermost], weights=dur[mine & outermost], minlength=k)
        own = np.bincount(name[mine], weights=self_ns[mine], minlength=k)
        return {
            label: {"calls": int(calls[i]), "s": incl[i] * 1e-9, "self_s": own[i] * 1e-9}
            for i, label in enumerate(self.names)
        }

    def child_count(self, pass_id: int, parent_label: str, child_label: str) -> int:
        """Spans named ``child_label`` whose direct parent is named ``parent_label``."""
        if parent_label not in self._ids or child_label not in self._ids:
            return 0
        name, parent, _ = self._columns()
        mine = np.frombuffer(self.pass_id, dtype=np.int16) == pass_id
        sel = mine & (name == self._ids[child_label]) & (parent >= 0)
        return int(np.count_nonzero(name[parent[sel]] == self._ids[parent_label]))

    def layer_metrics(self, pass_id: int) -> dict[str, float]:
        """The per-layer metrics of one traced pass, named ``<module>.<function>.<quantity>``."""
        agg = self.aggregate(pass_id)
        counts = self.counts.get(pass_id, {})
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

        def get(label, field):
            return agg.get(label, zero)[field]

        def ratio(num, den):
            return num / den if den else 0.0

        elements = counts.get("profiles.delta_r.elements", 0) + counts.get("profiles.delta_theta.elements", 0)
        root = agg[ROOT]
        return {
            "ifs.monte_carlo.self_s": get("ifs.monte_carlo", "self_s"),
            "ifs.run_ifs.calls": get("ifs.run_ifs", "calls"),
            "ifs.run_ifs.self_s": get("ifs.run_ifs", "self_s"),
            "ifs.bernoulli_sequence.calls": get("ifs.bernoulli_sequence", "calls"),
            "ifs.bernoulli_sequence.s": get("ifs.bernoulli_sequence", "s"),
            "ifs.steps": counts.get("ifs.steps", 0),
            "ifs.ns_per_step": ratio(get("ifs.run_ifs", "s") * 1e9, counts.get("ifs.steps", 0)),
            "profiles.delta_r.calls": get("profiles.delta_r", "calls"),
            "profiles.delta_r.elements": counts.get("profiles.delta_r.elements", 0),
            "profiles.delta_r.self_s": get("profiles.delta_r", "self_s"),
            "profiles.delta_theta.calls": get("profiles.delta_theta", "calls"),
            "profiles.delta_theta.elements": counts.get("profiles.delta_theta.elements", 0),
            "profiles.delta_theta.self_s": get("profiles.delta_theta", "self_s"),
            "profiles.elements_per_call": ratio(
                elements, get("profiles.delta_r", "calls") + get("profiles.delta_theta", "calls")
            ),
            "planar.apply_f0.calls": get("planar.apply_f0", "calls"),
            "planar.apply_f0.self_s": get("planar.apply_f0", "self_s"),
            "planar.apply_f1.calls": get("planar.apply_f1", "calls"),
            "planar.apply_f1.self_s": get("planar.apply_f1", "self_s"),
            "planar.inverse_f0.calls": get("planar.inverse_f0", "calls"),
            "planar.inverse_f0.self_s": get("planar.inverse_f0", "self_s"),
            "planar.composition_radial_gain.s": get("planar.composition_radial_gain", "s"),
            "circle.angles_created": get("circle.Angle", "calls"),
            "circle.monotone_circle_inverse.s": get("circle.monotone_circle_inverse", "s"),
            "circle.lift_evals_per_inverse": ratio(
                self.child_count(pass_id, "circle.monotone_circle_inverse", "profiles.lift"),
                counts.get("circle.inverses_found", 0),
            ),
            "highdim.apply_h_k.calls": get("highdim.apply_h_k", "calls"),
            "highdim.apply_h_k.self_s": get("highdim.apply_h_k", "self_s"),
            "highdim.apply_j_k.self_s": get("highdim.apply_j_k", "self_s"),
            "highdim.robust_norm.calls": get("highdim.robust_norm", "calls"),
            "highdim.robust_norm.s": get("highdim.robust_norm", "s"),
            "highdim.check_cone_condition.s": get("highdim.check_cone_condition", "s"),
            "highdim.cone_samples": counts.get("highdim.cone_samples", 0),
            "dynamics.iterate.calls": get("dynamics.iterate", "calls"),
            "dynamics.iterate.steps": counts.get("dynamics.iterate.steps", 0),
            "dynamics.iterate.self_s": get("dynamics.iterate", "self_s"),
            "dynamics.iterate.early_stops": counts.get("dynamics.iterate.early_stops", 0),
            "dynamics.classify_orbit.s": get("dynamics.classify_orbit", "s"),
            "dynamics.detect_trap_entry.s": get("dynamics.detect_trap_entry", "s"),
            "cli.main.s": get("cli.main", "s"),
            "cli.main.self_s": get("cli.main", "self_s"),
            "trace.spans": sum(a["calls"] for a in agg.values()),
            "trace.unaccounted_share": ratio(root["self_s"], root["s"]),
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )
