"""Orbit iteration, convergence classification and trapping-arc entry detection.

Classification works on per-step radial gains rather than on raw radii: the
gains are scale-free in log-radius, so a trailing-window mean below ``-tol``
signals attraction to the origin and one above ``tol`` signals repulsion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .circle import CircleInterval
from .errors import OriginNotRepresentableError, WindowTooLargeError
from .highdim import robust_norm  # noqa: F401  perfbench/test_pb_harness.py expects it patched here
from .planar import CylPoint
from .profiles import TWO_PI

__all__ = [
    "Classification",
    "OrbitClass",
    "OrbitTrace",
    "classify_orbit",
    "detect_trap_entry",
    "iterate",
]

DEFAULT_WINDOW = 100
DEFAULT_TOL = 1e-3
R_ESCAPE = 1e6


class OrbitClass(str, Enum):
    ATTRACTED = "attracted"
    REPELLED = "repelled"
    UNDECIDED = "undecided"


class Classification(NamedTuple):
    label: OrbitClass
    rate: float


@dataclass
class OrbitTrace:
    """A finite orbit with per-step radial gains and classification metadata.

    ``rs`` holds log-radii for steps 0..n; ``gains`` their n differences.
    Planar orbits carry ``thetas`` (turns); Cartesian orbits carry the point
    rows in ``cart`` and record the natural angle (planar angle for k = 2,
    polar angle for k >= 3) in ``thetas`` as well.
    """

    rs: np.ndarray
    gains: np.ndarray
    thetas: np.ndarray | None = None
    cart: np.ndarray | None = None
    entered_trap_at: int | None = None
    classification: OrbitClass = OrbitClass.UNDECIDED
    rate: float | None = None

    @property
    def n_steps(self) -> int:
        return len(self.gains)


def _observe_cart(x, rows: list) -> tuple[float, float]:
    """Log-norm and natural angle (planar for k = 2, polar for k >= 3) of one
    Cartesian point, on Python floats.  Appends the point's coordinates to
    ``rows`` as a new list, which a step that mutates the point cannot change.
    The norm is ``math.hypot`` of that list, which is what
    ``highdim.robust_norm`` computes for a single point.
    """
    vals = x.tolist() if isinstance(x, np.ndarray) else [float(v) for v in x]
    rows.append(vals)
    norm = math.hypot(*vals)
    r = math.log(norm) if norm > 0.0 else -math.inf
    if len(vals) == 2:
        return r, (math.atan2(vals[1], vals[0]) / TWO_PI) % 1.0
    if norm == 0.0 or not math.isfinite(norm):
        return r, 0.0
    c = vals[-1] / norm
    return r, math.acos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c) / TWO_PI


def iterate(
    step: Callable,
    start,
    n_steps: int,
    *,
    trap: CircleInterval | None = None,
    r_escape: float = R_ESCAPE,
) -> OrbitTrace:
    """Run ``n_steps`` of a map and record the full trace.

    ``start`` may be a CylPoint (cylinder maps) or a nonzero array-like point
    with finite coordinates (Cartesian maps; gains are log-norm differences).
    A start whose log-radius magnitude already exceeds ``r_escape`` is
    rejected with ``ValueError``.  Iteration stops early once the log-radius
    is non-finite (a step reached the origin) or its magnitude exceeds
    ``r_escape``.  When ``trap`` is given, the entry step into the trapping
    arc is recorded from the traced angles, for Cartesian orbits too.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if isinstance(start, CylPoint):
        x, rows = start, None
        r, theta = start.r, start.theta.value
    else:
        x, rows = np.asarray(start, dtype=float), []
        r, theta = _observe_cart(x, rows)
        if not all(map(math.isfinite, rows[0])):
            raise ValueError(f"a Cartesian start needs finite coordinates, got {rows[0]}")
    if r == -math.inf:
        raise OriginNotRepresentableError("Cartesian orbits must start off the origin")
    if not abs(r) <= r_escape:
        raise ValueError(f"start log-radius {r:g} already exceeds the escape bound {r_escape:g} in magnitude")
    rs, thetas = [r], [theta]
    for _ in range(n_steps):
        x = step(x)
        r, theta = (x.r, x.theta.value) if rows is None else _observe_cart(x, rows)
        rs.append(r)
        thetas.append(theta)
        if not math.isfinite(r) or abs(r) > r_escape:
            break
    rs = np.array(rs)
    cart = None if rows is None else np.array(rows, dtype=float)
    trace = OrbitTrace(rs=rs, gains=np.diff(rs), thetas=np.array(thetas), cart=cart)
    if trap is not None:
        trace.entered_trap_at = detect_trap_entry(trace, trap)
    return trace


def classify_orbit(
    trace: OrbitTrace,
    window: int = DEFAULT_WINDOW,
    tol: float = DEFAULT_TOL,
) -> Classification:
    """Classify by the trailing-window mean gain and stamp the trace.

    Mean below ``-tol`` is attraction, above ``tol`` repulsion, in between
    undecided; the mean itself is returned as the rate estimate.
    """
    if window >= len(trace.gains) + 1:
        raise WindowTooLargeError(
            f"window {window} exceeds the {len(trace.gains)}-step trace"
        )
    rate = float(np.mean(trace.gains[-window:]))
    if rate < -tol:
        label = OrbitClass.ATTRACTED
    elif rate > tol:
        label = OrbitClass.REPELLED
    else:
        label = OrbitClass.UNDECIDED
    trace.classification = label
    trace.rate = rate
    return Classification(label, rate)


def detect_trap_entry(trace: OrbitTrace, trap: CircleInterval) -> int | None:
    """Least step index from which every recorded angle stays in the trapping arc."""
    if trace.thetas is None:
        raise ValueError("trap detection needs a trace with recorded angles")
    member = trap.contains(trace.thetas)
    if not member[-1]:
        return None
    outside = np.nonzero(~member)[0]
    return 0 if outside.size == 0 else int(outside[-1] + 1)
