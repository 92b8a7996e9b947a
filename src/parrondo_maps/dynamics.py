"""Orbit iteration, convergence classification and trapping-arc entry detection.

Classification works on per-step radial gains rather than on raw radii: the
gains are scale-free in log-radius, so a trailing-window mean below ``-tol``
signals attraction to the origin and one above ``tol`` signals repulsion.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from math import acos, atan2, hypot, inf, isfinite, log
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


def _cartesian_orbit(step: Callable, start, n_steps: int, bound: float):
    """Log-radii, angles and point rows of a Cartesian orbit, on Python floats.

    Each point is observed once: its log-norm, from ``math.hypot`` of its
    coordinates as ``highdim.robust_norm`` takes it, and its natural angle,
    planar for k = 2 and polar for k >= 3.  The loop stops before a step once
    a log-radius leaves ``[-bound, bound]`` or ``n_steps`` steps are done, so a
    start outside the bound is never stepped.
    """
    x = np.asarray(start, dtype=float)
    if x.ndim != 1 or not x.size:
        raise ValueError(f"a Cartesian start must be one point, an array of shape (k,), got shape {x.shape}")
    vals = x.tolist()
    if not all(map(isfinite, vals)):
        raise ValueError(f"a Cartesian start needs finite coordinates, got {vals}")
    k = len(vals)
    rows, rs, thetas = [vals], [], []
    for i in range(n_steps + 1):
        norm = hypot(*vals)
        r = log(norm) if norm > 0.0 else -inf
        if k == 2:
            theta = (atan2(vals[1], vals[0]) / TWO_PI) % 1.0
        elif 0.0 < norm < inf:
            c = vals[-1] / norm
            theta = acos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c) / TWO_PI
        else:
            theta = 0.0
        rs.append(r)
        thetas.append(theta)
        if i == n_steps or not abs(r) <= bound:
            break
        x = step(x)
        # A new list, which a step that mutates its input cannot change.
        vals = x.tolist() if isinstance(x, np.ndarray) else [float(v) for v in x]
        rows.append(vals)
    if set(map(len, rows)) != {k}:
        raise ValueError(f"a step changed the dimension of the point from {k}")
    cart = np.fromiter(chain.from_iterable(rows), float, len(rows) * k).reshape(len(rows), k)
    return rs, thetas, cart


def iterate(
    step: Callable,
    start,
    n_steps: int,
    *,
    trap: CircleInterval | None = None,
    r_escape: float = R_ESCAPE,
) -> OrbitTrace:
    """Run ``n_steps`` of a map and record the full trace.

    ``start`` may be a CylPoint (cylinder maps) or one nonzero array-like
    point of shape (k,) with finite coordinates (Cartesian maps; gains are
    log-norm differences).  ``r_escape`` must be positive.  A start whose
    log-radius magnitude already exceeds ``r_escape`` is rejected with
    ``ValueError``.  Iteration stops early once the log-radius is non-finite
    (a step reached the origin) or its magnitude exceeds ``r_escape``.  When
    ``trap`` is given, the entry step into the trapping arc is recorded from
    the traced angles, for Cartesian orbits too.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not r_escape > 0.0:
        raise ValueError(f"r_escape must be positive, got {r_escape}")
    # |r| <= bound holds exactly when r is finite and |r| <= r_escape.
    bound = min(r_escape, sys.float_info.max)
    cart = None
    if isinstance(start, CylPoint):
        x = start
        rs, thetas = [x.r], [x.theta.value]
        if abs(x.r) <= bound:
            for _ in range(n_steps):
                x = step(x)
                r = x.r
                rs.append(r)
                thetas.append(x.theta.value)
                if not abs(r) <= bound:
                    break
    else:
        rs, thetas, cart = _cartesian_orbit(step, start, n_steps, bound)
    r = rs[0]
    if r == -inf:
        raise OriginNotRepresentableError("Cartesian orbits must start off the origin")
    if not abs(r) <= bound:
        raise ValueError(f"start log-radius {r:g} already exceeds the escape bound {r_escape:g} in magnitude")
    rs = np.array(rs)
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
    undecided; the mean itself is returned as the rate estimate.  ``window``
    must be at least 1 and ``tol`` finite and non-negative.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if not 0.0 <= tol < inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if window > len(trace.gains):
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
