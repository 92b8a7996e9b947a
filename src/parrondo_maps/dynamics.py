"""Orbit iteration, convergence classification and trapping-arc entry detection.

Classification works on per-step radial gains rather than on raw radii: the
gains are scale-free in log-radius, so a trailing-window mean below ``-tol``
signals attraction to the origin and one above ``tol`` signals repulsion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import inf
from typing import Callable, NamedTuple

import numpy as np

from .circle import CircleInterval, _is_count
from .highdim import _cartesian_orbit, robust_norm  # noqa: F401  perfbench/test_pb_harness.py expects robust_norm patched here
from .planar import CylPoint

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


@dataclass(frozen=True, eq=False)
class OrbitTrace:
    """A finite orbit with its per-step radial gains.

    ``rs`` holds log-radii for steps 0..n; ``gains`` their n differences;
    ``thetas`` the angle of each point in turns (the cylinder angle, or the
    polar angle of a Cartesian point).  ``entered_trap_at`` is the step from
    which the orbit stays in the trapping arc ``iterate`` was given, if any.
    """

    rs: np.ndarray
    gains: np.ndarray
    thetas: np.ndarray
    entered_trap_at: int | None = None

    @property
    def n_steps(self) -> int:
        return len(self.gains)


def iterate(step: Callable, start, n_steps: int, *, trap: CircleInterval | None = None) -> OrbitTrace:
    """Run ``n_steps`` (an integer of at least 1) of a map and record the full trace.

    ``start`` may be a CylPoint (cylinder maps) or one nonzero array-like
    point of shape (k,), k >= 3, with finite coordinates (Cartesian maps;
    gains are log-norm differences).  A start whose log-radius magnitude
    already exceeds ``R_ESCAPE`` is rejected with ``ValueError``.  Iteration
    stops early once the log-radius is non-finite (a step reached the origin
    or overflowed) or its magnitude exceeds ``R_ESCAPE``.  When ``trap`` is
    given, the entry step into the trapping arc is recorded from the traced
    angles, for Cartesian orbits too.
    """
    if not _is_count(n_steps, 1):
        raise ValueError(f"n_steps must be at least 1 and an integer, got {n_steps}")
    if isinstance(start, CylPoint):
        x = start

        def observe(p):
            return p.r, p.theta.value
    else:
        x, observe = _cartesian_orbit(start)

    # The loop stops before a step once |r| <= R_ESCAPE fails, as it does for
    # a non-finite r, so a start outside the bound is never stepped.
    rs, thetas = [], []
    for i in range(n_steps + 1):
        r, theta = observe(x)
        rs.append(r)
        thetas.append(theta)
        if i == n_steps or not abs(r) <= R_ESCAPE:
            break
        x = step(x)
    r = rs[0]
    if r == -inf:
        raise ValueError("Cartesian orbits must start off the origin")
    if not abs(r) <= R_ESCAPE:
        raise ValueError(f"start log-radius {r:g} already exceeds the escape bound {R_ESCAPE:g} in magnitude")
    rs = np.array(rs)
    trace = OrbitTrace(rs=rs, gains=np.diff(rs), thetas=np.array(thetas))
    return trace if trap is None else replace(trace, entered_trap_at=detect_trap_entry(trace, trap))


def classify_orbit(
    trace: OrbitTrace,
    window: int = DEFAULT_WINDOW,
    tol: float = DEFAULT_TOL,
) -> Classification:
    """Classify by the trailing-window mean gain.

    Mean below ``-tol`` is attraction, above ``tol`` repulsion, in between
    undecided; the mean itself is returned as the rate estimate.  ``window``
    must be an integer of at least 1 and ``tol`` finite and non-negative.
    """
    if not _is_count(window, 1):
        raise ValueError(f"window must be at least 1, got {window}")
    if not 0.0 <= tol < inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if window > len(trace.gains):
        raise ValueError(f"window {window} exceeds the {len(trace.gains)}-step trace")
    rate = float(np.mean(trace.gains[-window:]))
    if rate < -tol:
        label = OrbitClass.ATTRACTED
    elif rate > tol:
        label = OrbitClass.REPELLED
    else:
        label = OrbitClass.UNDECIDED
    return Classification(label, rate)


def detect_trap_entry(trace: OrbitTrace, trap: CircleInterval) -> int | None:
    """Least step index from which every recorded angle stays in the trapping arc."""
    member = trap.contains(trace.thetas)
    if not member[-1]:
        return None
    outside = np.nonzero(~member)[0]
    return 0 if outside.size == 0 else int(outside[-1] + 1)
