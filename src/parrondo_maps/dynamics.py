"""Orbit iteration, convergence classification and trapping-arc entry detection.

Classification works on per-step radial gains rather than on raw radii: the
gains are scale-free in log-radius, so a trailing-window mean below ``-tol``
signals attraction to the origin and one above ``tol`` signals repulsion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .circle import Angle, CircleInterval
from .errors import OriginNotRepresentableError, WindowTooLargeError
from .highdim import robust_norm
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

    @property
    def is_planar(self) -> bool:
        return self.cart is None

    @property
    def points(self):
        """Recorded points: CylPoint list for planar traces, row arrays otherwise."""
        if self.is_planar:
            return [CylPoint(float(r), Angle(float(t))) for r, t in zip(self.rs, self.thetas)]
        return list(self.cart)


def _cart_angle(x: np.ndarray, norm: float) -> float:
    if x.shape[0] == 2:
        return (math.atan2(x[1], x[0]) / TWO_PI) % 1.0
    if norm == 0.0 or not math.isfinite(norm):
        return 0.0
    return math.acos(max(-1.0, min(1.0, x[-1] / norm))) / TWO_PI


# (log-radius, angle) of each orbit point: stored fields on the cylinder,
# log-norm and natural angle in Cartesian coordinates.
_observe_cyl = attrgetter("r", "theta.value")


def _observe_cart(x: np.ndarray) -> tuple[float, float]:
    norm = robust_norm(x)
    return (math.log(norm) if norm > 0.0 else -math.inf), _cart_angle(x, norm)


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
    (Cartesian maps; gains are log-norm differences).  A start whose
    log-radius magnitude already exceeds ``r_escape`` is rejected with
    ``ValueError``.  Iteration stops early once the log-radius is non-finite
    (a step reached the origin) or its magnitude exceeds ``r_escape``.  When
    ``trap`` is given, the entry step into the trapping arc is recorded from
    the traced angles, for Cartesian orbits too.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if isinstance(start, CylPoint):
        x, observe, cart = start, _observe_cyl, None
    else:
        x, observe = np.asarray(start, dtype=float), _observe_cart
        cart = np.empty((n_steps + 1, x.shape[0]))
        cart[0] = x
    rs = np.empty(n_steps + 1)
    ths = np.empty(n_steps + 1)
    rs[0], ths[0] = observe(x)
    if rs[0] == -math.inf:
        raise OriginNotRepresentableError("Cartesian orbits must start off the origin")
    if not abs(rs[0]) <= r_escape:
        raise ValueError(f"start log-radius {rs[0]:g} already exceeds the escape bound {r_escape:g} in magnitude")
    n_done = n_steps
    for i in range(1, n_steps + 1):
        x = step(x)
        r, ths[i] = observe(x)
        rs[i] = r
        if cart is not None:
            cart[i] = x
        if not math.isfinite(r) or abs(r) > r_escape:
            n_done = i
            break
    sl = slice(0, n_done + 1)
    trace = OrbitTrace(
        rs=rs[sl], gains=np.diff(rs[sl]), thetas=ths[sl], cart=None if cart is None else cart[sl]
    )
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
