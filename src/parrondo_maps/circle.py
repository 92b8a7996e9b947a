"""Arithmetic on the circle R/Z, measured in turns.

Angles are kept in turns (full revolutions) rather than radians so that the
half-turn, the quarter-turn and every interval width used by the maps are
exact binary fractions; pi only enters through lift functions supplied by the
caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import NoConvergenceError, NonDisjointError, NotMonotoneError

__all__ = [
    "Angle",
    "CircleInterval",
    "circle_dist",
    "check_monotone_lift",
    "interval_gap",
    "monotone_circle_inverse",
    "wrap_turns",
]

MONOTONE_GRID = 4096
INVERSE_TOL = 1e-12
INVERSE_BUDGET = 200


def wrap_turns(x):
    """Reduce turns to the fundamental domain [0, 1); elementwise on arrays.

    ``x % 1.0`` alone can round to exactly 1.0 for tiny negative inputs, so
    that value is folded back to 0.
    """
    t = x % 1.0
    if isinstance(t, np.ndarray):
        return np.where(t == 1.0, 0.0, t)
    return 0.0 if t == 1.0 else t


def _as_turns(x):
    return x.value if isinstance(x, Angle) else x


def _dist_to_zero(theta):
    """Distance from a circle point to 0, in [0, 1/2] turns; elementwise on arrays."""
    t = _as_turns(theta) % 1.0
    if isinstance(t, np.ndarray):
        return np.minimum(t, 1.0 - t)
    return t if t <= 0.5 else 1.0 - t


def circle_dist(x, y=0.0):
    """Shortest distance between two circle points, in [0, 1/2] turns.

    Accepts floats, Angle instances or numpy arrays (elementwise).  Both
    arguments are normalized before differencing, which keeps the result
    exactly symmetric in its arguments.
    """
    return _dist_to_zero(abs(wrap_turns(_as_turns(x)) - wrap_turns(_as_turns(y))))


@dataclass(frozen=True)
class Angle:
    """A point of R/Z; the stored value is always normalized to [0, 1) turns."""

    value: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "value", wrap_turns(float(self.value)))

    def __float__(self) -> float:
        return self.value

    def __add__(self, other) -> "Angle":
        return Angle(self.value + _as_turns(other))

    def __sub__(self, other) -> "Angle":
        return Angle(self.value - _as_turns(other))

    def dist(self, other) -> float:
        return circle_dist(self.value, _as_turns(other))


@dataclass(frozen=True)
class CircleInterval:
    """Open arc of points strictly closer than ``half_width`` to ``center``."""

    center: Angle
    half_width: float

    def __post_init__(self):
        if not isinstance(self.center, Angle):
            object.__setattr__(self, "center", Angle(self.center))
        if not 0.0 < self.half_width < 0.5:
            raise ValueError(
                f"half_width must lie in (0, 1/2) turns, got {self.half_width}"
            )

    def contains(self, theta):
        """Strict membership; elementwise on arrays."""
        return circle_dist(theta, self.center.value) < self.half_width

    def translate(self, shift) -> "CircleInterval":
        return CircleInterval(self.center + shift, self.half_width)


def interval_gap(interval: CircleInterval) -> float:
    """Distance between an arc and its half-turn translate: 1/2 - 2*half_width.

    Raises NonDisjointError when the arc meets its translate, i.e. when
    half_width >= 1/4.
    """
    if interval.half_width >= 0.25:
        raise NonDisjointError(
            f"arc of half width {interval.half_width} overlaps its half-turn translate"
        )
    return 0.5 - 2.0 * interval.half_width


def check_monotone_lift(
    lift: Callable[[float], float],
    knots: Iterable[float] = (),
    grid_n: int = MONOTONE_GRID,
) -> None:
    """Raise NotMonotoneError unless the lift looks strictly increasing and degree one.

    Samples ``grid_n + 1`` points of [0, 1] plus the supplied knot angles, so a
    piecewise-smooth lift whose breakpoints are listed is covered exactly.
    """
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    knots = tuple(knots)
    if knots:
        xs = np.unique(np.concatenate([xs, np.asarray(knots, float) % 1.0]))
    ys = np.array([lift(float(x)) for x in xs])
    diffs = np.diff(ys)
    if np.any(diffs <= 0.0):
        i = int(np.argmin(diffs))
        raise NotMonotoneError(f"lift is not strictly increasing near x = {xs[i]!r}")
    if abs(ys[-1] - (ys[0] + 1.0)) > 1e-9:
        raise NotMonotoneError("lift is not a degree-one circle map: L(1) != L(0) + 1")


def monotone_circle_inverse(
    lift: Callable[[float], float],
    y,
    tol: float = INVERSE_TOL,
    *,
    max_iter: int = INVERSE_BUDGET,
    precheck: bool = True,
) -> Angle:
    """Invert a strictly increasing degree-one lift at the circle point ``y``.

    Returns an Angle ``x`` with ``circle_dist(lift(x) mod 1, y) <= tol``.  The
    root of ``g(x) = lift(x) - target`` stays bracketed in a shrinking
    subinterval of [0, 1].  Each step is a false-position (secant) step inside
    the bracket, with the Anderson-Bjorck rescaling that keeps one end from
    sticking, unless the last three evaluations have not halved the bracket:
    then it bisects.  So any four consecutive evaluations at least halve the
    bracket, whatever the lift.  The first step, from all of [0, 1],
    bisects; on the piecewise-linear drift it lands on the kink at 1/2 and
    leaves a bracket on which the lift is linear.  ``g(1)`` is taken as
    ``g(0) + 1``, the degree-one identity, so ``lift`` is evaluated once per
    step after ``lift(0)``.  ``precheck=False`` skips the sampled monotonicity
    sweep for lifts already known to be monotone (e.g. validated drift
    profiles).
    """
    if precheck:
        check_monotone_lift(lift)
    base = lift(0.0)
    # wrap_turns keeps the target below base + 1, so g(1) > 0.
    target = base + wrap_turns(_as_turns(y) - base)
    lo, hi = 0.0, 1.0
    g_lo, g_hi = base - target, base + 1.0 - target
    if g_lo >= -tol:
        return Angle(0.0)
    moved = 0  # the end the last step replaced: -1 for lo, +1 for hi
    w1 = w2 = w3 = 1.0  # bracket widths before the last three evaluations
    for _ in range(max_iter):
        x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        if hi - lo > 0.5 * w3 or not lo < x < hi:
            x = 0.5 * (lo + hi)
        g = lift(x) - target
        if abs(g) <= tol:
            return Angle(x)
        w1, w2, w3 = hi - lo, w1, w2
        if g < 0.0:
            if moved < 0:
                m = 1.0 - g / g_lo
                g_hi *= m if m > 0.0 else 0.5
            lo, g_lo, moved = x, g, -1
        else:
            if moved > 0:
                m = 1.0 - g / g_hi
                g_lo *= m if m > 0.0 else 0.5
            hi, g_hi, moved = x, g, 1
    raise NoConvergenceError(
        f"inverse did not reach tol={tol} within {max_iter} iterations"
    )
