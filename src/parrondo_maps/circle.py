"""Arithmetic on the circle R/Z, measured in turns.

Angles are kept in turns (full revolutions) rather than radians so that the
half-turn, the quarter-turn and every interval width used by the maps are
exact binary fractions; pi only enters through lift functions supplied by the
caller.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Angle",
    "CircleInterval",
    "circle_dist",
    "monotone_circle_inverse",
    "wrap_turns",
]

INVERSE_TOL = 1e-12
INVERSE_BUDGET = 200


def _is_count(x, least: int) -> bool:
    """Whether ``x`` is an integer (numpy's included, ``bool`` not) of at least ``least``."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= least


def _mod1(x, out=None):
    """``x % 1.0``: numpy's and Python's remainder, computed as ``x - floor(x)`` on arrays.

    The two agree bit for bit on every finite double, sign of zero included.
    For ``x >= 0`` both are exact.  For ``x < 0`` both round the one exact
    value ``x - trunc(x) + 1`` once: ``%`` adds 1 to the exact ``fmod``, and
    ``floor(x)`` is exactly ``trunc(x) - 1`` unless ``x`` is an integer, where
    both give +0.  The floor form is several times faster than numpy's ``%``.

    An array ``x`` may write through ``out``, which holds the floor and then
    the result, so ``out`` must be another array than ``x``.  ``out`` goes to
    both ufuncs positionally, which numpy parses faster than a keyword.  The
    lock-step engine runs the same two ufuncs inline, once per step, on each
    lane's new angle ``theta + drift`` alone: it reads f1's drift at
    ``theta`` through the half-turn identity (see ``ifs``), so no shifted
    angle is reduced.  The result has the dtype numpy gives ``x - floor(x)``,
    so a float array keeps its own; an integer array keeps its own from numpy
    2.3 on, and before took the narrowest float holding it (float16 for
    int8).  This path tests no dtype: each public caller gives float64 for
    integer turns, and refuses bool turns, through ``_float_turns``.
    """
    if isinstance(x, np.ndarray):
        if out is x:
            raise ValueError("out must be another array than x: the floor would overwrite x")
        return np.subtract(x, np.floor(x, out), out)
    return x % 1.0


def _float_turns(x):
    """An integer array as float64 turns, anything else as it is (see ``_mod1``).
    A bool array is no number of turns, so it raises ``ValueError``."""
    if isinstance(x, np.ndarray):
        if x.dtype.kind == "b":
            raise ValueError(f"turns must be numbers, got a bool array {x!r}")
        if x.dtype.kind in "iu":
            return x.astype(np.float64)
    return x


def wrap_turns(x):
    """Reduce turns to the fundamental domain [0, 1); elementwise on arrays.

    ``x % 1.0`` alone can round to exactly 1.0 for tiny negative inputs, so
    that value is folded back to 0.
    """
    t = _mod1(_float_turns(x))
    if isinstance(t, np.ndarray):
        return np.where(t == 1.0, 0.0, t)
    return 0.0 if t == 1.0 else t


def _as_turns(x):
    return x.value if isinstance(x, Angle) else x


def _dist_to_zero(theta, out=None):
    """Distance from a circle point to 0, in [0, 1/2] turns; elementwise on arrays,
    which may write through ``out`` as ``_mod1`` does."""
    t = _mod1(_float_turns(theta), out)
    if isinstance(t, np.ndarray):
        return np.minimum(t, 1.0 - t, out=out)
    return t if t <= 0.5 else 1.0 - t


def circle_dist(x, y=0.0):
    """Shortest distance between two circle points, in [0, 1/2] turns.

    Accepts floats, Angle instances or numpy arrays (elementwise).  Both
    arguments are normalized before differencing, which keeps the result
    exactly symmetric in its arguments.
    """
    return _dist_to_zero(abs(wrap_turns(_as_turns(x)) - wrap_turns(_as_turns(y))))


@dataclass(frozen=True, slots=True, init=False)
class Angle:
    """A point of R/Z; the stored value is always normalized to [0, 1) turns.
    NaN and infinities name no point, so they raise ``ValueError``."""

    value: float = 0.0

    def __init__(self, value=0.0):
        # Every construction runs ``__post_init__``, the hook perfbench's
        # tracer wraps to count the angles made.
        self.__post_init__(value)

    def __post_init__(self, value):
        # ``wrap_turns`` inline: a finite value reduces into [0, 1], and NaN
        # or an infinity reduces to NaN, so one comparison guards both cases.
        value = float(value)
        t = value % 1.0
        if not t < 1.0:
            if t != 1.0:
                raise ValueError(f"an angle must be a finite number of turns, got {value}")
            t = 0.0
        _set_angle_value(self, t)

    def __float__(self) -> float:
        return self.value

    def __add__(self, other) -> "Angle":
        return Angle(self.value + _as_turns(other))


# The slot's own setter: it writes past the frozen ``__setattr__``.
_set_angle_value = Angle.value.__set__


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


def monotone_circle_inverse(lift: Callable[[float], float], y) -> Angle:
    """Invert a strictly increasing degree-one lift at the circle point ``y``.

    The caller guarantees both properties (degree one: ``lift(x + 1) =
    lift(x) + 1``); nothing here checks them.  A validated drift profile's
    ``lift`` has them.

    Returns an Angle ``x`` with ``circle_dist(lift(x) mod 1, y) <=
    INVERSE_TOL`` within ``INVERSE_BUDGET`` steps; both constants are read
    at call time.  The root of ``g(x) = lift(x) - target`` stays bracketed in
    a shrinking subinterval of [0, 1].  Each step is a false-position
    (secant) step inside the bracket, with the Anderson-Bjorck rescaling
    that keeps one end from sticking, unless the last three evaluations have
    not halved the bracket: then it bisects.  So any four consecutive
    evaluations at least halve the bracket, whatever the lift: 200 shrink it
    to 2^-50, and a lift of slope below 2 (a validated drift's) is then
    within ``INVERSE_TOL`` of the target anywhere inside it.  Only a lift
    that breaks the precondition runs out of budget, so that raises
    ``ValueError``, as bad input does.  The first step, from all of [0, 1],
    bisects; on the piecewise-linear drift it lands on the kink at 1/2 and
    leaves a bracket on which the lift is linear.  ``g(1)`` is taken as
    ``g(0) + 1``, the degree-one identity, so ``lift`` is evaluated once per
    step after ``lift(0)``.
    """
    tol = INVERSE_TOL
    base = lift(0.0)
    # wrap_turns keeps the target below base + 1, so g(1) > 0.
    target = base + wrap_turns(_as_turns(y) - base)
    lo, hi = 0.0, 1.0
    g_lo, g_hi = base - target, base + 1.0 - target
    if g_lo >= -tol:
        return Angle(0.0)
    moved = 0  # the end the last step replaced: -1 for lo, +1 for hi
    w1 = w2 = w3 = 1.0  # bracket widths before the last three evaluations
    for _ in range(INVERSE_BUDGET):
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
    raise ValueError(
        f"inverse did not reach tol={tol} within {INVERSE_BUDGET} iterations"
    )
