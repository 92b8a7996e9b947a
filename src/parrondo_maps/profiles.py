"""Increment profiles defining the alternating cylinder maps.

A map of the cylinder (log-radius, angle) is specified here by two circle
functions: the radial increment ``delta_r(theta)`` and the angular drift
``delta_theta(theta)``.  The radial increment is a piecewise-linear tent that
equals ``a - 1`` outside a slow arc of half width ``w`` around 0 and dips to
``-1`` at 0; its strict negativity region is the narrower arc of half width
``w / a``.  The drift is an even bump of amplitude ``d`` vanishing only at 0,
which makes 0 the unique angular fixed point, in one of two shapes:

* the raised cosine ``d (1 - cos 2 pi theta) / 2`` (the default), whose lift
  ``theta -> theta + delta_theta(theta)`` is strictly increasing whenever
  ``d < 1/pi``.  It is quadratically tangent at 0, so a trapped angle closes
  in algebraically, like ``1 / (d pi^2 n)``;
* the piecewise-linear tent ``2 d dist(theta, 0)``, whose lift is strictly
  increasing whenever ``d < 1/2``.  It crosses 0 transversally, so a trapped
  angle closes in geometrically, by the factor ``1 - 2 d`` per step.

Factories validate parameter ranges; the dataclasses themselves accept any
numbers so that out-of-range configurations can still be fed to
``validate_profiles`` and reported as failed checks rather than exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circle import Angle, CircleInterval, _dist_to_zero, _float_turns, _mod1

__all__ = [
    "AngularProfile",
    "AngularShape",
    "CheckResult",
    "RadialProfile",
    "ValidationReport",
    "default_profiles",
    "make_angular_profile",
    "make_radial_profile",
    "trapping_interval",
    "validate_profiles",
]

TWO_PI = 2.0 * math.pi

DEFAULT_A = 5.0
DEFAULT_W = 0.125
DEFAULT_D = 0.25


class AngularShape(str, Enum):
    RAISED_COSINE = "raised_cosine"
    PIECEWISE_LINEAR = "piecewise_linear"


# Lipschitz constant of each drift shape per unit amplitude.  The lift has
# slope at least 1 - factor * d, so it is strictly increasing iff d < 1/factor.
DRIFT_LIPSCHITZ_FACTOR = {
    AngularShape.RAISED_COSINE: math.pi,
    AngularShape.PIECEWISE_LINEAR: 2.0,
}


@dataclass(frozen=True)
class RadialProfile:
    """Radial increment as a function of angle (tent shape).

    ``delta_r`` equals ``a - 1`` wherever the distance to 0 is at least ``w``
    and interpolates linearly down to ``-1`` at 0, so it is negative exactly
    on the open arc of half width ``w / a``.
    """

    a: float
    w: float

    def delta_r(self, theta):
        """The increment ``a * slow_arc_fraction(theta) - 1`` at ``theta``."""
        # A plain float, one orbit step, skips numpy; its test keeps w = 0 from dividing.
        if isinstance(theta, float):
            t = theta % 1.0
            dist = t if t <= 0.5 else 1.0 - t
            if dist >= self.w:
                return self.a - 1.0
            return self.a * (dist / self.w) - 1.0
        # Past the arc the fraction is exactly 1.0: the float branch, with no overflow.
        return self.a * self.slow_arc_fraction(theta) - 1.0

    def slow_arc_fraction(self, theta, out=None):
        """``min(dist(theta, 0), w) / w``, the part of ``delta_r`` that does not
        depend on ``a``: 0 at 0, rising linearly to exactly 1.0 at the edge of
        the slow arc and past it.  An array ``theta`` may write it through
        ``out``, another array than ``theta``, with one array allocated for
        the distance's ``1 - t``."""
        if out is theta:
            raise ValueError("out must be another array than theta")
        return np.divide(np.minimum(_dist_to_zero(theta, out), self.w, out=out), self.w, out=out)


@dataclass(frozen=True)
class AngularProfile:
    """Angular drift of amplitude ``d``: one even bump, zero only at 0.

    ``shape`` picks the formula: ``d * (1 - cos(2 pi theta)) / 2`` for the
    raised cosine, ``2 * d * dist(theta, 0)`` for the piecewise-linear tent.
    Both peak at ``d`` on the antipode.  ``w_ref`` records the paired radial
    profile's arc half width; the factory caps ``d`` by the gap
    ``1/2 - 2 * w_ref`` so images of the slow arc cannot reach the interior of
    its half-turn translate.
    """

    d: float
    w_ref: float
    shape: AngularShape = AngularShape.RAISED_COSINE

    def __post_init__(self):
        object.__setattr__(self, "shape", AngularShape(self.shape))

    def delta_theta(self, theta):
        """The drift at ``theta``.  The constants are Python floats, which are
        weak under NEP 50, so a float16 or float32 angle gives a drift of its
        own dtype, and an integer one float64."""
        # An orbit step's float on the raised cosine goes first.  A str enum equals its value: faster than a lookup.
        if isinstance(theta, float) and self.shape == "raised_cosine":
            return 0.5 * self.d * (1.0 - math.cos(TWO_PI * (theta % 1.0)))
        if self.shape == "piecewise_linear":
            # In place: an array dist is new, and a scalar stays the type it was.
            dist = _dist_to_zero(theta)
            dist *= 2.0 * self.d
            return dist
        return 0.5 * self.d * (1.0 - np.cos(TWO_PI * _mod1(_float_turns(theta))))

    def lift(self, x):
        """Lift of ``theta -> theta + delta_theta(theta)``; degree one by construction."""
        return x + self.delta_theta(x)

    @property
    def lift_increasing(self) -> bool:
        """Whether the lift is strictly increasing: ``|d| < 1/factor`` for the shape."""
        return abs(self.d) < 1.0 / DRIFT_LIPSCHITZ_FACTOR[self.shape]


def make_radial_profile(a: float, w: float) -> RadialProfile:
    """Validated tent profile; requires a > 4 and 0 < w < 1/4."""
    if not a > 4.0:
        raise ValueError(f"expansion a must exceed 4, got {a}")
    if not 0.0 < w < 0.25:
        raise ValueError(f"arc half width w must lie in (0, 1/4) turns, got {w}")
    return RadialProfile(float(a), float(w))


def make_angular_profile(
    d: float, w_ref: float, shape: AngularShape = AngularShape.RAISED_COSINE
) -> AngularProfile:
    """Validated drift; requires 0 < d <= 1/2 - 2*w_ref, w_ref > 0 and d below
    the shape's monotonicity bound (1/pi for the raised cosine, 1/2 for the tent)."""
    ap = AngularProfile(float(d), float(w_ref), shape)
    if not d > 0.0:
        raise ValueError(f"drift amplitude d must be positive, got {d}")
    # The monotonicity bound is checked first: a drift that destroys the
    # homeomorphism is a worse defect than one that merely overshoots the gap.
    if not ap.lift_increasing:
        raise ValueError(
            f"drift amplitude {d} >= {1.0 / DRIFT_LIPSCHITZ_FACTOR[ap.shape]:.6g} for the "
            f"{ap.shape.value} drift; the angular lift would not be strictly increasing"
        )
    if not w_ref > 0.0:
        raise ValueError(f"reference arc half width w_ref must be positive, got {w_ref}")
    if d > 0.5 - 2.0 * w_ref:
        raise ValueError(
            f"drift amplitude {d} exceeds the gap 1/2 - 2*w = {0.5 - 2.0 * w_ref}"
        )
    return ap


def default_profiles(
    a: float = DEFAULT_A, w: float = DEFAULT_W, d: float = DEFAULT_D
) -> tuple[RadialProfile, AngularProfile]:
    """Validated profile pair; the defaults give the +4 expansion / -1 dip setup
    with the raised-cosine drift."""
    rp = make_radial_profile(a, w)
    return rp, make_angular_profile(d, w_ref=w)


def trapping_interval(rp: RadialProfile) -> CircleInterval:
    """The open arc J on which ``delta_r`` is strictly negative (half width w/a)."""
    return CircleInterval(Angle(0.0), rp.w / rp.a)


@dataclass(frozen=True)
class CheckResult:
    code: str
    description: str
    passed: bool
    witness: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, code: str) -> CheckResult:
        for c in self.checks:
            if c.code == code:
                return c
        raise KeyError(code)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate_profiles(
    rp: RadialProfile,
    ap: AngularProfile,
    require_even: bool = False,
) -> ValidationReport:
    """Decide the five structural conditions on a profile pair.

    The profiles are fixed formulas, so each condition is a closed-form test
    of ``(a, w, d, shape)``, and a non-finite parameter fails every check
    that reads it.  Failures are reported as data, each with a witness: an
    angle in [0, 1) where the condition fails (C5 reports ``w``).  Nothing
    raises.  ``require_even`` adds the evenness check needed by the axially
    symmetric construction.
    """
    a, w, d = rp.a, rp.w, ap.d
    at_zero = rp.delta_r(0.0)
    # The tent rises from -1 at 0 to a - 1 at dist w.  For a >= 1 it is
    # negative exactly on dist < w/a; for a < 1 it is negative everywhere,
    # which is that arc only when the arc covers the circle (w/a >= 1/2).
    c2 = 0.0 < w < math.inf and 0.0 <= a < math.inf and (a >= 1.0 or a <= 2.0 * w)
    # The drift is d times a bump rising from 0 at 0 to 1 at 1/2: its peak is
    # d at the antipode (the -0.0 at 0 when d < 0).
    gap = 0.5 - 2.0 * w
    peak = max(d, 0.0 * d)
    capped = peak <= gap  # the factory's comparison, so every command gives one verdict
    c3 = 0.0 < d < math.inf and math.isfinite(w) and capped
    # The lift's least slope, 1 - factor * |d|, is at 3/4 when d > 0 and at 1/4 when d < 0.
    checks = [
        _check("C1", "radial increment constant at a-1 outside the slow arc", math.isfinite(a), 0.5),
        _check(
            "C2",
            "radial increment is -1 at 0 and lies in [-1, 0) exactly on the inner arc",
            c2,
            0.5 if at_zero == -1.0 else 0.0,
            "" if at_zero == -1.0 else f"delta_r(0) = {at_zero}",
        ),
        _check(
            "C3",
            "drift non-negative, vanishing only at 0, bounded by the arc gap",
            c3,
            0.5,
            "" if capped else f"max drift {peak} > gap {gap}",
        ),
        _check("C4", "angular lift strictly increasing", ap.lift_increasing, 0.25 if d < 0.0 else 0.75),
        _check("C5", "slow arc disjoint from its half-turn translate (w < 1/4)", w < 0.25, w),
    ]
    if require_even:
        # Both formulas read the angle only through dist(theta, 0).
        finite = math.isfinite(a) and math.isfinite(w) and math.isfinite(d)
        checks.append(
            _check("C6", "profiles even about 0 (required by the axially symmetric lift)", finite, 0.25)
        )
    return ValidationReport(tuple(checks))


def _check(code: str, description: str, passed: bool, witness: float, detail: str = "") -> CheckResult:
    return CheckResult(code, description, passed, None if passed else witness, detail)
