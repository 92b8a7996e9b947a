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

from .circle import Angle, CircleInterval, _as_turns, _dist_to_zero
from .errors import (
    BadExpansionError,
    BadWidthError,
    DriftTooLargeError,
    NotHomeomorphismError,
)

__all__ = [
    "AngularProfile",
    "AngularShape",
    "CheckResult",
    "RadialProfile",
    "ValidationReport",
    "default_profiles",
    "make_angular_profile",
    "make_radial_profile",
    "profiles_from_json",
    "profiles_to_json",
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
        # A plain float, one orbit step, skips the Angle and array tests.
        if isinstance(theta, float):
            t = theta % 1.0
            dist = t if t <= 0.5 else 1.0 - t
        else:
            dist = _dist_to_zero(theta)
            if isinstance(dist, np.ndarray):
                return np.where(dist >= self.w, self.a - 1.0, self.a * (dist / self.w) - 1.0)
        if dist >= self.w:
            return self.a - 1.0
        return self.a * (dist / self.w) - 1.0

    @property
    def interval(self) -> CircleInterval:
        """The slow arc I outside which ``delta_r`` is constant at ``a - 1``."""
        return CircleInterval(Angle(0.0), self.w)

    @property
    def lipschitz(self) -> float:
        """Exact Lipschitz constant of the tent: a / w."""
        return self.a / self.w

    @property
    def knots(self) -> tuple[float, ...]:
        """Breakpoints of the piecewise structure, as circle points."""
        jw = self.w / self.a
        return (0.0, jw, (-jw) % 1.0, self.w, (-self.w) % 1.0)


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
        shape = AngularShape(self.shape)
        object.__setattr__(self, "shape", shape)
        # The formula is bound once here rather than tested on every call: the
        # raised cosine keeps the class method, the tent shadows it per instance.
        if shape is AngularShape.PIECEWISE_LINEAR:
            object.__setattr__(self, "delta_theta", self._piecewise_linear_drift)

    def delta_theta(self, theta):
        if isinstance(theta, float):
            t = theta % 1.0
        else:
            t = _as_turns(theta) % 1.0
            if isinstance(t, np.ndarray):
                return 0.5 * self.d * (1.0 - np.cos(TWO_PI * t))
        return 0.5 * self.d * (1.0 - math.cos(TWO_PI * t))

    def _piecewise_linear_drift(self, theta):
        return 2.0 * self.d * _dist_to_zero(theta)

    def lift(self, x):
        """Lift of ``theta -> theta + delta_theta(theta)``; degree one by construction."""
        return x + self.delta_theta(x)

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant of the drift: pi * d (raised cosine) or 2 * d (tent)."""
        return DRIFT_LIPSCHITZ_FACTOR[self.shape] * self.d


def make_radial_profile(a: float, w: float) -> RadialProfile:
    """Validated tent profile; requires a > 4 and 0 < w < 1/4."""
    if not a > 4.0:
        raise BadExpansionError(f"expansion a must exceed 4, got {a}")
    if not 0.0 < w < 0.25:
        raise BadWidthError(f"arc half width w must lie in (0, 1/4) turns, got {w}")
    return RadialProfile(float(a), float(w))


def make_angular_profile(
    d: float, w_ref: float, shape: AngularShape = AngularShape.RAISED_COSINE
) -> AngularProfile:
    """Validated drift; requires 0 < d <= 1/2 - 2*w_ref and d below the shape's
    monotonicity bound (1/pi for the raised cosine, 1/2 for the tent)."""
    shape = AngularShape(shape)
    if not d > 0.0:
        raise ValueError(f"drift amplitude d must be positive, got {d}")
    # The monotonicity bound is checked first: a drift that destroys the
    # homeomorphism is a worse defect than one that merely overshoots the gap.
    bound = 1.0 / DRIFT_LIPSCHITZ_FACTOR[shape]
    if d >= bound:
        raise NotHomeomorphismError(
            f"drift amplitude {d} >= {bound:.6g} for the {shape.value} drift; "
            "the angular lift would not be strictly increasing"
        )
    if d > 0.5 - 2.0 * w_ref:
        raise DriftTooLargeError(
            f"drift amplitude {d} exceeds the gap 1/2 - 2*w = {0.5 - 2.0 * w_ref}"
        )
    return AngularProfile(float(d), float(w_ref), shape)


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

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "description": self.description,
            "passed": self.passed,
            "witness": self.witness,
            "detail": self.detail,
        }


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

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _first_witness(thetas: np.ndarray, bad: np.ndarray) -> float | None:
    idx = np.nonzero(bad)[0]
    return float(thetas[idx[0]]) if idx.size else None


def validate_profiles(
    rp: RadialProfile,
    ap: AngularProfile,
    grid_n: int = 4096,
    require_even: bool = False,
) -> ValidationReport:
    """Evaluate the five structural conditions on a profile pair.

    Failures are reported as data, each with a witness angle; nothing raises.
    ``require_even`` adds the evenness check needed by the axially symmetric
    construction.
    """
    a, w, d = rp.a, rp.w, ap.d
    jw = w / a if a != 0 else math.inf
    thetas = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, 1.0, grid_n, endpoint=False),
                np.asarray(rp.knots, float),
                np.asarray([0.5], float),
            ]
        )
    )
    dist = _dist_to_zero(thetas)
    dr = rp.delta_r(thetas)
    dth = ap.delta_theta(thetas)
    checks: list[CheckResult] = []

    # C1: constancy at a - 1 outside the slow arc.
    outside = dist >= w
    bad = outside & (dr != a - 1.0)
    checks.append(
        CheckResult(
            "C1",
            "radial increment constant at a-1 outside the slow arc",
            not bad.any(),
            _first_witness(thetas, bad),
        )
    )

    # C2: dip to -1 at 0, negative exactly on the inner arc J (tol 1e-12 at its edge).
    at_zero_ok = rp.delta_r(0.0) == -1.0
    bad_lower = dr < -1.0 - 1e-15
    bad_inside = (dist < jw) & (dr >= 1e-12)
    bad_outside = (dist > jw) & (dr < -1e-12)
    bad = bad_lower | bad_inside | bad_outside
    c2_witness = _first_witness(thetas, bad) if at_zero_ok else 0.0
    checks.append(
        CheckResult(
            "C2",
            "radial increment is -1 at 0 and lies in [-1, 0) exactly on the inner arc",
            at_zero_ok and not bad.any(),
            c2_witness,
            "" if at_zero_ok else f"delta_r(0) = {rp.delta_r(0.0)}",
        )
    )

    # C3: drift non-negative, zero only at 0, capped by the gap to the translate.
    gap = 0.5 - 2.0 * w
    nonneg = not (dth < 0.0).any()
    zero_only_at_zero = bool(ap.delta_theta(0.0) == 0.0) and not (
        (thetas != 0.0) & (dth <= 0.0)
    ).any()
    capped = d <= gap + 1e-12 and float(dth.max()) <= gap + 1e-12
    witness = None
    if not nonneg or not zero_only_at_zero:
        witness = _first_witness(thetas, (dth < 0.0) | ((thetas != 0.0) & (dth <= 0.0)))
    elif not capped:
        witness = float(thetas[int(np.argmax(dth))])
    checks.append(
        CheckResult(
            "C3",
            "drift non-negative, vanishing only at 0, bounded by the arc gap",
            nonneg and zero_only_at_zero and capped,
            witness,
            "" if capped else f"max drift {max(d, float(dth.max()))} > gap {gap}",
        )
    )

    # C4: strict monotonicity of the angular lift on the grid plus knots.
    xs = np.unique(np.concatenate([thetas, np.asarray([1.0])]))
    lifted = ap.lift(xs)
    diffs = np.diff(lifted)
    mono = not (diffs <= 0.0).any()
    checks.append(
        CheckResult(
            "C4",
            "angular lift strictly increasing",
            mono,
            None if mono else float(xs[int(np.argmin(diffs))]),
        )
    )

    # C5: the slow arc misses its half-turn translate.
    checks.append(
        CheckResult(
            "C5",
            "slow arc disjoint from its half-turn translate (w < 1/4)",
            w < 0.25,
            None if w < 0.25 else w,
        )
    )

    if require_even:
        dr_m = rp.delta_r(-thetas)
        dth_m = ap.delta_theta(-thetas)
        bad = (np.abs(dr - dr_m) > 1e-12) | (np.abs(dth - dth_m) > 1e-12)
        checks.append(
            CheckResult(
                "C6",
                "profiles even about 0 (required by the axially symmetric lift)",
                not bad.any(),
                _first_witness(thetas, bad),
            )
        )

    return ValidationReport(tuple(checks))


def profiles_to_json(rp: RadialProfile, ap: AngularProfile) -> dict:
    """JSON-ready parameter object for a profile pair."""
    return {
        "a": rp.a,
        "w": rp.w,
        "d": ap.d,
        "angular_shape": ap.shape.value,
    }


def profiles_from_json(obj: dict) -> tuple[RadialProfile, AngularProfile]:
    """Rebuild a validated profile pair from its JSON parameter object.

    The radial increment has one shape, so a ``radial_shape`` field, which
    older objects carry, must name it.
    """
    if obj.get("radial_shape", "piecewise_linear") != "piecewise_linear":
        raise ValueError(f"unknown radial_shape {obj['radial_shape']!r}; the tent is 'piecewise_linear'")
    shape = AngularShape(obj.get("angular_shape", AngularShape.RAISED_COSINE.value))
    rp = make_radial_profile(float(obj["a"]), float(obj["w"]))
    ap = make_angular_profile(float(obj["d"]), w_ref=rp.w, shape=shape)
    return rp, ap
