"""The alternating planar maps, their compositions and the reference examples.

Points off the origin live on the cylinder (log-radius r, angle theta): the
Cartesian radius is ``exp(r)``, so additive radial increments bounded in
``[-1, a-1]`` become multiplicative factors in ``[e^-1, e^(a-1)]`` and the
continuous extension fixing the origin is explicit.

The first map ``f0`` adds the profile increments; the second map ``f1`` is its
conjugate by the half-turn ``tau``, so its slow arc sits antipodally.  Words
over {F0, F1} compose left letter first, matching the subscript order of the
random composition model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .circle import Angle, monotone_circle_inverse
from .errors import OriginNotRepresentableError
from .profiles import TWO_PI, AngularProfile, RadialProfile
from . import circle

__all__ = [
    "CylPoint",
    "GainStudy",
    "Letter",
    "MapWord",
    "angular_escape_margin",
    "apply_f0",
    "apply_f0_cartesian",
    "apply_f1",
    "apply_tau",
    "apply_word",
    "composition_radial_gain",
    "from_cartesian",
    "inverse_f0",
    "semistable_1d",
    "to_cartesian",
    "word_step",
]

CERTIFICATE_SLACK = 1e-6


@dataclass(frozen=True)
class CylPoint:
    """A point of the punctured plane in cylinder coordinates (log-radius, angle)."""

    r: float
    theta: Angle

    def __post_init__(self):
        if not isinstance(self.theta, Angle):
            object.__setattr__(self, "theta", Angle(self.theta))
        if not math.isfinite(self.r):
            raise ValueError(f"log-radius must be finite, got {self.r}")


class Letter(str, Enum):
    F0 = "f0"
    F1 = "f1"


# Angular offset conjugating each letter's profiles: f1 sees the circle shifted
# by a half turn.
_SHIFT = {Letter.F0: 0.0, Letter.F1: 0.5}


@dataclass(frozen=True)
class MapWord:
    """A finite composition over {F0, F1}; letters[0] is applied first."""

    letters: tuple[Letter, ...]

    def __post_init__(self):
        letters = tuple(Letter(l) for l in self.letters)
        if not letters:
            raise ValueError("a map word must contain at least one letter")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def parse(cls, text: str) -> "MapWord":
        """Accepts 'f0,f1', 'f0 f1' or the compact binary form '01'."""
        text = text.strip().lower()
        if set(text) <= {"0", "1"} and text:
            return cls(tuple(Letter.F1 if c == "1" else Letter.F0 for c in text))
        parts = [p for p in text.replace(",", " ").split() if p]
        return cls(tuple(Letter(p) for p in parts))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __str__(self) -> str:
        return ",".join(l.value for l in self.letters)


def apply_f0(rp: RadialProfile, ap: AngularProfile, p: CylPoint) -> CylPoint:
    """One step of the first map: add the profile increments at the current angle."""
    t = p.theta.value
    return CylPoint(p.r + rp.delta_r(t), Angle(t + ap.delta_theta(t)))


def apply_tau(p: CylPoint) -> CylPoint:
    """The half-turn rotation; an involution."""
    return CylPoint(p.r, p.theta + 0.5)


def apply_f1(rp: RadialProfile, ap: AngularProfile, p: CylPoint) -> CylPoint:
    """The half-turn conjugate of the first map."""
    return apply_tau(apply_f0(rp, ap, apply_tau(p)))


_APPLY = {Letter.F0: apply_f0, Letter.F1: apply_f1}


def apply_word(word: MapWord, rp: RadialProfile, ap: AngularProfile, p: CylPoint) -> CylPoint:
    for letter in word:
        p = _APPLY[letter](rp, ap, p)
    return p


def word_step(word: MapWord, rp: RadialProfile, ap: AngularProfile) -> Callable[[CylPoint], CylPoint]:
    """Step function applying the whole word once; handy for orbit iteration."""

    def step(p: CylPoint) -> CylPoint:
        return apply_word(word, rp, ap, p)

    return step


def inverse_f0(
    rp: RadialProfile, ap: AngularProfile, q: CylPoint, tol: float = 1e-12
) -> CylPoint:
    """Preimage under the first map.

    The angular lift ``ap.lift`` is inverted by the bracketed secant search of
    ``monotone_circle_inverse``, then the radial increment at the recovered
    angle is subtracted.  A validated drift profile (d < 1/pi for the raised
    cosine, d < 1/2 for the piecewise-linear tent) has a strictly increasing
    lift, so the sampled monotonicity sweep is skipped.
    """
    theta = monotone_circle_inverse(ap.lift, q.theta, tol, precheck=False)
    return CylPoint(q.r - rp.delta_r(theta.value), theta)


def to_cartesian(p: CylPoint) -> np.ndarray:
    """Cartesian image of a cylinder point: radius exp(r), angle in turns."""
    rho = math.exp(p.r)
    t = TWO_PI * p.theta.value
    return np.array([rho * math.cos(t), rho * math.sin(t)])


def from_cartesian(x) -> CylPoint:
    """Cylinder coordinates of a nonzero planar point."""
    x = np.asarray(x, dtype=float)
    rho = math.hypot(x[0], x[1])
    if rho == 0.0:
        raise OriginNotRepresentableError("the origin has log-radius -inf")
    return CylPoint(math.log(rho), Angle(math.atan2(x[1], x[0]) / TWO_PI))


def apply_f0_cartesian(rp: RadialProfile, ap: AngularProfile, x) -> np.ndarray:
    """Planar extension of the first map; the origin is a fixed point."""
    x = np.asarray(x, dtype=float)
    if x[0] == 0.0 and x[1] == 0.0:
        return np.zeros(2)
    return to_cartesian(apply_f0(rp, ap, from_cartesian(x)))


@dataclass(frozen=True)
class GainStudy:
    """Grid minimum of a word's total radial gain, with a rigorous lower bound.

    ``lower_bound`` comes from propagating each grid cell through the word as
    an exact arc (the angular lift is strictly increasing, so arcs map to
    arcs) and taking the exact minimum of the tent increment over every arc.
    ``certified`` holds when the grid minimum exceeds that bound by less than
    CERTIFICATE_SLACK, i.e. no angle between grid points can undershoot the
    reported minimum materially.
    """

    min_gain: float
    argmin: Angle
    certified: bool
    lower_bound: float

    def to_dict(self) -> dict:
        return {
            "min_gain": self.min_gain,
            "argmin": self.argmin.value,
            "certified": self.certified,
            "lower_bound": self.lower_bound,
        }


def composition_radial_gain(
    word: MapWord,
    rp: RadialProfile,
    ap: AngularProfile,
    grid_n: int = 100_000,
) -> GainStudy:
    """Study the total radial gain of a word as a function of the starting angle.

    The gain depends only on the angle, so it is evaluated on a grid of
    ``grid_n`` points; a rigorous lower bound over every grid cell certifies
    that the true minimum cannot sit materially below the grid minimum.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    edges = np.linspace(0.0, 1.0, grid_n + 1)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    gains = np.zeros(grid_n)
    bound = np.zeros(grid_n)
    for letter in word:
        s = _SHIFT[letter]
        dlo = rp.delta_r(lo + s)
        dhi = rp.delta_r(hi + s)
        gains += dlo
        contains_zero = (-(lo + s)) % 1.0 <= hi - lo
        bound += np.where(contains_zero, -1.0, np.minimum(dlo, dhi))
        lo = lo + ap.delta_theta(lo + s)
        hi = hi + ap.delta_theta(hi + s)
    i = int(np.argmin(gains))
    min_gain = float(gains[i])
    lower = float(bound.min())
    return GainStudy(
        min_gain=min_gain,
        argmin=Angle(edges[i]),
        certified=bool(min_gain - lower < CERTIFICATE_SLACK),
        lower_bound=lower,
    )


def angular_escape_margin(rp: RadialProfile, ap: AngularProfile) -> float:
    """Margin by which images of the slow arc avoid its half-turn translate.

    The lift is increasing and the drift even about 0, so the image of the arc
    [-w, w] is [-w + drift(w), w + drift(w)]; the clearance below the
    translate's near edge is gap - drift(w).  Non-negative margin is the
    testable form of the no-double-contraction condition.
    """
    return circle.interval_gap(rp.interval) - ap.delta_theta(rp.w)


def semistable_1d(x: float, which: str) -> float:
    """The explicit one-dimensional pair: both maps contract to 0, yet their
    composition is only semistable (x/9 on one side, 4x on the other)."""
    w = which.lower()
    if w == "f":
        return -2.0 * x if x <= 0 else -x / 3.0
    if w == "g":
        return -x / 3.0 if x <= 0 else -2.0 * x
    if w == "fog":
        return x / 9.0 if x <= 0 else 4.0 * x
    raise ValueError(f"which must be 'F', 'G' or 'FoG', got {which!r}")

