"""The alternating planar maps, their compositions and the reference examples.

Points off the origin live on the cylinder (log-radius r, angle theta): the
Cartesian radius is ``exp(r)``, so additive radial increments bounded in
``[-1, a-1]`` become multiplicative factors in ``[e^-1, e^(a-1)]``, and each
map extends continuously to the plane by fixing the origin.

The first map ``f0`` adds the profile increments; the second map ``f1`` is its
conjugate by the half-turn ``tau``, so its slow arc sits antipodally.  A word
is a sequence of symbols, 0 for ``f0`` and 1 for ``f1`` as in the random
composition model, and composes left symbol first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Iterator

import numpy as np

from .circle import Angle, _is_count, _mod1, monotone_circle_inverse
from .profiles import AngularProfile, RadialProfile

__all__ = [
    "CylPoint",
    "GainStudy",
    "MapWord",
    "apply_f0",
    "apply_f1",
    "composition_radial_gain",
    "inverse_f0",
    "semistable_1d",
    "word_step",
]

CERTIFICATE_SLACK = 1e-6

# Float64 values in one block of temporaries (64 KiB, below the allocator's
# 128 KiB mmap threshold): the grid cells ``composition_radial_gain`` carries
# through a word at once, the angles of one cone-check block, and the angles
# of one lock-step Monte Carlo block, whose a-free radial read fills one such
# block, held for the chunk.
GAIN_CELLS = 1 << 13


@dataclass(frozen=True, slots=True, init=False)
class CylPoint:
    """A point of the punctured plane in cylinder coordinates (log-radius, angle)."""

    r: float
    theta: Angle

    def __init__(self, r, theta):
        if not isinstance(theta, Angle):
            theta = Angle(theta)
        if not isfinite(r):
            raise ValueError(f"log-radius must be finite, got {r}")
        _set_r(self, r)
        _set_theta(self, theta)


# The slots' own setters: they write past the frozen ``__setattr__``.
_set_r = CylPoint.r.__set__
_set_theta = CylPoint.theta.__set__


@dataclass(frozen=True)
class MapWord:
    """A finite composition of ``f0`` (symbol 0) and ``f1`` (symbol 1); symbols[0] is applied first."""

    symbols: tuple[int, ...]

    def __post_init__(self):
        symbols = tuple(self.symbols)
        if not symbols:
            raise ValueError("a map word must contain at least one letter")
        if not all(s == 0 or s == 1 for s in symbols):
            raise ValueError(f"each symbol of a map word must be 0 or 1, got {self.symbols!r}")
        object.__setattr__(self, "symbols", tuple(int(s) for s in symbols))

    @classmethod
    def parse(cls, text: str) -> "MapWord":
        """Accepts 'f0,f1', 'f0 f1' or the compact binary form '01'."""
        text = text.strip().lower()
        if set(text) <= {"0", "1"} and text:
            return cls(tuple(int(c) for c in text))
        parts = text.replace(",", " ").split()
        if not set(parts) <= {"f0", "f1"}:
            raise ValueError(f"a map word holds only the letters f0 and f1, got {text!r}")
        return cls(tuple(int(p[1]) for p in parts))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __str__(self) -> str:
        return ",".join(f"f{s}" for s in self.symbols)


def apply_f0(rp: RadialProfile, ap: AngularProfile, p: CylPoint) -> CylPoint:
    """One step of the first map: add the profile increments at the current angle."""
    t = p.theta.value
    return CylPoint(p.r + rp.delta_r(t), Angle(t + ap.delta_theta(t)))


def apply_f1(rp: RadialProfile, ap: AngularProfile, p: CylPoint) -> CylPoint:
    """``tau . f0 . tau`` in one hop: its additions, in order, without the middle points."""
    # ``% 1.0`` in place of ``wrap_turns``: the first sum is at least 1/2, so
    # they agree; on the second they differ only by 1.0 against 0.0, and
    # ``Angle`` reduces 1.5 and 0.5 to the same point.
    u = (p.theta.value + 0.5) % 1.0
    return CylPoint(p.r + rp.delta_r(u), Angle((u + ap.delta_theta(u)) % 1.0 + 0.5))


def word_step(word: MapWord, rp: RadialProfile, ap: AngularProfile) -> Callable[[CylPoint], CylPoint]:
    """Step function applying the whole word once; handy for orbit iteration."""

    def step(p: CylPoint) -> CylPoint:
        for s in word:
            p = (apply_f1 if s else apply_f0)(rp, ap, p)
        return p

    return step


def inverse_f0(rp: RadialProfile, ap: AngularProfile, q: CylPoint) -> CylPoint:
    """Preimage under the first map.

    The angular lift ``ap.lift`` is inverted by the bracketed secant search of
    ``monotone_circle_inverse``, then the radial increment at the recovered
    angle is subtracted.  The search needs a strictly increasing lift, which a
    validated drift profile has (d < 1/pi for the raised cosine, d < 1/2 for
    the piecewise-linear tent).
    """
    theta = monotone_circle_inverse(ap.lift, q.theta)
    return CylPoint(q.r - rp.delta_r(theta.value), theta)


@dataclass(frozen=True)
class GainStudy:
    """Grid minimum of a word's total radial gain, with a lower bound over every cell.

    ``lower_bound`` comes from propagating each grid cell through the word as
    an arc (the angular lift is strictly increasing, so arcs map to arcs) and
    taking the minimum of the tent increment over every arc.  The propagation
    is not rounded outward, so the bound holds only up to its rounding: at
    the defaults both words give exactly 3.0, where an outward-rounded
    propagation gives 2.9999999999999987.
    ``certified`` holds when the lift is strictly increasing (check C4 of
    ``validate_profiles``) and the grid minimum exceeds that bound by less
    than CERTIFICATE_SLACK, i.e. no angle between grid points can undershoot
    the reported minimum materially.
    """

    min_gain: float
    argmin: Angle
    certified: bool
    lower_bound: float


def composition_radial_gain(
    word: MapWord,
    rp: RadialProfile,
    ap: AngularProfile,
    grid_n: int = 100_000,
) -> GainStudy:
    """Study the total radial gain of a word as a function of the starting angle.

    The gain depends only on the angle, so it is evaluated on a grid of
    ``grid_n`` points; a lower bound over every cell, sound up to rounding,
    certifies that the true minimum cannot sit materially below the grid minimum.
    """
    if not _is_count(grid_n, 2):
        raise ValueError("grid_n must be at least 2")
    # Cell i is the arc [e[i], e[i+1]]; neighbouring cells share an edge, so
    # each block's edges, one more than its cells, are carried through the
    # word once.
    edges = np.linspace(0.0, 1.0, grid_n + 1)
    mins, cells, lows = [], [], []
    for lo in range(0, grid_n, GAIN_CELLS):
        e = edges[lo:lo + GAIN_CELLS + 1]
        gains = np.zeros(len(e) - 1)
        bound = np.zeros(len(e) - 1)
        for s in word:
            shifted = e + 0.5 * s
            de = rp.delta_r(shifted)
            gains += de[:-1]
            contains_zero = _mod1(-shifted[:-1]) <= e[1:] - e[:-1]
            bound += np.where(contains_zero, -1.0, np.minimum(de[:-1], de[1:]))
            e = e + ap.delta_theta(shifted)
        j = int(np.argmin(gains))
        mins.append(gains[j])
        cells.append(lo + j)
        lows.append(bound.min())
    # The first block holding the least gain (or a NaN) holds the cell that
    # np.argmin would pick over the whole grid.
    b = int(np.argmin(mins))
    min_gain, i, lower = float(mins[b]), cells[b], float(np.min(lows))
    return GainStudy(
        min_gain=min_gain,
        argmin=Angle(edges[i]),
        certified=ap.lift_increasing and bool(min_gain - lower < CERTIFICATE_SLACK),
        lower_bound=lower,
    )


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

