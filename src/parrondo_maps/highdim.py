"""Axially symmetric suspension of the planar construction to dimension k >= 3.

The planar map is first symmetrized about the vertical axis: the doubled-angle
conjugate ``h`` acts on each closed half-circle like the original map acts on
the whole circle, leaving two invariant rays (angle 0, repelling in angle, and
angle 1/2, attracting).  In R^k the suspension ``h_k`` applies ``h`` to the
(log-radius, polar angle) pair and keeps the equatorial direction fixed; its
rotated conjugate ``j_k`` plays the role the half-turn conjugate plays in the
plane, with a quarter turn in the (first, last) coordinate plane moving the
axis onto the equator.

The literal doubled-angle formula is not a self-map of the half-circle, so
``h`` is implemented as conjugation by the doubling map: the radial increment
is evaluated at the doubled angle while the angular step is halved.  Both
default profiles are even about 0, which makes the mirrored branch continuous
across the seams.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import acos, copysign, cos, exp, hypot, inf, log, sin

import numpy as np

from .circle import Angle, _is_count, _mod1
from .planar import GAIN_CELLS, CylPoint
from .profiles import TWO_PI, AngularProfile, RadialProfile

__all__ = [
    "ConeCheck",
    "apply_h",
    "apply_h_k",
    "apply_j_k",
    "check_cone_condition",
    "robust_norm",
]


def robust_norm(x) -> float:
    """Euclidean norm of one point, free of over- and underflow.

    A plain sum of squares underflows below ~1.5e-154 per component, while the
    cylinder picture stays faithful down to radius ~1e-300; ``hypot`` scales
    internally, so no component is squared unscaled.
    """
    return hypot(*np.asarray(x, dtype=float).tolist())


def _half_step(rp: RadialProfile, ap: AngularProfile, r, polar):
    """One step of the doubled-angle dynamics on the closed half-circle [0, 1/2],
    elementwise on arrays; the image polar angle stays in [0, 1/2] because the
    full-circle lift fixes both endpoints.  ``_h_k`` writes the same operations
    out on Python floats."""
    doubled = 2.0 * polar
    return r + rp.delta_r(doubled), polar + 0.5 * ap.delta_theta(doubled)


def apply_h(rp: RadialProfile, ap: AngularProfile, p: CylPoint) -> CylPoint:
    """The axially symmetric planar map: ``_circle_step`` at the point's one angle and ``s = 0``."""
    gain, image = _circle_step(rp, ap, p.theta.value, 0)
    return CylPoint(p.r + float(gain), Angle(float(image)))


def _h_k(rp: RadialProfile, ap: AngularProfile, vals: list) -> list:
    """``apply_h_k`` of a new list of floats, which it pops: the polar split,
    ``_half_step`` and the recomposition written out on Python floats.

    Orbit iteration calls this once per step.  A step whose radius overflows
    gives infinite (or NaN) coordinates instead of raising.
    """
    norm = hypot(*vals)
    if norm == 0.0:
        return [0.0] * len(vals)
    last = vals.pop()
    c = last / norm
    polar = acos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c) / TWO_PI
    doubled = 2.0 * polar
    r2 = log(norm) + rp.delta_r(doubled)
    p2 = polar + 0.5 * ap.delta_theta(doubled)
    try:
        rho = exp(r2)
    except OverflowError:
        rho = inf
    eq_norm = hypot(*vals)
    if eq_norm == 0.0:
        out = [0.0] * len(vals)
        out.append(copysign(rho, last))
        return out
    ang = TWO_PI * p2
    factor = rho * sin(ang) / eq_norm
    out = [factor * v for v in vals]
    out.append(rho * cos(ang))
    return out


_FLOAT64 = np.dtype(float)


def _point(x) -> list:
    """One point of dimension k >= 3, other than a 1-D float64 array, as a new list of floats."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise ValueError(f"the suspension takes one point of dimension k >= 3, got shape {x.shape}")
    return x.tolist()


def apply_h_k(rp: RadialProfile, ap: AngularProfile, x) -> np.ndarray:
    """The suspension of the symmetrized map to R^k, k >= 3.

    Acts on the (log-radius, polar angle) pair and leaves the equatorial
    direction untouched; the origin is fixed and axis points stay on the axis
    exactly.  Takes one point of shape (k,).
    """
    # A 1-D float64 array, which every orbit step passes, skips np.asarray.
    v = x.tolist() if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 1 and x.size >= 3 else _point(x)
    return np.array(_h_k(rp, ap, v))


def apply_j_k(rp: RadialProfile, ap: AngularProfile, x) -> np.ndarray:
    """The rotated conjugate of the suspension; its invariant axis is the first coordinate axis."""
    # The quarter turns e_last -> e_0 -> -e_last only move and negate
    # coordinates, which is exact, so they are done in place on the new lists.
    v = x.tolist() if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 1 and x.size >= 3 else _point(x)
    v[0], v[-1] = v[-1], -v[0]
    y = _h_k(rp, ap, v)
    y[0], y[-1] = -y[-1], y[0]
    return np.array(y)


def _circle_step(rp: RadialProfile, ap: AngularProfile, alpha, s):
    """``h_k`` (``s = 0``) or ``j_k`` (``s = 1``; an array gives one per lane) on the
    (x_0, x_last) great circle, elementwise: (log-radius gain, image angle).

    ``alpha`` is in turns from +e_last toward +e_0.  The half x_0 >= 0 keeps
    the direction +e_0 and the other half -e_0, so ``h_k`` acts as ``apply_h``.
    ``j_k`` is ``h_k`` conjugated by the quarter turn alpha -> alpha + 1/4.
    """
    t = _mod1(alpha + 0.25 * s)
    upper = t <= 0.5
    gain, polar = _half_step(rp, ap, 0.0, np.where(upper, t, 1.0 - t))
    return gain, np.where(upper, polar, 1.0 - polar) - 0.25 * s


@dataclass(frozen=True)
class ConeCheck:
    """Whether the cone condition holds, plus the composed-gain minima."""

    holds: bool
    min_gain_jh: float
    min_gain_hj: float


def check_cone_condition(
    rp: RadialProfile,
    ap: AngularProfile,
    k: int,
    n_samples: int = 100_000,
    seed: int = 0,
) -> ConeCheck:
    """Decide the no-double-contraction condition in dimension k >= 3.

    The double cone ``C`` around the last axis has aperture ``w / 2``: the
    doubled polar angle leaves the radial profile's constant region exactly
    there.  ``holds`` says whether ``h_k`` maps ``C`` clear of the quarter-turned
    cone; ``j_k`` mapping the rotated cone clear of ``C`` is the same statement
    conjugated by the quarter turn.  It is decided exactly, for every k: on
    both drift shapes ``|delta_theta|`` grows with the distance to 0, so the
    worst point of ``C`` is its edge with equatorial direction +-e_0.  The
    north edge maps to polar angle ``(w + delta_theta(w)) / 2`` (for a
    negative drift the south edge moves by as much towards the equator), so
    the images stay out of the open rotated cone iff
    ``|delta_theta(w)| <= 1/2 - 2w``.

    The composed-gain minima are taken over ``n_samples`` seeded angles of the
    (x_0, x_last) great circle plus the four axes, where the minimum ``a - 2``
    sits whenever ``holds``.  Both maps keep that circle, and a point off it
    gains at least as much as the circle point with the same polar angle
    (``j_k`` after ``h_k``) or the same angle from the first axis (``h_k``
    after ``j_k``), so the result does not depend on k, and every k gets the
    same memoised ``ConeCheck`` object.  On the circle both are circle maps.

    The samples are drawn in one call and go through the maps in blocks of
    ``planar.GAIN_CELLS`` angles, so a check holds the draw (8 bytes per
    sample) plus one block's temporaries.  A count whose draw cannot be
    allocated raises ``MemoryError``, which the CLI reports with exit status 2.
    ``k``, ``n_samples`` and ``seed`` must be integers; a ``bool`` is refused.
    """
    if not _is_count(k, 3):
        raise ValueError(f"cone check needs an integer dimension k >= 3, got {k!r}")
    if not _is_count(n_samples, 1):
        raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
    if not _is_count(seed, 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not 0.0 < rp.w < 0.5:
        raise ValueError(f"w must lie in (0, 1/2) turns, got {rp.w}")
    return _cone_check(rp, ap, n_samples, seed)


@functools.lru_cache(maxsize=16)
def _cone_check(rp: RadialProfile, ap: AngularProfile, n_samples: int, seed: int) -> ConeCheck:
    """The dimension-free body of ``check_cone_condition``, on validated arguments."""
    gap = 0.5 - 2.0 * rp.w
    holds = bool(gap > 0.0 and abs(ap.delta_theta(rp.w)) <= gap)

    # Circle angles: the seeded samples in blocks of GAIN_CELLS, each a view of
    # the one draw, then +e_last, -e_last, +e_0 and -e_0 as a last block.
    samples = np.random.default_rng(seed).random(n_samples)
    blocks = [samples[lo:lo + GAIN_CELLS] for lo in range(0, n_samples, GAIN_CELLS)]
    blocks.append(np.array([0.0, 0.5, 0.25, 0.75]))
    mins_jh, mins_hj = [], []
    for alpha in blocks:
        gain_h, after_h = _circle_step(rp, ap, alpha, 0)
        gain_j, after_j = _circle_step(rp, ap, alpha, 1)
        mins_jh.append(np.min(gain_h + _circle_step(rp, ap, after_h, 1)[0]))
        mins_hj.append(np.min(gain_j + _circle_step(rp, ap, after_j, 0)[0]))
    return ConeCheck(holds=holds, min_gain_jh=float(np.min(mins_jh)), min_gain_hj=float(np.min(mins_hj)))
