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

import math
from dataclasses import dataclass

import numpy as np

from .circle import Angle
from .errors import OriginNotRepresentableError
from .planar import CylPoint
from .profiles import TWO_PI, AngularProfile, RadialProfile

__all__ = [
    "ConeCheck",
    "SphericalDecomp",
    "apply_h",
    "apply_h_k",
    "apply_j_k",
    "check_cone_condition",
    "robust_norm",
    "rotate90",
    "rotate90_inv",
    "spherical_compose",
    "spherical_decompose",
]


def robust_norm(x) -> float | np.ndarray:
    """Euclidean norm of a point, or of each row of a batch, free of over- and underflow.

    A plain sum of squares underflows below ~1.5e-154 per component, while the
    cylinder picture stays faithful down to radius ~1e-300; ``hypot`` scales
    internally, so no component is squared unscaled.  A batch is folded column
    by column, ``hypot(hypot(|x_0|, x_1), x_2)...``: the same left fold, in the
    same order, as ``np.hypot.reduce(x, axis=-1)``, so the same bits, but with
    one vectorised call per column instead of a short reduction per row.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return math.hypot(*x.tolist())
    out = np.abs(x[..., 0])
    for j in range(1, x.shape[-1]):
        np.hypot(out, x[..., j], out=out)
    return out


def _half_step(rp: RadialProfile, ap: AngularProfile, r, polar):
    """One step of the doubled-angle dynamics on the closed half-circle [0, 1/2].

    Works elementwise on arrays; the image polar angle stays in [0, 1/2]
    because the full-circle lift fixes both endpoints.
    """
    doubled = 2.0 * polar
    return r + rp.delta_r(doubled), polar + 0.5 * ap.delta_theta(doubled)


def apply_h(rp: RadialProfile, ap: AngularProfile, p: CylPoint) -> CylPoint:
    """The axially symmetric planar map: doubled-angle dynamics mirrored at 1/2."""
    t = p.theta.value
    if t <= 0.5:
        r2, t2 = _half_step(rp, ap, p.r, t)
    else:
        r2, u2 = _half_step(rp, ap, p.r, 1.0 - t)
        t2 = 1.0 - u2
    return CylPoint(r2, Angle(t2))


@dataclass(frozen=True, eq=False)
class SphericalDecomp:
    """(log-radius, polar angle, equatorial direction) factorization of a point.

    ``polar`` is measured from the last coordinate axis in turns, in [0, 1/2];
    ``equatorial_dir`` is a unit vector in R^(k-1), or None exactly at the
    poles where no direction is defined.
    """

    r: float
    polar: float
    equatorial_dir: np.ndarray | None
    k: int


def _decompose_batch(X: np.ndarray):
    """Batch split of rows into (log-radius, polar, unit equatorial part).

    Pole rows get a zero equatorial part, which composes back to the exact
    axis point.  A zero row gets log-radius -inf and a NaN polar angle, with
    divide and invalid warnings, which ``_h_k_batch`` silences.
    """
    proj = X[:, :-1]
    # The full norm continues the equatorial fold by one column, so the
    # equatorial columns are folded once.
    pnorms = robust_norm(proj)
    norms = np.hypot(pnorms, X[:, -1])
    polar = np.arccos(np.clip(X[:, -1] / norms, -1.0, 1.0)) / TWO_PI
    pnorms = pnorms[:, None]
    dirs = np.divide(proj, pnorms, out=np.zeros_like(proj), where=pnorms > 0.0)
    return np.log(norms), polar, dirs


def _compose_batch(r: np.ndarray, polar: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    rho = np.exp(r)
    ang = TWO_PI * polar
    out = np.empty((r.shape[0], dirs.shape[1] + 1))
    out[:, :-1] = (rho * np.sin(ang))[:, None] * dirs
    out[:, -1] = rho * np.cos(ang)
    return out


def spherical_decompose(x) -> SphericalDecomp:
    """Factor a nonzero point of R^k, k >= 2, into its spherical parts."""
    x = np.asarray(x, dtype=float)
    if not x.any():
        raise OriginNotRepresentableError("the origin has no polar decomposition")
    r, polar, dirs = _decompose_batch(x[None, :])
    direction = dirs[0] if dirs.any() else None
    return SphericalDecomp(float(r[0]), float(polar[0]), direction, x.shape[0])


def spherical_compose(s: SphericalDecomp) -> np.ndarray:
    """Inverse of spherical_decompose; exact on the axis."""
    direction = s.equatorial_dir
    if direction is None:
        if s.polar not in (0.0, 0.5):
            raise ValueError(
                f"equatorial direction required off the poles (polar={s.polar})"
            )
        direction = np.zeros(s.k - 1)
    return _compose_batch(np.array([s.r]), np.array([s.polar]), direction[None, :])[0]


def _h_k_batch(rp: RadialProfile, ap: AngularProfile, X: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        r, polar, dirs = _decompose_batch(X)
    r2, p2 = _half_step(rp, ap, r, polar)
    Y = _compose_batch(r2, p2, dirs)
    # Axis rows: zero equatorial part means sin(pi * ...) rounding would leak a
    # ~1e-16 component through cos; rebuild those rows exactly on the axis.
    on_axis = ~np.any(dirs != 0.0, axis=-1)
    if on_axis.any():
        Y[on_axis, :-1] = 0.0
        Y[on_axis, -1] = np.where(polar[on_axis] < 0.25, np.exp(r2[on_axis]), -np.exp(r2[on_axis]))
    # The origin (log-radius -inf) is fixed; its row went through as NaN.
    origin = r == -np.inf
    if origin.any():
        Y[origin] = 0.0
    return Y


def _h_k_point(rp: RadialProfile, ap: AngularProfile, vals: list) -> list:
    """``apply_h_k`` of one point held as a list of floats, on Python floats.

    On a single row the batch path costs several times as much, and orbit
    iteration calls this once per step.  A step whose radius overflows gives
    infinite (or NaN) coordinates, as the batch path does, instead of raising.
    """
    norm = math.hypot(*vals)
    if norm == 0.0:
        return [0.0] * len(vals)
    c = vals[-1] / norm
    polar = math.acos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c) / TWO_PI
    r2, p2 = _half_step(rp, ap, math.log(norm), polar)
    try:
        rho = math.exp(r2)
    except OverflowError:
        rho = math.inf
    eq_norm = math.hypot(*vals[:-1])
    if eq_norm == 0.0:
        out = [0.0] * len(vals)
        out[-1] = math.copysign(rho, vals[-1])
        return out
    ang = TWO_PI * p2
    factor = rho * math.sin(ang) / eq_norm
    out = [factor * v for v in vals[:-1]]
    out.append(rho * math.cos(ang))
    return out


def _point_or_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    k = x.shape[-1]
    if k < 3:
        raise ValueError(f"the suspension needs dimension k >= 3, got {k}")
    return x


def apply_h_k(rp: RadialProfile, ap: AngularProfile, x) -> np.ndarray:
    """The suspension of the symmetrized map to R^k, k >= 3.

    Acts on the (log-radius, polar angle) pair and leaves the equatorial
    direction untouched; the origin is fixed and axis points stay on the axis
    exactly.  Accepts a single point of shape (k,) or a batch of shape (n, k).
    """
    x = _point_or_batch(x)
    if x.ndim == 2:
        return _h_k_batch(rp, ap, x)
    return np.array(_h_k_point(rp, ap, x.tolist()))


def rotate90(x) -> np.ndarray:
    """Quarter turn in the (first, last) coordinate plane: e_last -> e_first -> -e_last."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 0] = x[..., -1]
    out[..., -1] = -x[..., 0]
    return out


def rotate90_inv(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 0] = -x[..., -1]
    out[..., -1] = x[..., 0]
    return out


def apply_j_k(rp: RadialProfile, ap: AngularProfile, x) -> np.ndarray:
    """The rotated conjugate of the suspension; its invariant axis is the first coordinate axis."""
    x = _point_or_batch(x)
    if x.ndim == 2:
        return rotate90_inv(_h_k_batch(rp, ap, rotate90(x)))
    # One point: the quarter turns only move and negate coordinates, which is
    # exact, so they are done on the list around the scalar path.
    v = x.tolist()
    y = _h_k_point(rp, ap, [v[-1], *v[1:-1], -v[0]])
    return np.array([-y[-1], *y[1:-1], y[0]])


@dataclass(frozen=True)
class ConeCheck:
    """Whether the cone condition holds, plus the composed-gain minima."""

    holds: bool
    min_gain_jh: float
    min_gain_hj: float

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "min_gain_jh": self.min_gain_jh,
            "min_gain_hj": self.min_gain_hj,
        }


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
    ``|delta_theta(w)| <= 1/2 - 2w``, which for d >= 0 reads
    ``angular_escape_margin >= 0``.

    The composed-gain minima are taken over ``n_samples`` seeded angles of the
    (x_0, x_last) great circle plus the four axes, where the minimum ``a - 2``
    sits whenever ``holds``.  Both maps keep that circle, and a point off it
    gains at least as much as the circle point with the same polar angle
    (``j_k`` after ``h_k``) or the same angle from the first axis (``h_k``
    after ``j_k``), so the result does not depend on k.
    """
    if k < 3:
        raise ValueError(f"cone check needs dimension k >= 3, got {k}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if not 0.0 < rp.w < 0.5:
        raise ValueError(f"w must lie in (0, 1/2) turns, got {rp.w}")
    gap = 0.5 - 2.0 * rp.w
    holds = bool(gap > 0.0 and abs(ap.delta_theta(rp.w)) <= gap)

    # Points (sin, 0, cos) of the great circle, then +-e_last and +-e_0.
    phi = TWO_PI * np.random.default_rng(seed).random(n_samples)
    pts = np.zeros((n_samples + 4, 3))
    pts[:n_samples, 0] = np.sin(phi)
    pts[:n_samples, 2] = np.cos(phi)
    pts[n_samples:, 0] = [0.0, 0.0, 1.0, -1.0]
    pts[n_samples:, 2] = [1.0, -1.0, 0.0, 0.0]
    log_norm = np.log(robust_norm(pts))

    jh = apply_j_k(rp, ap, _h_k_batch(rp, ap, pts))
    min_gain_jh = float(np.min(np.log(robust_norm(jh)) - log_norm))
    hj = _h_k_batch(rp, ap, apply_j_k(rp, ap, pts))
    min_gain_hj = float(np.min(np.log(robust_norm(hj)) - log_norm))

    return ConeCheck(holds=holds, min_gain_jh=min_gain_jh, min_gain_hj=min_gain_hj)
