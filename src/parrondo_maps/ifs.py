"""Random alternation of the two cylinder maps driven by Bernoulli symbols.

Symbol 0 selects the first map (probability ``p``), symbol 1 its half-turn
conjugate.  Growth bookkeeping follows disjoint consecutive symbol pairs: a
mixed pair (01 or 10) gains at least ``a - 2`` in log-radius, an unmixed pair
at least ``-2``, so the total gain over ``m`` pairs is bounded below by
``a * k_m - 2m`` where ``k_m`` counts the mixed pairs.  Mixed pairs occur with
probability ``2 p (1 - p)``, which makes the expected per-pair gain at least
``K = 2 (a p (1 - p) - 1)`` and motivates the admissibility requirement
``a p (1 - p) > 1``.

One root seed plus a per-sequence stream index gives fully reproducible,
embarrassingly parallel experiments: stream ``i`` uses the child generator
``SeedSequence(seed, spawn_key=(i,))``.

``run_ifs`` records one orbit with its per-pair gains.  ``monte_carlo`` and
``monte_carlo_grid`` keep only each stream's terminal gain and mixed-pair
count, and advance all streams (of every ``p`` and ``a`` in a grid) in
lock-step, one numpy step per map application; each stream's numbers are
bit-identical to its ``run_ifs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circle import Angle
from .dynamics import OrbitTrace
from .planar import CylPoint
from .profiles import (
    DEFAULT_D,
    DEFAULT_W,
    AngularProfile,
    RadialProfile,
    make_angular_profile,
)

__all__ = [
    "DEFAULT_START",
    "ESCAPE_THRESHOLD",
    "IfsConfig",
    "IfsRun",
    "IfsStats",
    "RecurrenceCheck",
    "TheoreticalBounds",
    "bernoulli_sequence",
    "expectation_recurrence_check",
    "monte_carlo",
    "monte_carlo_grid",
    "run_ifs",
    "sequence_rng",
    "theoretical_bounds",
]

ESCAPE_THRESHOLD = 100.0

# Symbols held at once by the lock-step engine: streams are processed in
# chunks of at most this many int8 symbols (1 MiB), whatever the horizon and
# however many distinct p values share the run (each adds one lane per stream).
CHUNK_SYMBOLS = 1 << 20

# Generic start: off both invariant rays and equidistant from both slow arcs.
DEFAULT_START = CylPoint(0.0, Angle(0.25))


@dataclass(frozen=True)
class IfsConfig:
    """Description of one randomized-composition experiment.

    ``horizon`` is the even total number of map applications (2m).  Configs
    with ``a * p * (1 - p) <= 1`` are inadmissible for the escape guarantee
    but remain runnable for exploration; outputs must label them as such.
    """

    p: float
    a: float
    seed: int
    horizon: int
    n_sequences: int
    w: float = DEFAULT_W
    d: float = DEFAULT_D
    escape_threshold: float = ESCAPE_THRESHOLD

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly between 0 and 1, got {self.p}")
        if self.horizon < 2 or self.horizon % 2 != 0:
            raise ValueError(f"horizon must be an even count >= 2, got {self.horizon}")
        if self.n_sequences < 1:
            raise ValueError(f"n_sequences must be positive, got {self.n_sequences}")
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"expansion a must be finite and positive, got {self.a}")
        if not 0.0 < self.w < 0.25:
            raise ValueError(f"w must lie in (0, 1/4), got {self.w}")
        if not math.isfinite(self.escape_threshold):
            raise ValueError(f"escape_threshold must be finite, got {self.escape_threshold}")

    @property
    def pairs(self) -> int:
        return self.horizon // 2

    @property
    def admissible(self) -> bool:
        return self.a * self.p * (1.0 - self.p) > 1.0

    def profiles(self) -> tuple[RadialProfile, AngularProfile]:
        # The radial profile is built directly so that exploratory a <= 4
        # configs run; the drift still goes through the validated factory
        # because a non-monotone lift would not be a homeomorphism at all.
        return RadialProfile(self.a, self.w), make_angular_profile(self.d, w_ref=self.w)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "seed": self.seed,
            "horizon": self.horizon,
            "n_sequences": self.n_sequences,
            "w": self.w,
            "d": self.d,
            "escape_threshold": self.escape_threshold,
        }


@dataclass(frozen=True)
class TheoreticalBounds:
    """Closed-form admissibility quantities for a (p, a) pair."""

    a_min: float
    K: float
    pair_slope_lb: float

    def to_dict(self) -> dict:
        return {"a_min": self.a_min, "K": self.K, "pair_slope_lb": self.pair_slope_lb}


def theoretical_bounds(p: float, a: float) -> TheoreticalBounds:
    """Minimum admissible expansion, expected per-pair gain bound and slope bound.

    ``a_min = 1 / (p(1-p))``; ``K = 2 (a p (1-p) - 1)``; the asymptotic
    per-pair slope bound ``a * 2p(1-p) - 2`` follows from the pairwise gain
    inequality and the almost-sure mixed-pair frequency ``2p(1-p)``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    pq = p * (1.0 - p)
    return TheoreticalBounds(
        a_min=1.0 / pq,
        K=2.0 * (a * pq - 1.0),
        pair_slope_lb=a * 2.0 * pq - 2.0,
    )


def sequence_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one Monte-Carlo stream: child ``stream`` of the root seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def bernoulli_sequence(p, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """i.i.d. symbols in {0, 1} with P(0) = p, reproducible per (seed, stream).

    ``p`` is a probability, giving shape ``(n,)``, or a column of them, shape
    ``(n_p, 1)``, giving one row per ``p``.  The stream's uniforms are drawn
    once and thresholded against every ``p``, so each row equals the scalar
    call with that ``p``.
    """
    p = np.asarray(p, dtype=float)
    if not all(0.0 < q < 1.0 for q in p.ravel().tolist()):
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    if n < 1:
        raise ValueError(f"sequence length must be positive, got {n}")
    u = sequence_rng(seed, stream).random(n)
    return np.where(u < p, 0, 1).astype(np.int8)


@dataclass(frozen=True, eq=False)
class IfsRun:
    """One random orbit with its pairwise growth bookkeeping."""

    symbols: np.ndarray
    trace: OrbitTrace
    pair_mixed: np.ndarray
    pair_gains: np.ndarray
    k_series: np.ndarray
    delta_total: float

    @property
    def k_m(self) -> int:
        return int(self.k_series[-1])


def run_ifs(
    config: IfsConfig,
    start: CylPoint = DEFAULT_START,
    stream: int = 0,
    symbols: np.ndarray | None = None,
) -> IfsRun:
    """Run one symbol sequence and record the orbit plus per-pair gains.

    ``symbols`` may be injected (e.g. to pin an orbit to an invariant ray);
    otherwise they are drawn from the config's stream.
    """
    rp, ap = config.profiles()
    if symbols is None:
        symbols = bernoulli_sequence(config.p, config.horizon, config.seed, stream)
    else:
        symbols = np.asarray(symbols, dtype=np.int8)
        if len(symbols) != config.horizon:
            raise ValueError("symbol sequence length must equal the horizon")
    n = len(symbols)
    rs = np.empty(n + 1)
    ths = np.empty(n + 1)
    # The log-radius change is summed from 0 and the start added once at the
    # end, so no gain is lost to rounding against a huge start radius.
    r = 0.0
    th = start.theta.value
    rs[0], ths[0] = r, th
    delta_r = rp.delta_r
    delta_theta = ap.delta_theta
    for i, sym in enumerate(symbols):
        t = th + 0.5 if sym else th
        r += delta_r(t)
        th = (th + delta_theta(t)) % 1.0
        rs[i + 1], ths[i + 1] = r, th
    gains = np.diff(rs)
    delta_total = float(rs[-1])
    rs += start.r
    pair_gains = gains[0::2] + gains[1::2]
    pair_mixed = symbols[0::2] != symbols[1::2]
    trace = OrbitTrace(rs=rs, gains=gains, thetas=ths)
    return IfsRun(
        symbols=symbols,
        trace=trace,
        pair_mixed=pair_mixed,
        pair_gains=pair_gains,
        k_series=np.cumsum(pair_mixed),
        delta_total=delta_total,
    )


@dataclass(frozen=True, eq=False)
class IfsStats:
    """Aggregated growth statistics over independent sequences.

    Stores the per-sequence terminal gains and mixed-pair counts; aggregates
    derive from them, so partial results merge associatively.
    """

    config: IfsConfig
    deltas: np.ndarray
    k_counts: np.ndarray

    @property
    def n(self) -> int:
        return len(self.deltas)

    @property
    def m(self) -> int:
        return self.config.pairs

    @property
    def mean_pair_gain(self) -> float:
        """Mean realized gain per pair step, the empirical counterpart of K."""
        return float(np.mean(self.deltas)) / self.m

    @property
    def mean_mixed_fraction(self) -> float:
        """Mean of k_m / m; converges to 2 p (1-p)."""
        return float(np.mean(self.k_counts / self.m))

    @property
    def escape_fraction(self) -> float:
        return float(np.mean(self.deltas > self.config.escape_threshold))

    @property
    def slope_se(self) -> float:
        """Standard error of the mean per-pair slope across sequences."""
        if self.n < 2:
            return math.inf
        return float(np.std(self.deltas / self.m, ddof=1)) / math.sqrt(self.n)

    def slope_ci(self, z: float = 1.96) -> tuple[float, float]:
        half = z * self.slope_se
        return (self.mean_pair_gain - half, self.mean_pair_gain + half)

    def to_dict(self) -> dict:
        # Single-sequence runs have no spread estimate; JSON has no Infinity,
        # so non-finite values become null.
        def finite(x: float):
            return x if math.isfinite(x) else None

        lo, hi = self.slope_ci()
        return {
            "n_sequences": self.n,
            "pairs_per_sequence": self.m,
            "mean_pair_gain": self.mean_pair_gain,
            "mean_mixed_fraction": self.mean_mixed_fraction,
            "escape_fraction": self.escape_fraction,
            "slope_se": finite(self.slope_se),
            "slope_ci_low": finite(lo),
            "slope_ci_high": finite(hi),
        }


def monte_carlo(config: IfsConfig, start: CylPoint = DEFAULT_START) -> IfsStats:
    """Aggregate independent runs over streams 0 .. n_sequences - 1."""
    return monte_carlo_grid([config], start)[0]


def monte_carlo_grid(configs, start: CylPoint = DEFAULT_START) -> list[IfsStats]:
    """``monte_carlo`` of each config, for configs that differ only in ``a`` and ``p``.

    The symbols and the angle orbit depend on ``p``, ``d`` and the seed but
    not on ``a``, so all configs share one run.  Its lanes are (distinct
    ``p``) x (stream): every lane's angle moves once per step, and its radial
    increment is read for the whole column of distinct ``a`` values at once.
    Every (``a``, ``p``) pair of the distinct values is computed, which is
    exactly the work of a product grid.  Each stream's uniforms are drawn
    once for every ``p``.  Streams advance in lock-step, in chunks holding at
    most ``CHUNK_SYMBOLS`` symbols.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("monte_carlo_grid needs at least one config")
    base = configs[0]
    if any(replace(c, a=base.a, p=base.p) != base for c in configs):
        raise ValueError("the configs of one grid may differ only in a and p")
    # Distinct values in first-seen order; duplicate cells read the same lanes.
    p_index = {p: i for i, p in enumerate(dict.fromkeys(c.p for c in configs))}
    a_index = {a: i for i, a in enumerate(dict.fromkeys(c.a for c in configs))}
    _, ap = base.profiles()
    radial = RadialProfile(np.array([[a] for a in a_index]), base.w)
    p_col = np.array([[p] for p in p_index])
    n_a, n_p, n, horizon = len(a_index), len(p_index), base.n_sequences, base.horizon
    deltas = np.empty((n_a, n_p, n))
    k_counts = np.empty((n_p, n), dtype=np.int64)
    streams = max(1, CHUNK_SYMBOLS // (horizon * n_p))
    for lo in range(0, n, streams):
        hi = min(lo + streams, n)
        width = hi - lo
        # Step-major, so that each step reads one contiguous column; lane
        # i * width + (s - lo) holds stream s under the i-th p.
        cols = np.empty((horizon, n_p * width), dtype=np.int8)
        for s in range(lo, hi):
            cols[:, s - lo::width] = bernoulli_sequence(p_col, horizon, base.seed, s).T
        k_counts[:, lo:hi] = np.count_nonzero(cols[0::2] != cols[1::2], axis=0).reshape(n_p, width)
        # The same operations as run_ifs, one lane per (p, stream).
        r = np.zeros((n_a, n_p * width))
        th = np.full(n_p * width, start.theta.value)
        for col in cols:
            t = th + 0.5 * col
            r += radial.delta_r(t)
            th = (th + ap.delta_theta(t)) % 1.0
        deltas[:, :, lo:hi] = r.reshape(n_a, n_p, width)
    # Each cell gets its own arrays, duplicate cells included.
    return [
        IfsStats(
            config=c,
            deltas=deltas[a_index[c.a], p_index[c.p]].copy(),
            k_counts=k_counts[p_index[c.p]].copy(),
        )
        for c in configs
    ]


@dataclass(frozen=True)
class RecurrenceCheck:
    """Empirical per-pair expected gain against its theoretical floor K."""

    per_pair_gain: float
    bound: float
    stderr: float

    @property
    def satisfied(self) -> bool:
        return self.per_pair_gain >= self.bound - 3.0 * self.stderr

    def to_dict(self) -> dict:
        return {
            "per_pair_gain": self.per_pair_gain,
            "bound": self.bound,
            "stderr": self.stderr if math.isfinite(self.stderr) else None,
            "satisfied": self.satisfied,
        }


def expectation_recurrence_check(
    config: IfsConfig,
    start: CylPoint = DEFAULT_START,
    stats: IfsStats | None = None,
) -> RecurrenceCheck:
    """Estimate the expected gain added per pair step and compare it to K.

    The estimator is the mean per-pair slope across sequences; its standard
    error is computed across sequences because pairs within one orbit are not
    independent.
    """
    if stats is None:
        stats = monte_carlo(config, start)
    bounds = theoretical_bounds(config.p, config.a)
    return RecurrenceCheck(
        per_pair_gain=stats.mean_pair_gain,
        bound=bounds.K,
        stderr=stats.slope_se,
    )
