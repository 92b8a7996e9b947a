"""Random alternation of the two cylinder maps driven by Bernoulli symbols.

Symbol 0 selects the first map (probability ``p``), symbol 1 its half-turn
conjugate.  Growth bookkeeping follows disjoint consecutive symbol pairs: a
mixed pair (01 or 10) gains at least ``a - 2`` in log-radius, an unmixed pair
at least ``-2``, so the total gain over ``m`` pairs is bounded below by
``a * k_m - 2m`` where ``k_m`` counts the mixed pairs.  Mixed pairs occur with
probability ``2 p (1 - p)``, which makes the expected per-pair gain at least
``K = 2 (a p (1 - p) - 1)`` and motivates the admissibility requirement
``a p (1 - p) > 1``, that is ``K > 0``.

One root seed plus a per-sequence stream index gives fully reproducible,
embarrassingly parallel experiments: stream ``i`` uses the child generator
``SeedSequence(seed, spawn_key=(i,))``; the lock-step engine derives a chunk's
children at once, bit for bit as numpy does (an oracle test holds it).

The angle does not depend on the radius, and ``delta_r = a q - 1`` where
the slow-arc fraction ``q`` (``RadialProfile.slow_arc_fraction``) does not
depend on ``a``.  So the log-radius after ``n`` steps is ``a S - n``, where
``S`` is the sum of ``q`` along the angle orbit, in step order, and one orbit
serves every ``a``.  ``run_ifs`` records one orbit's per-pair gains,
``a (q_even + q_odd) - 2``.  ``monte_carlo`` and ``monte_carlo_grid`` keep
only each stream's sum ``S`` and mixed-pair count, per ``p``, and advance all
streams in lock-step: the step loop moves only the angles, one numpy step per
map application, and ``q`` is read once per block of steps and added to ``S``
in step order.  Each config then maps its ``p``'s sums to its gains
``a S - n``.  Each stream's numbers are bit-identical to its ``run_ifs``.

Both engines read f1's drift at ``theta`` through the half-turn identity.
For the raised cosine, the only drift ``IfsConfig.profiles`` builds,
``cos 2 pi (theta + 1/2) = -cos 2 pi theta``: f1's drift ``D(theta + 1/2)``
is ``d/2 + (d/2) cos 2 pi theta`` and f0's is ``d/2 - (d/2) cos 2 pi theta``.
So a step is ``theta <- (theta + (d/2 + g cos 2 pi theta)) mod 1``, with
``g = -d/2`` under f0 and ``+d/2`` under f1, and no shifted angle is rounded
or reduced before the cosine.  When ``d/2`` is a power of two, f0's drift is
``delta_theta``'s bit for bit; f1's stays within a few ulps of ``d`` of the
literal ``delta_theta((theta + 1/2) % 1)``.  The slow arc is still read at
the shifted angle ``theta + s/2``.  ``planar.apply_f1`` keeps the literal
conjugation and its own rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .circle import Angle, _is_count
from .planar import GAIN_CELLS
from .profiles import (
    DEFAULT_D,
    DEFAULT_W,
    TWO_PI,
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
    "monte_carlo",
    "monte_carlo_grid",
    "run_ifs",
    "theoretical_bounds",
]

ESCAPE_THRESHOLD = 100.0

# Symbols held at once by the lock-step engine: streams are processed in
# chunks of at most this many int8 symbols (1 MiB), whatever the horizon and
# however many distinct p values share the run (each adds one lane per stream).
CHUNK_SYMBOLS = 1 << 20

# Generic start angle: off both invariant rays and equidistant from both slow arcs.
DEFAULT_START = Angle(0.25)


@dataclass(frozen=True)
class IfsConfig:
    """Description of one randomized-composition experiment.

    ``horizon`` is the even total number of map applications (2m).  Configs
    that ``TheoreticalBounds.label`` does not call admissible remain runnable
    for exploration; outputs must label them as such.
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
        if not _is_count(self.seed, 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not (_is_count(self.horizon, 2) and self.horizon % 2 == 0):
            raise ValueError(f"horizon must be an even integer >= 2, got {self.horizon}")
        if not _is_count(self.n_sequences, 1):
            raise ValueError(f"n_sequences must be a positive integer, got {self.n_sequences}")
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"expansion a must be finite and positive, got {self.a}")
        # Bounds every sum of gains, each gain within [-1, a - 1]; an int
        # compares with a float exactly, and below a = 1 the bound is max / 2,
        # where max / (2 a) would overflow.
        if not self.horizon * self.n_sequences <= np.finfo(float).max / 2.0 / max(self.a, 1.0):
            raise ValueError(f"expansion a = {self.a} is too large for {self.n_sequences} x {self.horizon} steps")
        if not 0.0 < self.w < 0.25:
            raise ValueError(f"w must lie in (0, 1/4), got {self.w}")
        if not math.isfinite(self.escape_threshold):
            raise ValueError(f"escape_threshold must be finite, got {self.escape_threshold}")

    @property
    def pairs(self) -> int:
        return self.horizon // 2

    def profiles(self) -> tuple[RadialProfile, AngularProfile]:
        # The radial profile is built directly so that exploratory a <= 4
        # configs run; the drift still goes through the validated factory
        # because a non-monotone lift would not be a homeomorphism at all.
        return RadialProfile(self.a, self.w), make_angular_profile(self.d, w_ref=self.w)


@dataclass(frozen=True)
class TheoreticalBounds:
    """Closed-form admissibility quantities for a (p, a) pair."""

    a_min: float
    K: float
    pair_slope_lb: float

    @property
    def label(self) -> str:
        """The admissibility verdict: the sign of ``K``, or ``boundary`` within rounding of 0."""
        if abs(self.K) <= 2e-12:
            return "boundary"
        return "admissible" if self.K > 0.0 else "inadmissible"


def theoretical_bounds(p: float, a: float) -> TheoreticalBounds:
    """Minimum admissible expansion, expected per-pair gain bound and slope bound.

    ``a_min = 1 / (p(1-p))``; ``K = 2 (a p (1-p) - 1)`` is twice the
    admissibility margin and also the asymptotic per-pair slope bound
    ``a * 2p(1-p) - 2`` (pairwise gain inequality, almost-sure mixed-pair
    frequency ``2p(1-p)``), so ``pair_slope_lb`` holds ``K`` itself.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"expansion a must be finite and positive, got {a}")
    pq = p * (1.0 - p)
    K = 2.0 * (a * pq - 1.0)
    return TheoreticalBounds(a_min=1.0 / pq, K=K, pair_slope_lb=K)


def bernoulli_sequence(p: float, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """``n`` i.i.d. symbols in {0, 1} with P(0) = p, reproducible per (seed, stream)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 0:
        raise ValueError(f"p must be a probability, got shape {p.shape}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    if not _is_count(n, 1):
        raise ValueError(f"sequence length must be a positive integer, got {n}")
    if not _is_count(seed, 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not _is_count(stream, 0):
        raise ValueError(f"stream must be a non-negative integer, got {stream}")
    return (_uniforms(seed, stream, n) >= p).astype(np.int8)


def _uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """The ``n`` uniforms of stream ``stream`` under the root ``seed``, unchecked, built as numpy builds them."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,)))).random(n)


def _hashmix(values: np.ndarray, h: int, mult: int, n: int) -> tuple[np.ndarray, int]:
    """numpy's ``SeedSequence`` hash of ``n`` uint32 columns (``values`` broadcast),
    the i-th under the i-th hash constant from ``h`` on, and the constant after them."""
    h = [h * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(n + 1)]
    values = (values ^ np.array(h[:-1], dtype=np.uint32)) * np.array(h[1:], dtype=np.uint32)
    return values ^ (values >> np.uint32(16)), h[-1]


def _stream_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """Row ``s - lo`` is ``SeedSequence(seed, spawn_key=(s,)).generate_state(4, np.uint64)``,
    for streams ``lo <= s < hi <= 2**64``: numpy's root pool, then numpy's mixing
    of each key's uint32 words and its state generation, on all the rows at once.
    The constants are numpy's INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R, INIT_B, MULT_B."""
    if lo < 1 << 32 < hi:
        return np.concatenate([_stream_words(seed, lo, 1 << 32), _stream_words(seed, 1 << 32, hi)])
    # The hash constant after the root's words: 4 fills, 12 cross mixes, 4 a word past 4.
    h = 0x43B0D7E5 * pow(0x931E8875, 16 + 4 * max(0, -(-int(seed).bit_length() // 32) - 4), 1 << 32) & 0xFFFFFFFF
    keys = np.arange(lo, hi, dtype=np.uint64)[:, None]
    pool = np.random.SeedSequence(seed).pool
    # A key below 2**32 is one uint32 word, a larger one two, low word first.
    for word in [keys] if hi <= 1 << 32 else [keys, keys >> np.uint64(32)]:
        mixed, h = _hashmix(word.astype(np.uint32), h, 0x931E8875, 4)
        pool = pool * np.uint32(0xCA01F9DD) - mixed * np.uint32(0x4973F715)
        pool ^= pool >> np.uint32(16)
    state = _hashmix(np.concatenate([pool, pool], axis=1), 0x8B51F9DD, 0x58F38DED, 8)[0]
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words():
    """An ``ISeedSequence`` handing PCG64 the words it holds, made on first use:
    importing ``numpy.random`` with the package would add about 12 ms to every run."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _check_start(start) -> None:
    # A bare number of turns would fail deep in the run, as an AttributeError.
    if not isinstance(start, Angle):
        raise ValueError(f"start must be an Angle, got {type(start).__name__}")


@dataclass(frozen=True, eq=False)
class IfsRun:
    """One random orbit's pair gains, its mixed pairs (``k_m`` of them) and total gain."""

    symbols: np.ndarray
    pair_mixed: np.ndarray
    pair_gains: np.ndarray
    k_m: int
    delta_total: float


def run_ifs(
    config: IfsConfig,
    start: Angle = DEFAULT_START,
    stream: int = 0,
    symbols: np.ndarray | None = None,
) -> IfsRun:
    """Run one symbol sequence from the angle ``start`` and record its per-pair gains.

    The gains do not depend on the radius, so the start is an angle.
    ``symbols`` may be injected (e.g. to pin an orbit to an invariant ray) as
    a 1-D sequence of ``horizon`` values, each exactly 0 or 1; otherwise they
    are drawn from the config's stream.
    """
    _check_start(start)
    rp, ap = config.profiles()
    if symbols is None:
        symbols = bernoulli_sequence(config.p, config.horizon, config.seed, stream)
    else:
        symbols = np.asarray(symbols)
        if symbols.shape != (config.horizon,) or not np.all((symbols == 0) | (symbols == 1)):
            raise ValueError(f"symbols must be a 1-D sequence of {config.horizon} values, each 0 or 1")
        symbols = symbols.astype(np.int8)
    # The angle does not depend on the radius: the loop moves only the angle
    # and records where each step reads the slow arc, at theta + s/2.  The
    # drift d (1 - cos 2 pi t) / 2 is read at theta itself: f1 reads it at
    # theta + 1/2, where the cosine is -cos 2 pi theta, so the sign g of the
    # cosine's term, -d/2 or +d/2, picks the map.
    th = start.value
    shifted = []
    half_d = 0.5 * ap.d
    cos = math.cos
    for sym in symbols.tolist():
        if sym:
            shifted.append(th + 0.5)
            g = half_d
        else:
            shifted.append(th)
            g = -half_d
        th = (th + (g * cos(TWO_PI * th) + half_d)) % 1.0
    # The a-free fractions are summed from 0, in step order, as the lock-step
    # engine adds them.  A mixed pair reads q = 1.0 exactly at least once, so
    # its gain rounds to at least a - 2.
    q = rp.slow_arc_fraction(np.array(shifted))
    pair_mixed = symbols[0::2] != symbols[1::2]
    return IfsRun(
        symbols=symbols,
        pair_mixed=pair_mixed,
        pair_gains=config.a * (q[0::2] + q[1::2]) - 2.0,
        k_m=int(np.count_nonzero(pair_mixed)),
        delta_total=float(config.a * np.cumsum(q)[-1] - config.horizon),
    )


@dataclass(frozen=True, eq=False)
class IfsStats:
    """Aggregated growth statistics over independent sequences.

    Stores the per-sequence terminal gains and mixed-pair counts; the
    aggregates derive from them.
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
        # Scaled by a power of two, exactly, so that no square overflows.
        slopes = self.deltas / self.m
        scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(slopes))))[1])
        return float(np.std(slopes * scale, ddof=1)) / scale / math.sqrt(self.n)

    def slope_ci(self) -> tuple[float, float]:
        """The normal 95% interval of the mean per-pair slope."""
        half = 1.96 * self.slope_se
        return (self.mean_pair_gain - half, self.mean_pair_gain + half)

    @property
    def recurrence(self) -> RecurrenceCheck:
        """The mean per-pair slope against its floor K, within 3 standard errors
        taken across sequences (pairs within one orbit are not independent)."""
        gain, se = self.mean_pair_gain, self.slope_se
        bound = theoretical_bounds(self.config.p, self.config.a).K
        return RecurrenceCheck(gain, bound, se, satisfied=gain >= bound - 3.0 * se)


def monte_carlo(config: IfsConfig, start: Angle = DEFAULT_START) -> IfsStats:
    """Aggregate independent runs over streams 0 .. n_sequences - 1."""
    return monte_carlo_grid([config], start)[0]


def monte_carlo_grid(configs, start: Angle = DEFAULT_START) -> list[IfsStats]:
    """``monte_carlo`` of each config, for configs that differ only in ``a`` and ``p``.

    The symbols and the angle orbit depend on ``p``, ``d`` and the seed but
    not on ``a``, so all configs share one run.  Its lanes are (stream) x
    (distinct ``p``), each stream's ``p`` values side by side, and every
    lane's angle moves once per step.  Streams advance in lock-step, in chunks
    holding at most ``CHUNK_SYMBOLS`` symbols.  A chunk seeds its streams in
    one array pass (``_stream_words``, numpy's children bit for bit), and each
    stream draws its uniforms into one held buffer and thresholds them against
    every ``p`` into its rows of the lane-major symbols.  Within a chunk the
    steps run in blocks of at most ``planar.GAIN_CELLS`` angles: the step loop
    moves the angles only, and after each block one ``slow_arc_fraction`` call
    reads every angle of the block, whose rows are added to each lane's sum
    ``S`` in step order.  Each config maps its ``p``'s sums to its gains
    ``a S - horizon``.  Every step moves every lane's angle by the half-turn
    identity (see the module docstring), ``multiply, cos, multiply, add, add,
    floor, subtract`` on held buffers, with each block's sign rows ``g``
    written once from its symbols into the block's read buffer; no profile
    method runs per step, so a wrapper on ``AngularProfile.delta_theta`` sees
    no call from the engine.  The block's read, its angles and the lane
    buffers are allocated once per chunk and written through ``out`` by every
    step and block.
    """
    _check_start(start)
    configs = list(configs)
    if not configs:
        raise ValueError("monte_carlo_grid needs at least one config")
    # The other fields as one list per config, so that a NaN object equals
    # itself, as in dataclass equality.
    others = [f.name for f in fields(IfsConfig) if f.name not in ("a", "p")]
    base = configs[0]
    key = [getattr(base, name) for name in others]
    if any([getattr(c, name) for name in others] != key for c in configs):
        raise ValueError("the configs of one grid may differ only in a and p")
    # Distinct p values in first-seen order; duplicate p values read the same lanes.
    p_index = {p: i for i, p in enumerate(dict.fromkeys(c.p for c in configs))}
    radial, ap = base.profiles()
    p_col = np.array(list(p_index))[:, None]
    n_p, n, horizon = len(p_index), base.n_sequences, base.horizon
    sums = np.empty((n_p, n))
    k_counts = np.empty((n_p, n), dtype=np.int64)
    streams = max(1, CHUNK_SYMBOLS // (horizon * n_p))
    generator, pcg64, seed_words = np.random.Generator, np.random.PCG64, _seed_words()
    uniforms = np.empty(horizon)
    # The step's constants as 0-d arrays, which a ufunc takes as they are
    # where it boxes a Python float anew on every call.
    d = ap.d
    two_pi, half_d = np.array(TWO_PI), np.array(0.5 * d)
    add, multiply, subtract, cos, floor = np.add, np.multiply, np.subtract, np.cos, np.floor
    for lo in range(0, n, streams):
        hi = min(lo + streams, n)
        width = hi - lo
        # Lane-major: lane (s - lo) * n_p + i holds stream s under the i-th p,
        # so each stream thresholds its uniforms against every p straight into
        # n_p contiguous rows, as bernoulli_sequence thresholds them; each
        # block reads its steps through the transpose.
        lanes = width * n_p
        rows = np.empty((lanes, horizon), dtype=np.int8)
        slabs = rows.reshape(width, n_p, horizon)
        for words, slab in zip(_stream_words(base.seed, lo, hi), slabs):
            generator(pcg64(seed_words(words))).random(horizon, out=uniforms)
            np.greater_equal(uniforms, p_col, out=slab)
        k_counts[:, lo:hi] = np.count_nonzero(slabs[..., 0::2] != slabs[..., 1::2], axis=2).T
        # The same operations as run_ifs, one lane per (stream, p); x - floor(x)
        # is run_ifs's % 1.0 bit for bit (see circle._mod1).  Every buffer is
        # allocated here, once per chunk: the block's angles with one row more
        # for the angle after it, the block's read, which holds its sign rows
        # until its steps are done, and the lanes' step and sums.
        block = min(horizon, max(1, GAIN_CELLS // lanes))
        thetas = np.empty((block + 1, lanes))
        thetas[0] = start.value
        read = np.empty((block, lanes))
        step = np.empty(lanes)
        total = np.zeros(lanes)
        # Each row's view, made once: a step takes three.
        angle_rows, read_rows = list(thetas), list(read)
        for b in range(0, horizon, block):
            length = min(block, horizon - b)
            symbols = rows[:, b:b + length].T
            angles, signs = thetas[:length], read[:length]
            # Each step's g, -d/2 under f0 and +d/2 under f1, exactly.
            multiply(subtract(symbols, 0.5, signs), d, signs)
            # Step i moves angle i to angle i + 1 in 7 ufunc calls and no
            # Python call: a step on a few hundred lanes costs more in numpy's
            # per-call overhead than in arithmetic.
            for t, g, after in zip(angle_rows[:length], read_rows, angle_rows[1:length + 1]):
                multiply(two_pi, t, step)
                cos(step, step)
                multiply(g, step, step)
                add(step, half_d, step)
                add(t, step, step)
                floor(step, after)
                subtract(step, after, after)
            # The block's angles, shifted by their half turns in place, are
            # read at once; the angle after the block starts the next one.
            add(angles, multiply(0.5, symbols, signs), angles)
            radial.slow_arc_fraction(angles, out=signs)
            # Added one step at a time, as run_ifs's cumsum adds them; a sum
            # over the block would round in another order.
            for row in read_rows[:length]:
                total += row
            thetas[0] = thetas[length]
        sums[:, lo:hi] = total.reshape(width, n_p).T
    # Each cell maps its p's sums into a new array, duplicate cells included.
    return [
        IfsStats(
            config=c,
            deltas=c.a * sums[p_index[c.p]] - horizon,
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
    satisfied: bool
