"""Independent reference for the random-alternation experiment.

Written from the construction's formulas alone, without importing the
library, so that the ``mc_escape`` checks never rest on ``run_ifs`` checking
itself:

* symbol stream ``i`` of root seed ``s`` draws ``u`` from
  ``PCG64(SeedSequence(s, spawn_key=(i,)))``; symbol 0 (map ``f0``) when
  ``u < p``, else 1 (map ``f1``);
* ``f0`` adds ``delta_r(theta)`` to the log-radius and
  ``d (1 - cos 2 pi theta) / 2`` to the angle (turns), where ``delta_r`` is
  the tent equal to ``a - 1`` at distance ``>= w`` from angle 0 and
  ``a * dist / w - 1`` inside;
* ``f1`` is ``f0`` conjugated by the half turn, i.e. both increments are
  read at ``theta + 1/2``.
"""

from __future__ import annotations

import math

import numpy as np


def symbols(p: float, horizon: int, seed: int, stream: int) -> np.ndarray:
    u = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,)))).random(horizon)
    return (u >= p).astype(np.int8)


def mixed_pairs(sym: np.ndarray) -> int:
    """k_m: the number of disjoint consecutive pairs (01 or 10) that mix the maps."""
    return int(np.count_nonzero(sym[0::2] != sym[1::2]))


def radial_increment(theta: float, a: float, w: float) -> float:
    dist = abs(theta - round(theta))
    return a - 1.0 if dist >= w else a * dist / w - 1.0


def drift(theta: float, d: float) -> float:
    return 0.5 * d * (1.0 - math.cos(2.0 * math.pi * theta))


def orbit_gain(sym: np.ndarray, a: float, w: float, d: float, theta0: float) -> float:
    """Total log-radius gain of the random orbit driven by ``sym``."""
    r = 0.0
    theta = theta0
    for s in sym.tolist():
        t = theta + 0.5 * s
        r += radial_increment(t, a, w)
        theta = (theta + drift(t, d)) % 1.0
    return r
