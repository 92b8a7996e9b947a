"""Pairs of globally attracting homeomorphisms whose compositions repel.

The package builds the maps on the cylinder (log-radius, angle in turns),
verifies the structural conditions behind the stability reversal as
machine-checkable predicates, lifts the construction to any dimension k >= 3,
and runs the Bernoulli-randomized composition experiments in which almost
every random orbit escapes to infinity.
"""

__version__ = "0.1.0"

from .circle import *
from .dynamics import *
from .highdim import *
from .ifs import *
from .planar import *
from .profiles import *

__all__ = [name for name in dir() if not name.startswith("_")]
