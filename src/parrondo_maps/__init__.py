"""Pairs of globally attracting homeomorphisms whose compositions repel.

The package builds the maps on the cylinder (log-radius, angle in turns),
verifies the structural conditions behind the stability reversal as
machine-checkable predicates, lifts the construction to any dimension k >= 3,
and runs the Bernoulli-randomized composition experiments in which almost
every random orbit escapes to infinity.
"""

__version__ = "0.1.0"

from .circle import (
    Angle,
    CircleInterval,
    circle_dist,
    interval_gap,
    monotone_circle_inverse,
    wrap_turns,
)
from .dynamics import (
    Classification,
    OrbitClass,
    OrbitTrace,
    classify_orbit,
    detect_trap_entry,
    iterate,
)
from .highdim import (
    ConeCheck,
    apply_h,
    apply_h_k,
    apply_j_k,
    check_cone_condition,
)
from .ifs import (
    IfsConfig,
    IfsRun,
    IfsStats,
    RecurrenceCheck,
    TheoreticalBounds,
    bernoulli_sequence,
    expectation_recurrence_check,
    monte_carlo,
    monte_carlo_grid,
    run_ifs,
    sequence_rng,
    theoretical_bounds,
)
from .planar import (
    CylPoint,
    GainStudy,
    Letter,
    MapWord,
    angular_escape_margin,
    apply_f0,
    apply_f1,
    apply_word,
    composition_radial_gain,
    inverse_f0,
    semistable_1d,
    word_step,
)
from .profiles import (
    AngularProfile,
    AngularShape,
    CheckResult,
    RadialProfile,
    ValidationReport,
    default_profiles,
    make_angular_profile,
    make_radial_profile,
    trapping_interval,
    validate_profiles,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
