"""Command-line front end: verify the construction, run orbits and experiments.

Commands
--------
verify   check the profile conditions, the certified composition gains and
         (for k >= 3) the cone condition; exit 0 only if everything passes (JSON)
orbit    iterate a named map or a word and write the trace (CSV or JSON)
ifs      run the randomized-composition Monte Carlo and write statistics
         (JSON or CSV)
sweep    tabulate admissibility and empirical growth over (p, a) grids (CSV)

Exit codes: 0 success / checks passed, 1 a verification check failed,
2 malformed configuration (a size the machine cannot allocate included),
3 output could not be written.

Each option and its default are declared once, in the parser, and each
command declares only the options it reads.  Flags override values from an
optional JSON config file (--config), which override the declared defaults.
Each ``cmd_<command>`` returns ``(exit_code, body)``, a JSON body being a dict
of the payload's own fields and a CSV body a ``(columns, rows)`` pair;
``_render``, the one place that writes the record, adds the library version
and the fully resolved configuration, and ``main`` writes it once.  Rerunning
an echoed configuration (a config file may repeat its own ``command``)
reproduces the output byte for byte.  JSON outputs write non-finite numbers
as null; ``_plain`` holds the JSON form of every result.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circle import Angle, CircleInterval
from .dynamics import DEFAULT_TOL, DEFAULT_WINDOW, classify_orbit, iterate
from .highdim import apply_h, apply_h_k, apply_j_k, check_cone_condition
from .ifs import (
    DEFAULT_START,
    ESCAPE_THRESHOLD,
    IfsConfig,
    monte_carlo,
    monte_carlo_grid,
    theoretical_bounds,
)
from .planar import (
    CylPoint,
    MapWord,
    apply_f0,
    apply_f1,
    composition_radial_gain,
    word_step,
)
from .profiles import (
    DEFAULT_A,
    DEFAULT_D,
    DEFAULT_W,
    AngularProfile,
    RadialProfile,
    default_profiles,
    trapping_interval,
    validate_profiles,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_WRITE_FAILED = 3


def _build_parsers():
    """A new top-level parser and the action holding its subcommand parsers.

    The parsers hold no functions: ``main`` finds ``cmd_<command>`` by name.
    """
    parser = argparse.ArgumentParser(
        prog="parrondo",
        description="Attracting map pairs with repelling compositions: verification and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help, *, fmt=None, a=True, seed=True):
        """A subcommand with the common options it reads.  Abbreviations are
        off, so an undeclared option is an error, not a prefix of a declared
        one (sweep's --a of --a-grid)."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        # -5,0.25, -1e3 and -inf are values: no option here starts with "-" and a digit, "-i" or "-n".
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        if a:
            p.add_argument("--a", type=float, default=DEFAULT_A,
                           help="radial expansion parameter (default %(default)s)")
        p.add_argument("--w", type=float, default=DEFAULT_W,
                       help="slow-arc half width in turns (default %(default)s)")
        p.add_argument("--d", type=float, default=DEFAULT_D,
                       help="angular drift amplitude in turns (default %(default)s)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="root seed for seeded sampling (default %(default)s)")
        p.add_argument("--out", help="output path (default: stdout)")
        if fmt is not None:
            p.add_argument("--format", choices=["csv", "json"], default=fmt,
                           help="output format (default %(default)s)")
        p.add_argument("--config", help="JSON config file; flags override its values")
        return p

    def add_start(p):
        p.add_argument("--start", default=f"0,{DEFAULT_START.value!r}",
                       help="cylinder start 'r,theta' (default %(default)s)")

    pv = add_command("verify", "run the structural checks and certified gain bounds (JSON)")
    pv.add_argument("--k", type=int, default=2,
                    help="dimension; k >= 3 adds the cone condition check (default %(default)s)")
    pv.add_argument("--grid", type=int, default=100_000,
                    help="grid size for the gain certificates (default %(default)s)")
    pv.add_argument("--samples", type=int, default=100_000,
                    help="seeded directions on the (x_0, x_last) great circle for the cone check's "
                         "composed-gain minima (default %(default)s)")

    po = add_command("orbit", "iterate a map and write the trace", fmt="csv", seed=False)
    po.add_argument("--map", choices=["f0", "f1", "h", "hk", "jk"], default="f0",
                    help="named map to iterate (default %(default)s)")
    po.add_argument("--word", help="composition word such as 'f0,f1' or '01'; overrides --map")
    add_start(po)
    po.add_argument("--start-cart", dest="start_cart",
                    help="Cartesian start 'x1,x2,...' for the hk/jk maps (default all ones)")
    po.add_argument("--steps", type=int, default=1000, help="number of iterations (default %(default)s)")
    po.add_argument("--k", type=int, default=3, help="dimension for hk/jk (default %(default)s)")
    po.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                    help="classification window, at most --steps (default %(default)s)")
    po.add_argument("--tol", type=float, default=DEFAULT_TOL, help="classification tolerance (default %(default)s)")

    pi = add_command("ifs", "randomized-composition Monte Carlo", fmt="json")
    pi.add_argument("--p", type=float, default=0.5, help="probability of the first map (default %(default)s)")
    pi.add_argument("--horizon", "--steps", dest="horizon", type=int, default=2000,
                    help="steps per sequence, even (default %(default)s)")
    pi.add_argument("--sequences", type=int, default=1000, help="number of sequences (default %(default)s)")
    pi.add_argument("--escape-threshold", dest="escape_threshold", type=float, default=ESCAPE_THRESHOLD,
                    help="terminal gain counted as escape (default %(default)s)")
    add_start(pi)

    ps = add_command("sweep", "admissibility and growth over (p, a) grids (CSV)", a=False)
    ps.add_argument("--p-grid", dest="p_grid", help="comma list '0.1,0.5' or range 'start:stop:count'")
    ps.add_argument("--a-grid", dest="a_grid", help="comma list or range of expansion values")
    ps.add_argument("--horizon", type=int, default=400,
                    help="steps per sequence in each cell (default %(default)s)")
    ps.add_argument("--sequences", type=int, default=100, help="sequences per cell (default %(default)s)")

    return parser, sub


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process; callers must not change it."""
    return _build_parsers()[0]


def _load_file_config(path: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a JSON object")
    return obj


def _file_value(action: argparse.Action, value):
    """A config-file value, checked and converted as the same flag's text would be.

    argparse converts only string defaults and never checks them against
    ``choices``, so this does both.  ``null`` is kept only where the option's
    own default is null (an echoed, unset ``--word`` or ``--start-cart``).
    """
    key = action.dest
    if value is None and action.default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        kind = action.type.__name__ if action.type else "str"
        raise ValueError(f"config key {key!r} takes a {kind}, got {json.dumps(value)}")
    text = str(value)
    try:
        value = action.type(text) if action.type else text
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: invalid {action.type.__name__} value {text!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: {value!r} is not one of {sorted(action.choices)}")
    return value


def _parse(argv) -> argparse.Namespace:
    """Parse the command line; with --config, parse it again over the file's values.

    The file's values become the subcommand's defaults, so flags still win;
    each value is checked and converted like the same flag first.  The
    second parse runs on a new parser pair, so the shared one keeps the
    declared defaults.
    """
    args = build_parser().parse_args(argv)
    if args.config:
        file_cfg = _load_file_config(args.config)
        parser, sub = _build_parsers()
        command = sub.choices[args.command]
        # Every option of the subcommand is a config key; the command and the
        # config path are not, though an echoed config may repeat its own
        # command.  argparse offers no public list of a parser's options,
        # hence ``_actions``.
        if file_cfg.get("command") == args.command:
            del file_cfg["command"]
        options = {a.dest: a for a in command._actions if a.dest in vars(args) and a.dest != "config"}
        unknown = set(file_cfg) - set(options)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        command.set_defaults(**{key: _file_value(options[key], v) for key, v in file_cfg.items()})
        args = parser.parse_args(argv)
    return args


def _parse_floats(text: str) -> list[float]:
    """The numbers of a comma list; empty text has none, and an empty field is refused."""
    if not text:
        return []
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_grid(text) -> list[float]:
    if text is None:
        raise ValueError("missing grid specification")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range grids use 'start:stop:count', got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"bad range grid {text!r}") from exc
        if count < 1:
            raise ValueError("grid count must be positive")
        if not math.isfinite(stop - start):  # else np.linspace warns
            raise ValueError(f"range grid ends and their span must be finite, got {text!r}")
        return [float(x) for x in np.linspace(start, stop, count)]
    values = _parse_floats(text)
    if not values:
        raise ValueError(f"empty grid {text!r}")
    return values


def _write(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    Path(out).write_text(text)


def _plain(value):
    """The JSON form of a payload: a result dataclass becomes an object of its
    fields, an angle its turns, a tuple a list, and a non-finite number null
    (JSON has no Infinity or NaN)."""
    if isinstance(value, Angle):
        return value.value
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _render(params: dict, body) -> str:
    """The record of a run: its body with the library version and the echoed
    configuration, every option except the output and config paths."""
    config = {k: v for k, v in params.items() if k not in ("out", "config")}
    if isinstance(body, dict):
        return _dump_json(_plain({"version": __version__, "config": config, **body}))
    columns, rows = body
    header = [f"# version: {__version__}", f"# config: {json.dumps(config, sort_keys=True, allow_nan=False)}"]
    return "\n".join([*header, columns, *rows]) + "\n"


def _int_option(params: dict, name: str, least: int) -> int:
    """An integer option that must be at least ``least``; the error names the flag."""
    value = params[name]
    if value < least:
        raise ValueError(f"--{name} must be at least {least}, got {value}")
    return value


def cmd_verify(params: dict):
    a, w, d, seed = params["a"], params["w"], params["d"], params["seed"]
    k = _int_option(params, "k", 2)
    samples, grid = _int_option(params, "samples", 1), _int_option(params, "grid", 2)
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    for name, value in (("a", a), ("d", d)):
        if not math.isfinite(value):
            raise ValueError(f"--{name} must be finite, got {value}")
    if not math.isfinite(2.0 * a):
        raise ValueError(f"--a is too large: a word of two maps gains up to 2 (a - 1), got {a}")
    if not 0.0 < w < 0.5:
        raise ValueError(f"w must lie in (0, 1/2) to describe an arc, got {w}")
    # Raw profiles on purpose: out-of-range parameters must surface as failed
    # checks with witnesses, not as exceptions.
    rp = RadialProfile(a, w)
    ap = AngularProfile(d, w)
    report = validate_profiles(rp, ap, require_even=k >= 3)
    gain_01 = composition_radial_gain(MapWord.parse("f0,f1"), rp, ap, grid_n=grid)
    gain_10 = composition_radial_gain(MapWord.parse("f1,f0"), rp, ap, grid_n=grid)
    cone = None
    if k >= 3:
        cone = check_cone_condition(rp, ap, k, n_samples=samples, seed=seed)
    gains_ok = all(g.certified and g.min_gain > 0.0 for g in (gain_01, gain_10))
    passed = report.passed and gains_ok and (cone is None or cone.holds)
    body = {
        "profile_checks": report.checks,
        "compositions": {"f0,f1": gain_01, "f1,f0": gain_10},
        "cone": cone,
        "passed": passed,
    }
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), body


def _parse_cyl_start(text) -> CylPoint:
    values = _parse_floats(text)
    if len(values) != 2:
        raise ValueError(f"cylinder start needs 'r,theta', got {text!r}")
    try:
        return CylPoint(values[0], Angle(values[1]))
    except ValueError as exc:
        raise ValueError(f"bad cylinder start {text!r}: {exc}") from exc


def _build_orbit(params: dict):
    """Resolve (step function, start point, trapping arc) from orbit parameters."""
    k = _int_option(params, "k", 3)
    rp, ap = default_profiles(params["a"], params["w"], params["d"])
    name = params["map"]
    if params["start_cart"] is not None and (params["word"] is not None or name not in ("hk", "jk")):
        raise ValueError("--start-cart applies only to --map hk or jk without --word")
    if params["word"] is not None:
        word = MapWord.parse(params["word"])
        return word_step(word, rp, ap), _parse_cyl_start(params["start"]), None
    # An arc is built only for the map that reads it, so an arc that rounds
    # to nothing refuses no other map.
    planar = {
        "f0": (apply_f0, lambda: trapping_interval(rp)),
        "f1": (apply_f1, lambda: trapping_interval(rp).translate(0.5)),
        "h": (apply_h, lambda: CircleInterval(Angle(0.5), rp.w / rp.a / 2.0)),
    }
    if name in planar:
        fn, trap = planar[name]
        return (lambda p: fn(rp, ap, p)), _parse_cyl_start(params["start"]), trap()
    start = np.ones(k)
    if params["start_cart"] is not None:
        start = np.asarray(_parse_floats(params["start_cart"]), dtype=float)
        if start.shape[0] != k:
            raise ValueError(f"--start-cart has {start.shape[0]} coordinates but k = {k}")
    fn = apply_h_k if name == "hk" else apply_j_k
    return (lambda x: fn(rp, ap, x)), start, None


def _trace_rows(trace) -> list[str]:
    rows = []
    for i, (r, t) in enumerate(zip(trace.rs, trace.thetas)):
        gain = "" if i == 0 else repr(float(trace.gains[i - 1]))
        rows.append(f"{i},{float(r)!r},{float(t)!r},{gain}")
    return rows


def cmd_orbit(params: dict):
    steps = _int_option(params, "steps", 1)
    step, start, trap = _build_orbit(params)
    window = params["window"]
    if window > steps:
        raise ValueError(f"window {window} exceeds the {steps}-step orbit")
    trace = iterate(step, start, steps, trap=trap)
    # An orbit cut short by an escape is classified over the steps it ran.
    label, rate = classify_orbit(trace, min(window, trace.n_steps), params["tol"])
    print(
        f"classification={label.value} rate={rate:.6g} "
        f"steps={trace.n_steps} trap_entry={trace.entered_trap_at}",
        file=sys.stderr,
    )
    if params["format"] == "csv":
        return EXIT_OK, ("step,r,theta,gain", _trace_rows(trace))
    return EXIT_OK, {
        "points": [[i, r, t] for i, (r, t) in enumerate(zip(trace.rs.tolist(), trace.thetas.tolist()))],
        "gains": trace.gains.tolist(),
        "classification": label.value,
        "rate": rate,
    }


def cmd_ifs(params: dict):
    config = IfsConfig(
        p=params["p"], a=params["a"], seed=params["seed"], horizon=params["horizon"],
        n_sequences=_int_option(params, "sequences", 1), w=params["w"], d=params["d"],
        escape_threshold=params["escape_threshold"],
    )
    stats = monte_carlo(config, _parse_cyl_start(params["start"]).theta)
    if params["format"] == "csv":
        rows = [f"{i},{stats.m},{int(k_m)},{float(delta)!r}"
                for i, (k_m, delta) in enumerate(zip(stats.k_counts, stats.deltas))]
        return EXIT_OK, ("sequence_id,m,k_m,delta_2m", rows)
    bounds = theoretical_bounds(config.p, config.a)
    admissible = bounds.label == "admissible"
    # Single-sequence runs have no spread estimate: their standard errors and
    # the interval's ends are infinite, written as null.
    lo, hi = stats.slope_ci()
    return EXIT_OK, {
        "bounds": bounds,
        "admissible": admissible,
        "label": "ADMISSIBLE" if admissible else "INADMISSIBLE",
        "stats": {
            "n_sequences": stats.n,
            "pairs_per_sequence": stats.m,
            "mean_pair_gain": stats.mean_pair_gain,
            "mean_mixed_fraction": stats.mean_mixed_fraction,
            "escape_fraction": stats.escape_fraction,
            "slope_se": stats.slope_se,
            "slope_ci_low": lo,
            "slope_ci_high": hi,
        },
        "recurrence": stats.recurrence,
    }


def cmd_sweep(params: dict):
    ps = _parse_grid(params["p_grid"])
    a_values = _parse_grid(params["a_grid"])
    n_sequences = _int_option(params, "sequences", 1)
    # Every cell, in grid order, validated before anything is echoed; the
    # cells differ only in (p, a), so they all advance in one lock-step run.
    configs = [
        IfsConfig(
            p=p, a=a, seed=params["seed"], horizon=params["horizon"],
            n_sequences=n_sequences, w=params["w"], d=params["d"],
        )
        for p in ps
        for a in a_values
    ]
    rows = []
    for stats in monte_carlo_grid(configs):
        p, a = stats.config.p, stats.config.a
        bounds = theoretical_bounds(p, a)
        rows.append(
            f"{p!r},{a!r},{bounds.a_min!r},{bounds.K!r},{bounds.pair_slope_lb!r},"
            f"{stats.mean_pair_gain!r},{stats.escape_fraction!r},{bounds.label}"
        )
    return EXIT_OK, ("p,a,a_min,K,pair_slope_lb,empirical_slope,escape_fraction,admissibility", rows)


def main(argv=None) -> int:
    try:
        params = vars(_parse(argv))
        code, body = globals()[f"cmd_{params['command']}"](params)
        _write(params["out"], _render(params, body))
        return code
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_WRITE_FAILED


if __name__ == "__main__":
    sys.exit(main())
