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
2 malformed configuration, 3 output could not be written.

Each option and its default are declared once, in the parser, and each
command declares only the options it reads.  Flags override values from an
optional JSON config file (--config), which override the declared defaults;
every output embeds the fully resolved configuration and the library version,
and rerunning an echoed configuration reproduces the output byte for byte.
JSON outputs write non-finite numbers as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circle import Angle, CircleInterval
from .dynamics import DEFAULT_TOL, DEFAULT_WINDOW, classify_orbit, iterate
from .errors import ParrondoError
from .highdim import apply_h, apply_h_k, apply_j_k, check_cone_condition
from .ifs import (
    ESCAPE_THRESHOLD,
    IfsConfig,
    expectation_recurrence_check,
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


class ConfigError(ValueError):
    pass


def _build_parsers():
    """The top-level parser and the action holding its subcommand parsers."""
    parser = argparse.ArgumentParser(
        prog="parrondo",
        description="Attracting map pairs with repelling compositions: verification and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help, *, fmt=None, a=True, seed=True):
        """A subcommand with the common options it reads.  Abbreviations are
        off, so an undeclared option is an error, not a prefix of a declared
        one (sweep's --a of --a-grid)."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
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
        p.set_defaults(handler=handler)
        return p

    def add_start(p):
        p.add_argument("--start", default="0,0.25", help="cylinder start 'r,theta' (default %(default)s)")

    pv = add_command("verify", cmd_verify, "run the structural checks and certified gain bounds (JSON)")
    pv.add_argument("--k", type=int, default=2,
                    help="dimension; k >= 3 adds the cone condition check (default %(default)s)")
    pv.add_argument("--grid", type=int, default=100_000,
                    help="grid size for the gain certificates (default %(default)s)")
    pv.add_argument("--samples", type=int, default=100_000,
                    help="seeded directions on the (x_0, x_last) great circle for the cone check's "
                         "composed-gain minima (default %(default)s)")

    po = add_command("orbit", cmd_orbit, "iterate a map and write the trace", fmt="csv", seed=False)
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

    pi = add_command("ifs", cmd_ifs, "randomized-composition Monte Carlo", fmt="json")
    pi.add_argument("--p", type=float, default=0.5, help="probability of the first map (default %(default)s)")
    pi.add_argument("--horizon", "--steps", dest="horizon", type=int, default=2000,
                    help="steps per sequence, even (default %(default)s)")
    pi.add_argument("--sequences", type=int, default=1000, help="number of sequences (default %(default)s)")
    pi.add_argument("--escape-threshold", dest="escape_threshold", type=float, default=ESCAPE_THRESHOLD,
                    help="terminal gain counted as escape (default %(default)s)")
    add_start(pi)

    ps = add_command("sweep", cmd_sweep, "admissibility and growth over (p, a) grids (CSV)", a=False)
    ps.add_argument("--p-grid", dest="p_grid", help="comma list '0.1,0.5' or range 'start:stop:count'")
    ps.add_argument("--a-grid", dest="a_grid", help="comma list or range of expansion values")
    ps.add_argument("--horizon", type=int, default=400,
                    help="steps per sequence in each cell (default %(default)s)")
    ps.add_argument("--sequences", type=int, default=100, help="sequences per cell (default %(default)s)")

    return parser, sub


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _load_file_config(path: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config file must hold a JSON object")
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
        raise ConfigError(f"config key {key!r} takes a {kind}, got {json.dumps(value)}")
    text = str(value)
    try:
        value = action.type(text) if action.type else text
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: invalid {action.type.__name__} value {text!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {sorted(action.choices)}")
    return value


def _parse(argv) -> argparse.Namespace:
    """Parse the command line; with --config, parse it again over the file's values.

    The file's values become the subcommand's defaults, so flags still win;
    each value is checked and converted like the same flag first.
    """
    parser, sub = _build_parsers()
    args = parser.parse_args(argv)
    if args.config:
        file_cfg = _load_file_config(args.config)
        command = sub.choices[args.command]
        # Every option of the subcommand is a config key; the command, the
        # config path and the handler are not.  argparse offers no public
        # list of a parser's options, hence ``_actions``.
        options = {a.dest: a for a in command._actions if a.dest in vars(args) and a.dest != "config"}
        unknown = set(file_cfg) - set(options)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        command.set_defaults(**{key: _file_value(options[key], v) for key, v in file_cfg.items()})
        args = parser.parse_args(argv)
    return args


def _echo_config(params: dict) -> dict:
    """The reproducibility record: every option except the output and config paths."""
    return {k: v for k, v in params.items() if k not in ("out", "config", "handler")}


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_grid(text) -> list[float]:
    if text is None:
        raise ConfigError("missing grid specification")
    text = str(text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range grids use 'start:stop:count', got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad range grid {text!r}") from exc
        if count < 1:
            raise ConfigError("grid count must be positive")
        return [float(x) for x in np.linspace(start, stop, count)]
    values = _parse_floats(text)
    if not values:
        raise ConfigError(f"empty grid {text!r}")
    return values


def _write(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    Path(out).write_text(text)


def _finite(x) -> float | None:
    """JSON has no Infinity or NaN, so non-finite numbers are written as null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_header(config: dict, columns: str) -> list[str]:
    return [
        f"# version: {__version__}",
        f"# config: {json.dumps(config, sort_keys=True, allow_nan=False)}",
        columns,
    ]


def cmd_verify(params: dict) -> int:
    a, w, d, k = float(params["a"]), float(params["w"]), float(params["d"]), int(params["k"])
    if not 0.0 < w < 0.5:
        raise ConfigError(f"w must lie in (0, 1/2) to describe an arc, got {w}")
    # Raw profiles on purpose: out-of-range parameters must surface as failed
    # checks with witnesses, not as exceptions.
    rp = RadialProfile(a, w)
    ap = AngularProfile(d, w)
    report = validate_profiles(rp, ap, require_even=k >= 3)
    grid = int(params["grid"])
    gain_01 = composition_radial_gain(MapWord.parse("f0,f1"), rp, ap, grid_n=grid)
    gain_10 = composition_radial_gain(MapWord.parse("f1,f0"), rp, ap, grid_n=grid)
    cone = None
    if k >= 3:
        cone = check_cone_condition(rp, ap, k, n_samples=int(params["samples"]), seed=int(params["seed"]))
    gains_ok = all(g.certified and g.min_gain > 0.0 for g in (gain_01, gain_10))
    passed = report.passed and gains_ok and (cone is None or cone.holds)
    payload = {
        "version": __version__,
        "config": _echo_config(params),
        "profile_checks": report.to_dict()["checks"],
        "compositions": {"f0,f1": gain_01.to_dict(), "f1,f0": gain_10.to_dict()},
        "cone": None if cone is None else cone.to_dict(),
        "passed": passed,
    }
    _write(params["out"], _dump_json(payload))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _parse_cyl_start(text) -> CylPoint:
    values = _parse_floats(text)
    if len(values) != 2:
        raise ConfigError(f"cylinder start needs 'r,theta', got {text!r}")
    try:
        return CylPoint(values[0], Angle(values[1]))
    except ValueError as exc:
        raise ConfigError(f"bad cylinder start {text!r}: {exc}") from exc


def _build_orbit(params: dict):
    """Resolve (step function, start point, trapping arc) from orbit parameters."""
    rp, ap = default_profiles(float(params["a"]), float(params["w"]), float(params["d"]))
    name = params["map"]
    if params["word"]:
        word = MapWord.parse(str(params["word"]))
        return word_step(word, rp, ap), _parse_cyl_start(params["start"]), None
    planar = {
        "f0": (apply_f0, trapping_interval(rp)),
        "f1": (apply_f1, trapping_interval(rp).translate(0.5)),
        "h": (apply_h, CircleInterval(Angle(0.5), rp.w / (2.0 * rp.a))),
    }
    if name in planar:
        fn, trap = planar[name]
        return (lambda p: fn(rp, ap, p)), _parse_cyl_start(params["start"]), trap
    if name in ("hk", "jk"):
        k = int(params["k"])
        if params["start_cart"] is not None:
            start = np.asarray(_parse_floats(params["start_cart"]), dtype=float)
            if start.shape[0] != k:
                raise ConfigError(f"--start-cart has {start.shape[0]} coordinates but k = {k}")
        else:
            start = np.ones(k)
        fn = apply_h_k if name == "hk" else apply_j_k
        return (lambda x: fn(rp, ap, x)), start, None
    raise ConfigError(f"unknown map {name!r}")


def _trace_rows(trace) -> list[str]:
    rows = []
    for i, (r, t) in enumerate(zip(trace.rs, trace.thetas)):
        gain = "" if i == 0 else repr(float(trace.gains[i - 1]))
        rows.append(f"{i},{float(r)!r},{float(t)!r},{gain}")
    return rows


def cmd_orbit(params: dict) -> int:
    step, start, trap = _build_orbit(params)
    steps, window = int(params["steps"]), int(params["window"])
    if window > steps:
        raise ConfigError(f"window {window} exceeds the {steps}-step orbit")
    trace = iterate(step, start, steps, trap=trap)
    # An orbit cut short by an escape is classified over the steps it ran.
    label, rate = classify_orbit(trace, min(window, trace.n_steps), float(params["tol"]))
    print(
        f"classification={label.value} rate={rate:.6g} "
        f"steps={trace.n_steps} trap_entry={trace.entered_trap_at}",
        file=sys.stderr,
    )
    config = _echo_config(params)
    if params["format"] == "json":
        payload = {
            "version": __version__,
            "config": config,
            "points": [
                [i, _finite(r), _finite(t)]
                for i, (r, t) in enumerate(zip(trace.rs, trace.thetas))
            ],
            "gains": [_finite(g) for g in trace.gains],
            "classification": label.value,
            "rate": _finite(rate),
        }
        _write(params["out"], _dump_json(payload))
    else:
        lines = _csv_header(config, "step,r,theta,gain") + _trace_rows(trace)
        _write(params["out"], "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_ifs(params: dict) -> int:
    config = IfsConfig(
        p=float(params["p"]), a=float(params["a"]), seed=int(params["seed"]), horizon=int(params["horizon"]),
        n_sequences=int(params["sequences"]), w=float(params["w"]), d=float(params["d"]),
        escape_threshold=float(params["escape_threshold"]),
    )
    start = _parse_cyl_start(params["start"])
    stats = monte_carlo(config, start)
    echo = _echo_config(params)
    if params["format"] == "csv":
        lines = _csv_header(echo, "sequence_id,m,k_m,delta_2m")
        for i, (k_m, delta) in enumerate(zip(stats.k_counts, stats.deltas)):
            lines.append(f"{i},{stats.m},{int(k_m)},{float(delta)!r}")
        _write(params["out"], "\n".join(lines) + "\n")
        return EXIT_OK
    payload = {
        "version": __version__,
        "config": echo,
        "bounds": theoretical_bounds(config.p, config.a).to_dict(),
        "admissible": config.admissible,
        "label": "ADMISSIBLE" if config.admissible else "INADMISSIBLE",
        "stats": stats.to_dict(),
        "recurrence": expectation_recurrence_check(config, stats=stats).to_dict(),
    }
    _write(params["out"], _dump_json(payload))
    return EXIT_OK


def _admissibility_label(p: float, a: float) -> str:
    margin = a * p * (1.0 - p) - 1.0
    if abs(margin) <= 1e-12:
        return "boundary"
    return "admissible" if margin > 0.0 else "inadmissible"


def cmd_sweep(params: dict) -> int:
    ps = _parse_grid(params["p_grid"])
    a_values = _parse_grid(params["a_grid"])
    # Every cell, in grid order, validated before anything is echoed; the
    # cells differ only in (p, a), so they all advance in one lock-step run.
    configs = [
        IfsConfig(
            p=p, a=a, seed=int(params["seed"]), horizon=int(params["horizon"]),
            n_sequences=int(params["sequences"]), w=float(params["w"]), d=float(params["d"]),
        )
        for p in ps
        for a in a_values
    ]
    cells = monte_carlo_grid(configs)
    lines = _csv_header(
        _echo_config(params), "p,a,a_min,K,pair_slope_lb,empirical_slope,escape_fraction,admissibility"
    )
    for stats in cells:
        p, a = stats.config.p, stats.config.a
        bounds = theoretical_bounds(p, a)
        lines.append(
            f"{p!r},{a!r},{bounds.a_min!r},{bounds.K!r},{bounds.pair_slope_lb!r},"
            f"{stats.mean_pair_gain!r},{stats.escape_fraction!r},"
            f"{_admissibility_label(p, a)}"
        )
    _write(params["out"], "\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return args.handler(vars(args))
    except (ValueError, ParrondoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_WRITE_FAILED


if __name__ == "__main__":
    sys.exit(main())
