import argparse
import hashlib
import json
import math

import numpy as np
import pytest

from parrondo_maps import __version__, cli
from parrondo_maps.circle import Angle
from parrondo_maps.cli import main
from parrondo_maps.highdim import ConeCheck
from parrondo_maps.ifs import IfsConfig, monte_carlo, theoretical_bounds
from parrondo_maps.planar import GainStudy
from parrondo_maps.profiles import CheckResult, ValidationReport


def run(argv):
    return main(argv)


def strict_json(text):
    """Parse JSON as a strict parser does: NaN and Infinity are not JSON."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


# The configuration each command echoes when given no flags, as literal JSON.
ECHOED_DEFAULTS = {
    "verify": '{"a": 5.0, "command": "verify", "d": 0.25, "grid": 100000, "k": 2, '
    '"samples": 100000, "seed": 0, "w": 0.125}',
    "orbit": '{"a": 5.0, "command": "orbit", "d": 0.25, "format": "csv", "k": 3, "map": "f0", '
    '"start": "0,0.25", "start_cart": null, "steps": 1000, "tol": 0.001, "w": 0.125, "window": 100, "word": null}',
    "ifs": '{"a": 5.0, "command": "ifs", "d": 0.25, "escape_threshold": 100.0, "format": "json", "horizon": 2000, '
    '"p": 0.5, "seed": 0, "sequences": 1000, "start": "0,0.25", "w": 0.125}',
    "sweep": '{"a_grid": null, "command": "sweep", "d": 0.25, "horizon": 400, '
    '"p_grid": null, "seed": 0, "sequences": 100, "w": 0.125}',
}


def echoed_config(capsys) -> dict:
    """The config echoed by a stubbed command's rendered output: its empty
    JSON body gets the version and the echo, as every payload does."""
    return json.loads(capsys.readouterr().out)["config"]


@pytest.mark.parametrize("command", sorted(ECHOED_DEFAULTS))
def test_echoed_default_config(command, monkeypatch, capsys):
    monkeypatch.setattr(cli, f"cmd_{command}", lambda params: (0, {}))
    assert run([command]) == 0
    assert json.dumps(echoed_config(capsys), sort_keys=True) == ECHOED_DEFAULTS[command]


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_plain_runs_build_no_parser_after_the_first(monkeypatch):
    for command in ECHOED_DEFAULTS:
        monkeypatch.setattr(cli, f"cmd_{command}", lambda params: (0, {}))
    assert run(["verify"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for command in sorted(ECHOED_DEFAULTS):
        assert run([command]) == 0
    cli.build_parser()
    assert built == []


@pytest.mark.parametrize("command", sorted(ECHOED_DEFAULTS))
def test_config_run_leaves_the_declared_defaults(command, monkeypatch, tmp_path, capsys):
    # --config parses on a parser pair of its own, so a plain run after it
    # echoes the declared defaults again.
    monkeypatch.setattr(cli, f"cmd_{command}", lambda params: (0, {}))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"w": 0.1, "d": 0.2}))
    assert run([command, "--config", str(cfg)]) == 0
    seen = [echoed_config(capsys)]
    assert run([command]) == 0
    seen.append(echoed_config(capsys))
    assert (seen[0]["w"], seen[0]["d"]) == (0.1, 0.2)
    assert json.dumps(seen[1], sort_keys=True) == ECHOED_DEFAULTS[command]


# One small run of each rendering: JSON and CSV of orbit and ifs, verify's
# JSON and sweep's CSV.
RENDERINGS = {
    "verify": ["verify", "--k", "3", "--grid", "500", "--samples", "200", "--seed", "4"],
    "orbit-json": ["orbit", "--map", "jk", "--k", "5", "--steps", "60", "--window", "30", "--format", "json"],
    "orbit-csv": ["orbit", "--word", "f0,f1", "--start", "0,0.3", "--steps", "60", "--window", "30"],
    "ifs-json": ["ifs", "--horizon", "40", "--sequences", "5", "--seed", "3"],
    "ifs-csv": ["ifs", "--format", "csv", "--horizon", "40", "--sequences", "5", "--p", "0.3"],
    "sweep": ["sweep", "--p-grid", "0.2:0.8:3", "--a-grid", "4,6", "--horizon", "20", "--sequences", "4"],
}


@pytest.mark.parametrize("rendering", sorted(RENDERINGS))
def test_echoed_config_reproduces_the_output(rendering, tmp_path):
    # The echo, command included, read back through --config alone gives
    # the same bytes.
    argv = RENDERINGS[rendering]
    out, again, cfg = tmp_path / "out", tmp_path / "again", tmp_path / "echo.json"
    assert run([*argv, "--out", str(out)]) == 0
    text = out.read_text()
    if text.startswith("{"):
        echo = json.loads(text)["config"]
    else:
        echo = json.loads(text.splitlines()[1].removeprefix("# config: "))
    assert echo["command"] == argv[0]
    cfg.write_text(json.dumps(echo))
    assert run([argv[0], "--config", str(cfg), "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_help_shows_the_declared_defaults(capsys):
    with pytest.raises(SystemExit):
        run(["ifs", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "(default 5.0)" in text
    assert "(default 2000)" in text
    assert "(default 100.0)" in text


# Each command's numeric options, as config-file keys.
NUMERIC_OPTIONS = {
    "verify": ["a", "w", "d", "seed", "k", "grid", "samples"],
    "orbit": ["a", "w", "d", "steps", "k", "window", "tol"],
    "ifs": ["a", "w", "d", "seed", "p", "horizon", "sequences", "escape_threshold"],
    "sweep": ["w", "d", "seed", "horizon", "sequences"],
}

# Options a command does not read, so does not declare: sweep takes each a
# from --a-grid and always writes CSV, orbit samples nothing, verify writes JSON.
UNREAD_OPTIONS = [("sweep", "a", "5"), ("sweep", "format", "json"), ("orbit", "seed", "1"), ("verify", "format", "csv")]


@pytest.mark.parametrize("command, key, value", UNREAD_OPTIONS)
def test_options_a_command_does_not_read_are_rejected(command, key, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, f"--{key}", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: value}))
    assert run([command, "--config", str(cfg)]) == 2
    assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [(c, k) for c, keys in NUMERIC_OPTIONS.items() for k in keys])
def test_config_file_numeric_option_of_the_wrong_json_type(command, key, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    for value in (None, [1], {"x": 1}, True):
        cfg.write_text(json.dumps({key: value}))
        assert run([command, "--config", str(cfg)]) == 2
        assert f"config key {key!r} takes a" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--k", "3", "--samples", "100000000000000000", "--grid", "2000"],
    ["verify", "--grid", "100000000000000000"],
    ["ifs", "--sequences", "100000000000000000", "--horizon", "2"],
    ["ifs", "--sequences", str(10**400), "--horizon", "2"],
    ["sweep", "--p-grid", "0.5", "--a-grid", "5", "--sequences", str(10**400), "--horizon", "2"],
])
def test_unallocatable_size_is_a_bad_config(argv, tmp_path, capsys):
    # 1e17 float64 values exceed the address space, so numpy refuses the
    # array before touching any memory; a count past the largest double
    # fails the config's size bound.
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, value", [
    (["orbit", "--steps", "20", "--window", "20"], "--start", "-5,0.25"),
    (["orbit", "--steps", "20", "--window", "20"], "--start", "-.5,0.25"),
    (["orbit", "--map", "hk", "--steps", "20", "--window", "20"], "--start-cart", "-1,0.5,2"),
    (["orbit", "--map", "hk", "--steps", "20", "--window", "20"], "--start-cart", "-1,0,0"),
    (["ifs", "--horizon", "20", "--sequences", "3"], "--escape-threshold", "-1e3"),
    (["ifs", "--horizon", "20", "--sequences", "3", "--format", "csv"], "--start", "-2.5,0.75"),
])
def test_negative_value_after_a_space_is_its_equals_form(argv, flag, value, tmp_path, capsys):
    # argparse reads only -5 or -.5 after a space as a number, so on Python
    # 3.10 and 3.11 these values lacked their option's argument.
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run(argv + [flag, value, "--out", str(spaced)]) == 0
    assert run(argv + [f"{flag}={value}", "--out", str(joined)]) == 0
    assert "error" not in capsys.readouterr().err
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("argv, flag, value, message", [
    (["orbit"], "--start", "-inf,0.25", "log-radius must be finite, got -inf"),
    (["orbit"], "--start", "-nan,0.25", "log-radius must be finite, got nan"),
    (["orbit"], "--start", "-Infinity,0.25", "log-radius must be finite, got -inf"),
    (["orbit"], "--start", "-NaN,0.25", "log-radius must be finite, got nan"),
    (["orbit", "--map", "hk"], "--start-cart", "-inf,0,1", "finite"),
    (["orbit"], "--tol", "-inf", "tol must be finite"),
    (["ifs", "--horizon", "2", "--sequences", "1"], "--escape-threshold", "-inf", "escape_threshold must be finite"),
])
def test_non_finite_value_after_a_space_is_its_equals_form(argv, flag, value, message, capsys):
    # A value such as -inf after a space was read as an unknown option, so
    # argparse reported the missing argument instead of the real fault.
    spaced_code = run(argv + [flag, value])
    spaced = capsys.readouterr()
    joined_code = run(argv + [f"{flag}={value}"])
    joined = capsys.readouterr()
    assert spaced_code == joined_code == 2
    assert (spaced.out, spaced.err) == (joined.out, joined.err)
    assert message in spaced.err and "expected one argument" not in spaced.err


HUGE_A_ARGV = {
    "ifs": ["ifs", "--horizon", "200", "--sequences", "50", "--a"],
    "sweep": ["sweep", "--p-grid", "0.5", "--horizon", "200", "--sequences", "50", "--a-grid"],
    "verify": ["verify", "--grid", "2000", "--a"],
}


@pytest.mark.parametrize("a", ["1e160", "1e200", "1e300", "1e305", "1e308"])
@pytest.mark.parametrize("command", sorted(HUGE_A_ARGV))
def test_huge_expansion_is_computed_or_refused(command, a, tmp_path, capsys):
    # A run at huge a either writes finite statistics that read as they
    # should, or is refused with one error line.  ifs and sweep refuse an a
    # whose 2 a * horizon * sequences overflows, verify one whose 2 a does.
    out = tmp_path / "out"
    code = run(HUGE_A_ARGV[command] + [a, "--out", str(out)])
    err = capsys.readouterr().err
    if float(a) >= (1e308 if command == "verify" else 1e305):
        assert code == 2 and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert code == 0 and err == ""
    text = out.read_text()
    if command == "sweep":
        cells = text.splitlines()[-1].split(",")
        assert all(math.isfinite(float(v)) for v in cells[:-1]) and cells[-1] == "admissible"
    elif command == "ifs":
        payload = strict_json(text)
        assert "null" not in text and payload["recurrence"]["satisfied"] is True
    else:
        payload = strict_json(text)
        assert payload["passed"] is True
        assert all(None not in g.values() for g in payload["compositions"].values())


class TestConfigFileValues:
    def test_value_outside_choices(self, tmp_path, capsys):
        cfg, out = tmp_path / "c.json", tmp_path / "t.csv"
        for key, value in (("format", "xml"), ("map", "f9")):
            cfg.write_text(json.dumps({key: value}))
            assert run(["orbit", "--config", str(cfg), "--out", str(out)]) == 2
            assert f"config key {key!r}: {value!r} is not one of" in capsys.readouterr().err
            assert not out.exists()

    def test_numbers_are_converted_like_flags(self, tmp_path, capsys):
        cfg, out = tmp_path / "c.json", tmp_path / "stats.json"
        cfg.write_text(json.dumps({"a": 6, "horizon": 100, "sequences": 2}))
        assert run(["ifs", "--config", str(cfg), "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert config["a"] == 6.0 and isinstance(config["a"], float)
        cfg.write_text(json.dumps({"horizon": 100.5}))
        assert run(["ifs", "--config", str(cfg)]) == 2
        assert "config key 'horizon': invalid int value '100.5'" in capsys.readouterr().err

    def test_null_keeps_an_option_that_defaults_to_null(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"word": None, "start_cart": None, "steps": 5, "window": 5}))
        assert run(["orbit", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.count("\n") == 3 + 6


def test_plain_gives_the_json_form_of_results():
    report = ValidationReport((CheckResult("C1", "one", True), CheckResult("C2", "two", False, math.inf, "x")))
    gain = GainStudy(min_gain=-math.inf, argmin=Angle(0.25), certified=False, lower_bound=np.float64(math.nan))
    payload = {
        "checks": report,
        "gain": gain,
        "cone": ConeCheck(holds=True, min_gain_jh=np.float64(3.0), min_gain_hj=np.float64(-np.inf)),
        "pair": (math.nan, 1.5, np.float64(np.inf)),
    }
    plain = cli._plain(payload)
    assert plain == {
        "checks": {"checks": [
            {"code": "C1", "description": "one", "passed": True, "witness": None, "detail": ""},
            {"code": "C2", "description": "two", "passed": False, "witness": None, "detail": "x"},
        ]},
        "gain": {"min_gain": None, "argmin": 0.25, "certified": False, "lower_bound": None},
        "cone": {"holds": True, "min_gain_jh": 3.0, "min_gain_hj": None},
        "pair": [None, 1.5, None],
    }
    assert strict_json(cli._dump_json(plain)) == plain
    with pytest.raises(ValueError):
        cli._dump_json({"x": math.nan})


class TestVerify:
    def test_json_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--k", "3", "--samples", "2000", "--grid", "2000", "--out", str(out)]) == 0
        digest = "531bca2b0db808aac2e5004155696aedca1febc795e701fbb81ecf19a6a6bef9"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_defaults_pass(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = run(["verify", "--grid", "20000", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["version"] == __version__
        assert set(payload) == {
            "version",
            "config",
            "profile_checks",
            "compositions",
            "cone",
            "passed",
        }
        for study in payload["compositions"].values():
            assert study["certified"]
            assert study["min_gain"] >= 3.0 - 1e-9

    def test_wide_arc_fails_with_witness(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "--w", "0.3", "--grid", "4000", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        failed = {c["code"] for c in payload["profile_checks"] if not c["passed"]}
        assert "C5" in failed

    def test_drift_just_past_the_monotonicity_bound_fails(self, tmp_path):
        # pi * d - 1 = 3.6e-7: a 4096-point grid passed this drift.
        out = tmp_path / "verify.json"
        assert run(["verify", "--d", "0.31831", "--w", "0.05", "--grid", "2000", "--out", str(out)]) == 1
        payload = strict_json(out.read_text())
        assert [(c["code"], c["witness"]) for c in payload["profile_checks"] if not c["passed"]] == [("C4", 0.75)]
        assert [s["certified"] for s in payload["compositions"].values()] == [False, False]

    def test_drift_just_past_the_gap_fails_as_orbit_refuses_it(self, tmp_path, capsys):
        # One comparison decides the gap: verify reports it, orbit refuses it.
        out = tmp_path / "verify.json"
        assert run(["verify", "--d", "0.2500000000001", "--grid", "2000", "--out", str(out)]) == 1
        payload = strict_json(out.read_text())
        failed = [(c["code"], c["witness"], c["detail"]) for c in payload["profile_checks"] if not c["passed"]]
        assert failed == [("C3", 0.5, "max drift 0.2500000000001 > gap 0.25")]
        capsys.readouterr()
        assert run(["orbit", "--d", "0.2500000000001", "--steps", "2", "--window", "2"]) == 2
        assert "exceeds the gap" in capsys.readouterr().err

    def test_uncertified_gains_when_the_lift_decreases(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--d", "0.35", "--w", "0.05", "--grid", "2000", "--out", str(out)]) == 1
        payload = strict_json(out.read_text())
        assert [s["certified"] for s in payload["compositions"].values()] == [False, False]

    @pytest.mark.parametrize(
        "argv",
        [["--a", "-1"], ["--a", "0.5"], ["--d", "-0.1"], ["--d", "0"], ["--d", "0.4", "--w", "0.01", "--k", "3"]],
    )
    def test_failing_witnesses_are_angles(self, argv, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", *argv, "--grid", "100", "--samples", "100", "--out", str(out)]) == 1
        payload = strict_json(out.read_text())
        failed = [c for c in payload["profile_checks"] if not c["passed"]]
        assert failed
        assert all(0.0 <= c["witness"] < 1.0 for c in failed if c["code"] != "C5")

    def test_zero_expansion_is_reported_not_raised(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--a", "0", "--grid", "100", "--out", str(out)]) == 1
        payload = strict_json(out.read_text())
        assert all(c["passed"] for c in payload["profile_checks"])
        assert payload["compositions"]["f0,f1"]["min_gain"] == -2.0

    def test_small_expansion_in_three_dimensions(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run(
            [
                "verify",
                "--a",
                "4.2",
                "--k",
                "3",
                "--grid",
                "20000",
                "--samples",
                "20000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["cone"]["holds"] is True

    @pytest.mark.parametrize("k", [1, 0, -7])
    def test_dimension_below_two_is_rejected(self, k, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run(["verify", f"--k={k}", "--grid", "100", "--out", str(out)]) == 2
        assert f"error: --k must be at least 2, got {k}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("option, message", [
        ("--samples=-5", "--samples must be at least 1, got -5"),
        ("--samples=0", "--samples must be at least 1, got 0"),
        ("--seed=-3", "--seed must be non-negative, got -3"),
    ])
    def test_bad_sampling_option_is_named_in_every_dimension(self, option, message, k, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run(["verify", f"--k={k}", option, "--grid", "100", "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [1, 0, -4])
    def test_grid_below_two_is_named(self, grid, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run(["verify", f"--grid={grid}", "--out", str(out)]) == 2
        assert f"error: --grid must be at least 2, got {grid}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, message", [
        ("--a=inf", "--a must be finite, got inf"),
        ("--a=nan", "--a must be finite, got nan"),
        ("--d=inf", "--d must be finite, got inf"),
        ("--d=-inf", "--d must be finite, got -inf"),
        ("--d=nan", "--d must be finite, got nan"),
    ])
    def test_non_finite_profile_parameter_is_named(self, option, message, tmp_path, capsys):
        # Rejected before any profile is evaluated, so no numpy warning
        # escapes and the echo never meets a non-finite value.
        out = tmp_path / "verify.json"
        assert run(["verify", option, "--grid", "100", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "JSON" not in err
        assert not out.exists()

    @pytest.mark.parametrize("w", ["0.6", "0.5"])
    def test_w_that_describes_no_arc_is_named(self, w, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run(["verify", "--w", w, "--grid", "100", "--out", str(out)]) == 2
        assert f"error: w must lie in (0, 1/2) to describe an arc, got {float(w)}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self):
        assert run(["verify", "--config", "/no/such/file.json"]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        # command and config live in the parsed namespace but are not
        # options, so a config file may not set them, nor any other name;
        # only an echoed command equal to the one being run is read back.
        cfg = tmp_path / "c.json"
        for key in ("bogus", "command", "config", "handler"):
            cfg.write_text(json.dumps({key: "ifs"}))
            assert run(["verify", "--config", str(cfg)]) == 2
            assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        for text, message in (("{not json", "is not valid JSON"), ("[1, 2]", "must hold a JSON object")):
            cfg.write_text(text)
            assert run(["verify", "--config", str(cfg)]) == 2
            assert f"error: config file {message}" in capsys.readouterr().err


class TestOrbit:
    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run(["orbit", "--map", "f0", "--start", "0,0.5", "--steps", "300", "--out", str(out)])
        assert code == 0
        assert "classification=attracted" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[0] == f"# version: {__version__}"
        assert lines[1].startswith("# config: {")
        assert lines[2] == "step,r,theta,gain"
        assert len(lines) == 3 + 301
        first = lines[3].split(",")
        assert first == ["0", "0.0", "0.5", ""]

    def test_json_schema(self, tmp_path):
        out = tmp_path / "trace.json"
        code = run(
            [
                "orbit",
                "--word",
                "f0,f1",
                "--start",
                "0,0.3",
                "--steps",
                "150",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"version", "config", "points", "gains", "classification", "rate"}
        assert payload["classification"] == "repelled"
        assert len(payload["points"]) == 151
        step, r, theta = payload["points"][0]
        assert (step, r, theta) == (0, 0.0, 0.3)
        assert len(payload["gains"]) == 150

    def test_symmetrized_planar_map(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run(
            ["orbit", "--map", "h", "--start", "0,0.3", "--steps", "400", "--out", str(out)]
        )
        assert code == 0
        assert "classification=attracted" in capsys.readouterr().err

    def test_stdout_holds_only_the_trace(self, capsys):
        code = run(["orbit", "--map", "f0", "--start", "0,0.5", "--steps", "300"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# version:")
        assert "classification=" not in captured.out
        assert captured.err.startswith("classification=attracted")

    def test_suspension_orbit(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run(
            [
                "orbit",
                "--map",
                "hk",
                "--k",
                "3",
                "--start-cart",
                "1,1,1",
                "--steps",
                "600",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "classification=attracted" in capsys.readouterr().err

    def test_start_dimension_mismatch(self):
        assert run(["orbit", "--map", "hk", "--k", "4", "--start-cart", "1,1,1"]) == 2

    @pytest.mark.parametrize("name", ["f0", "f1", "h", "hk", "jk"])
    def test_huge_expansion_runs_every_map(self, name, tmp_path, capsys):
        # At a = 1e308, 2a overflows, so h's half width must not be w / (2a);
        # and no map may be refused for another map's arc.
        out = tmp_path / "trace.csv"
        assert run(["orbit", "--map", name, "--a", "1e308", "--steps", "5", "--window", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().err.startswith("classification=")
        lines = out.read_text().splitlines()
        assert lines[2] == "step,r,theta,gain" and lines[4].startswith("1,")

    @pytest.mark.parametrize("argv", [["--map", "f0"], ["--map", "h"], ["--map", "hk", "--word", "f0,f1"]])
    def test_unused_cartesian_start_is_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "trace.json"
        argv = ["orbit", *argv, "--start-cart", "1,2,3", "--steps", "3", "--window", "3", "--out", str(out)]
        assert run(argv) == 2
        assert "error: --start-cart applies only to --map hk or jk without --word" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--map", "f0", "--k=-4"], ["--map", "f1", "--k=2"], ["--map", "h", "--k=0"],
        ["--map", "hk", "--k=2"], ["--map", "jk", "--k=-4"], ["--word", "01", "--k=2"],
    ])
    def test_dimension_below_three_is_rejected_for_every_map(self, argv, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run(["orbit", *argv, "--steps", "200", "--out", str(out)]) == 2
        assert f"error: --k must be at least 3, got {argv[-1][4:]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_word_is_rejected(self, source, tmp_path, capsys):
        # An empty word once read as no word at all: the run exited 0 with the
        # --map f0 orbit while echoing "word": "".
        cfg, out = tmp_path / "c.json", tmp_path / "trace.csv"
        cfg.write_text(json.dumps({"word": ""}))
        argv = ["--word", ""] if source == "flag" else ["--config", str(cfg)]
        assert run(["orbit", *argv, "--steps", "50", "--window", "50", "--out", str(out)]) == 2
        assert "error: a map word must contain at least one letter" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, steps", [
        (["--steps", "0"], 0), (["--steps", "-3", "--window", "1"], -3), (["--map", "hk", "--steps=-1"], -1),
    ])
    def test_steps_below_one_is_named(self, argv, steps, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run(["orbit", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: --steps must be at least 1, got {steps}" in err and "window" not in err
        assert not out.exists()

    def test_window_must_fit(self):
        assert run(["orbit", "--steps", "20"]) == 2

    def test_bad_start(self):
        assert run(["orbit", "--start", "1;2"]) == 2

    @pytest.mark.parametrize("argv, text", [
        (["--map", "hk", "--start-cart", "1,,2,3"], "1,,2,3"),
        (["--start", "0,,0.3"], "0,,0.3"),
        (["--start", "0,0.3,"], "0,0.3,"),
    ])
    def test_empty_field_in_a_comma_list_is_refused(self, argv, text, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        assert run(["orbit", *argv, "--steps", "5", "--window", "5", "--out", str(out)]) == 2
        assert f"error: expected comma-separated numbers, got {text!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_start_keeps_its_message(self, capsys):
        assert run(["orbit", "--start", ""]) == 2
        assert "error: cylinder start needs 'r,theta', got ''" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        ("--window=0", "window must be at least 1, got 0"),
        ("--window=-5", "window must be at least 1, got -5"),
        ("--tol=-5", "tol must be finite and non-negative, got -5.0"),
        ("--tol=nan", "tol must be finite and non-negative, got nan"),
        ("--tol=inf", "tol must be finite and non-negative, got inf"),
    ])
    def test_bad_classification_parameter_is_named(self, option, message, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run(["orbit", "--steps", "200", option, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_values_are_json_null(self, tmp_path, capsys):
        # The orbit underflows to the origin at step 120: log-radius -inf.
        out = tmp_path / "trace.json"
        argv = ["orbit", "--map", "hk", "--k", "3", "--start-cart", "1e-300,0,0", "--steps", "200"]
        assert run(argv + ["--format", "json", "--out", str(out)]) == 0
        payload = strict_json(out.read_text())
        assert payload["points"][-1][1] is None
        assert payload["gains"][-1] is None
        assert payload["rate"] is None
        assert all(math.isfinite(r) for _, r, _ in payload["points"][:-1])
        with pytest.raises(ValueError):
            cli._dump_json({"x": math.nan})

    def test_overflowing_suspension_step_stops_the_orbit(self, tmp_path, capsys):
        # The first step overflows the radius; the orbit stops there and is
        # classified over that one step.
        out = tmp_path / "trace.json"
        argv = ["orbit", "--map", "hk", "--k", "3", "--start-cart", "1e307,1e307,1e307", "--steps", "200",
                "--window", "10", "--format", "json", "--out", str(out)]
        assert run(argv) == 0
        assert capsys.readouterr().err.startswith("classification=repelled rate=inf steps=1 ")
        payload = strict_json(out.read_text())
        assert len(payload["points"]) == 2
        assert payload["points"][1][1] is None
        assert payload["gains"] == [None]
        assert payload["rate"] is None

    def test_start_beyond_escape_bound(self, capsys):
        assert run(["orbit", "--map", "f0", "--start", "1e300,0.3"]) == 2
        assert "escape bound" in capsys.readouterr().err

    def test_early_escape_is_classified_over_the_steps_run(self, tmp_path, capsys):
        # log-radius 999990 crosses the escape bound 1e6 at the second step.
        out = tmp_path / "trace.csv"
        assert run(["orbit", "--word", "f0,f1", "--start", "999990,0.3", "--out", str(out)]) == 0
        assert capsys.readouterr().err.startswith("classification=repelled")
        assert len(out.read_text().splitlines()) == 3 + 3

    def test_escaping_orbit_still_needs_a_fitting_window(self):
        argv = ["orbit", "--word", "f0,f1", "--start", "999990,0.3", "--steps", "50"]
        assert run(argv) == 2

    @pytest.mark.parametrize("argv, digest", [
        (["--map", "f1", "--start", "0,0.5"], "7c649f00e78ba545e7b27a6d598101449bac93940da68ba097060574242db813"),
        (["--map", "hk", "--k", "4"], "890e17024f2d7691b781abf4f1304038b934027ead7e8093876735acc6eee532"),
        (["--map", "jk", "--k", "5"], "ad13606ec4ece5bae359e436a5300776bc274d9ddaf900791b06068f71e9d8f1"),
        (["--map", "h"], "dadd904a09bf51a0c3df4d94c5ed0c03eef30f02e2e2c81f21b709915ea8358a"),
        (["--word", "f0,f1"], "ff0d72fb22e4fa54b2da0af005d3db4a235683c4cb0a434d5eca5f147d3cf21d"),
    ])
    def test_json_bytes_are_pinned(self, argv, digest, tmp_path):
        # Single-point steps run on Python floats, so these bytes do not
        # depend on the numpy build.
        out = tmp_path / "trace.json"
        assert run(["orbit", *argv, "--steps", "300", "--format", "json", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_non_finite_cartesian_start(self, capsys):
        assert run(["orbit", "--map", "jk", "--k", "3", "--start-cart", "1,nan,0"]) == 2
        assert "error: a Cartesian start needs finite coordinates, got [1.0, nan, 0.0]" in capsys.readouterr().err

    def test_non_finite_start_angle(self, capsys):
        assert run(["orbit", "--map", "f0", "--start", "0,nan"]) == 2
        err = capsys.readouterr().err
        assert "bad cylinder start '0,nan'" in err and "got nan" in err


class TestIfs:
    def test_json_output(self, tmp_path):
        out = tmp_path / "stats.json"
        code = run(
            [
                "ifs",
                "--p",
                "0.5",
                "--a",
                "5",
                "--seed",
                "9",
                "--horizon",
                "400",
                "--sequences",
                "50",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["label"] == "ADMISSIBLE"
        assert payload["bounds"]["a_min"] == 4.0
        assert payload["stats"]["escape_fraction"] == 1.0
        assert payload["recurrence"]["satisfied"] is True

    def test_boundary_cell_is_not_admissible(self, tmp_path):
        # a p (1 - p) rounds above 1 at this cell, but K is 0 and sweep calls it boundary.
        grid = ["--p", "0.08", "--a", "13.58695652173913", "--horizon", "10", "--sequences", "2"]
        out = tmp_path / "stats.json"
        assert run(["ifs", *grid, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["bounds"]["K"] == 0.0
        assert payload["admissible"] is False and payload["label"] == "INADMISSIBLE"
        sweep = tmp_path / "sweep.csv"
        argv = ["sweep", "--p-grid", "0.08", "--a-grid", "13.58695652173913", "--horizon", "10",
                "--sequences", "2", "--out", str(sweep)]
        assert run(argv) == 0
        assert sweep.read_text().splitlines()[3].endswith(",boundary")

    def test_inadmissible_is_not_a_verdict_on_escape(self, tmp_path):
        # The label says the cell lies outside the paper's sufficient condition
        # (K < 0), not that it fails to escape: at the defaults the cell
        # (0.9, 4) prints empirical_slope 2.8939 and escape_fraction 1.0.
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--p-grid", "0.9", "--a-grid", "4", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()[2:]
        cell = dict(zip(header.split(","), row.split(",")))
        assert cell["admissibility"] == "inadmissible" and float(cell["K"]) < 0.0
        assert float(cell["empirical_slope"]) > 0.0
        assert float(cell["escape_fraction"]) == 1.0

    @pytest.mark.parametrize("p, a", [
        ("0.5", "4.0"),  # K = 0
        ("0.08", "13.58695652173913"),  # a p (1 - p) rounds above 1, K is 0
        ("0.5", "4.000000000001"),  # K = 5e-13, inside the boundary band
        ("0.5", "4.000000000008"),  # K = 4e-12, outside it
        ("0.5", "3.0"),
        ("0.5", "5.0"),
    ])
    def test_ifs_and_sweep_give_one_verdict_per_cell(self, p, a, tmp_path):
        stats, sweep = tmp_path / "stats.json", tmp_path / "sweep.csv"
        runs = ["--horizon", "2", "--sequences", "1"]
        assert run(["ifs", "--p", p, "--a", a, *runs, "--out", str(stats)]) == 0
        assert run(["sweep", "--p-grid", p, "--a-grid", a, *runs, "--out", str(sweep)]) == 0
        payload = json.loads(stats.read_text())
        column = sweep.read_text().splitlines()[3].split(",")[-1]
        assert payload["admissible"] is (column == "admissible")
        assert payload["label"] == ("ADMISSIBLE" if column == "admissible" else "INADMISSIBLE")

    def test_inadmissible_label(self, tmp_path):
        out = tmp_path / "stats.json"
        code = run(
            ["ifs", "--a", "3", "--horizon", "100", "--sequences", "10", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["label"] == "INADMISSIBLE"

    def test_skewed_probability_needs_large_expansion(self, tmp_path):
        # 12 > 1/(0.9 * 0.1) ~ 11.1, so the config is admissible and grows.
        out = tmp_path / "stats.json"
        code = run(
            [
                "ifs",
                "--p",
                "0.9",
                "--a",
                "12",
                "--horizon",
                "400",
                "--sequences",
                "20",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["label"] == "ADMISSIBLE"
        assert payload["stats"]["mean_pair_gain"] > 0.0

    def test_steps_alias_for_horizon(self, tmp_path):
        out = tmp_path / "stats.json"
        code = run(["ifs", "--steps", "100", "--sequences", "3", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["config"]["horizon"] == 100

    def test_csv_per_sequence_rows(self, tmp_path):
        out = tmp_path / "stats.csv"
        code = run(
            [
                "ifs",
                "--horizon",
                "100",
                "--sequences",
                "4",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "sequence_id,m,k_m,delta_2m"
        assert len(lines) == 3 + 4
        row = lines[3].split(",")
        assert row[0] == "0" and row[1] == "50"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["ifs", "--seed", "77", "--horizon", "200", "--sequences", "20"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.3, "horizon": 100, "sequences": 5}))
        out = tmp_path / "stats.json"
        code = run(["ifs", "--config", str(cfg), "--p", "0.5", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["p"] == 0.5
        assert payload["config"]["horizon"] == 100

    def test_config_file_strings_are_converted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "5", "a": "6", "horizon": 100, "sequences": 2}))
        out = tmp_path / "stats.json"
        assert run(["ifs", "--config", str(cfg), "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert config["seed"] == 5 and isinstance(config["seed"], int)
        assert config["a"] == 6.0 and isinstance(config["a"], float)

    def test_huge_start_keeps_every_gain(self, tmp_path):
        # The angle dynamics ignores the radius, so a start at log-radius
        # 1e308 has exactly the gains of the same angle at log-radius 0.
        stats = {}
        for r in ("0", "1e308"):
            out = tmp_path / f"stats_{r}.json"
            argv = ["ifs", "--start", f"{r},0.3", "--horizon", "100", "--sequences", "3"]
            assert run(argv + ["--out", str(out)]) == 0
            stats[r] = json.loads(out.read_text())["stats"]
        assert stats["1e308"] == stats["0"]
        assert stats["1e308"]["escape_fraction"] == 1.0
        assert stats["1e308"]["mean_pair_gain"] > 1.0

    def test_csv_rows_are_the_start_angles_monte_carlo(self, tmp_path):
        # The command passes the start's angle to the library; the radius
        # is echoed and otherwise unread.
        out = tmp_path / "seqs.csv"
        assert run(["ifs", "--start", "0,0.3", "--format", "csv", "--horizon", "100", "--sequences", "5",
                    "--seed", "4", "--out", str(out)]) == 0
        stats = monte_carlo(IfsConfig(p=0.5, a=5.0, seed=4, horizon=100, n_sequences=5), Angle(0.3))
        rows = [f"{i},50,{int(k)},{float(delta)!r}"
                for i, (k, delta) in enumerate(zip(stats.k_counts, stats.deltas))]
        assert out.read_text().splitlines()[3:] == rows

    def test_non_finite_start_angle(self, capsys):
        assert run(["ifs", "--start", "0,nan", "--horizon", "10", "--sequences", "2"]) == 2
        err = capsys.readouterr().err
        assert "bad cylinder start '0,nan'" in err and "JSON" not in err

    def test_bad_probability(self):
        assert run(["ifs", "--p", "1.5", "--horizon", "100", "--sequences", "2"]) == 2

    def test_infinite_expansion_rejected(self, capsys):
        assert run(["ifs", "--a", "inf", "--horizon", "10", "--sequences", "2"]) == 2
        err = capsys.readouterr().err
        assert "expansion a must be finite and positive, got inf" in err and "JSON" not in err

    @pytest.mark.parametrize("sequences, digest", [
        ("20", "91f9fe54cb1ed7ae45fda3a5d0c8869465035ebb532e2a649528e2d8a943a751"),
        # One sequence has no spread: slope_se, both interval ends and stderr are null.
        ("1", "edbe0394fbd7a189ebd0ea83e57b996f2dba84442080ea271176cbe63216b32d"),
    ])
    def test_json_bytes_are_pinned(self, sequences, digest, tmp_path):
        out = tmp_path / "stats.json"
        assert run(["ifs", "--horizon", "200", "--sequences", sequences, "--seed", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_csv_bytes_are_pinned(self, tmp_path):
        # The lock-step engine's numbers rest on numpy's elementwise cos equalling
        # math.cos (see README); its x - floor(x) equals % exactly everywhere.
        out = tmp_path / "seqs.csv"
        assert run(["ifs", "--format", "csv", "--horizon", "200", "--sequences", "20", "--seed", "3",
                    "--out", str(out)]) == 0
        digest = "408a8e02cd2cfb84aa4adcded29cc356daa128b7174ac0263cae7dbdfeaff169"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_csv_bytes_are_pinned_over_many_blocks(self, tmp_path):
        # 300 sequences x 2000 steps: the slow-arc fractions are read in 75
        # blocks of 27 steps, so block boundaries fall all along the run.
        out = tmp_path / "seqs.csv"
        assert run(["ifs", "--format", "csv", "--horizon", "2000", "--sequences", "300", "--seed", "7",
                    "--out", str(out)]) == 0
        digest = "53d68c208b1639aa32fb624feab6fd1ed802ee319b13f6cd335e05b25c2647fe"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_negative_seed_is_named(self, capsys):
        assert run(["ifs", "--seed", "-1", "--horizon", "10", "--sequences", "2"]) == 2
        assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -2])
    def test_sequences_below_one_is_named(self, n, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert run(["ifs", f"--sequences={n}", "--horizon", "10", "--out", str(out)]) == 2
        assert f"error: --sequences must be at least 1, got {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_escape_threshold(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        argv = ["ifs", "--escape-threshold", "nan", "--horizon", "100", "--sequences", "2"]
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "escape_threshold" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path):
        code = run(
            [
                "ifs",
                "--horizon",
                "100",
                "--sequences",
                "2",
                "--out",
                str(tmp_path / "missing-dir" / "x.json"),
            ]
        )
        assert code == 3


class TestSweep:
    def test_boundary_labeling(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "sweep",
                "--p-grid",
                "0.5",
                "--a-grid",
                "4,5",
                "--horizon",
                "100",
                "--sequences",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "p,a,a_min,K,pair_slope_lb,empirical_slope,escape_fraction,admissibility"
        rows = {tuple(l.split(",")[:2]): l.split(",")[-1] for l in lines[3:]}
        assert rows[("0.5", "4.0")] == "boundary"
        assert rows[("0.5", "5.0")] == "admissible"

    def test_scaled_expansion_stays_admissible(self, tmp_path):
        # a = 1.2 / (p (1-p)) clears the frontier at every p; all cells escape.
        for p in (0.1, 0.5, 0.9):
            a = 1.2 / (p * (1.0 - p))
            out = tmp_path / f"sweep_{p}.csv"
            code = run(
                [
                    "sweep",
                    "--p-grid",
                    str(p),
                    "--a-grid",
                    str(a),
                    "--horizon",
                    "400",
                    "--sequences",
                    "10",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            row = out.read_text().splitlines()[3].split(",")
            assert row[-1] == "admissible"
            assert float(row[-2]) == 1.0

    def test_fixed_expansion_extreme_probabilities(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "sweep",
                "--p-grid",
                "0.05,0.5,0.95",
                "--a-grid",
                "5",
                "--horizon",
                "100",
                "--sequences",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        labels = [l.split(",")[-1] for l in out.read_text().splitlines()[3:]]
        assert labels == ["inadmissible", "admissible", "inadmissible"]

    def test_range_grid_syntax(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "sweep",
                "--p-grid",
                "0.2:0.8:4",
                "--a-grid",
                "6",
                "--horizon",
                "100",
                "--sequences",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3 + 4

    def test_rows_equal_each_cells_own_monte_carlo(self, tmp_path):
        # The cells of a row share one angle orbit per stream; that must not
        # change a digit against running each cell on its own.
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--p-grid", "0.2:0.8:3", "--a-grid", "3.5,5,9", "--horizon", "100",
                "--sequences", "20", "--seed", "11", "--out", str(out)]
        assert run(argv) == 0
        rows = out.read_text().splitlines()[3:]
        expected = []
        for p in np.linspace(0.2, 0.8, 3).tolist():
            for a in (3.5, 5.0, 9.0):
                b = theoretical_bounds(p, a)
                stats = monte_carlo(IfsConfig(p=p, a=a, seed=11, horizon=100, n_sequences=20))
                expected.append(
                    f"{p!r},{a!r},{b.a_min!r},{b.K!r},{b.pair_slope_lb!r},{stats.mean_pair_gain!r},"
                    f"{stats.escape_fraction!r},{b.label}"
                )
        assert rows == expected

    def test_csv_bytes_are_pinned(self, tmp_path):
        # The whole grid advances in one lock-step run; its bytes are those of
        # one run per row, and rest on numpy's elementwise cos (see README).
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--p-grid", "0.1:0.9:9", "--a-grid", "4,5,8", "--horizon", "200",
                "--sequences", "30", "--seed", "3", "--out", str(out)]
        assert run(argv) == 0
        digest = "317dc2d1126d343a536f6e62fd0c116e472bc53cbbe2d76a1631358784ec79ad"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_empty_grid_rejected(self, capsys):
        assert run(["sweep", "--p-grid", "", "--a-grid", "5"]) == 2
        assert "error: empty grid ''" in capsys.readouterr().err

    @pytest.mark.parametrize("p_grid", ["0.5,", ",0.5", "0.3,,0.5"])
    def test_empty_field_in_a_grid_is_refused(self, p_grid, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--p-grid", p_grid, "--a-grid", "5", "--horizon", "10", "--sequences", "2"]
        assert run(argv + ["--out", str(out)]) == 2
        assert f"error: expected comma-separated numbers, got {p_grid!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_named(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--p-grid", "0.5", "--a-grid", "5", "--seed", "-1", "--horizon", "10", "--sequences", "2"]
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -2])
    def test_sequences_below_one_is_named(self, n, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--p-grid", "0.5", "--a-grid", "5", f"--sequences={n}", "--horizon", "10"]
        assert run(argv + ["--out", str(out)]) == 2
        assert f"error: --sequences must be at least 1, got {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_expansion_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--p-grid", "0.5", "--a-grid", "inf", "--horizon", "10", "--sequences", "2"]
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "expansion a must be finite and positive, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--w", "w must lie in (0, 1/4), got nan"),
        ("--d", "drift amplitude d must be positive, got nan"),
    ])
    def test_non_finite_profile_parameter_is_named(self, flag, message, tmp_path, capsys):
        # The configs are validated before the echo, which cannot hold a NaN.
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--p-grid", "0.5", "--a-grid", "5", flag, "nan", "--horizon", "10", "--sequences", "2"]
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert message in err and "JSON" not in err

    @pytest.mark.parametrize("grid", ["inf:5:3", "0:-inf:3", "nan:1:3", "1e308:-1e308:3", "-1.7e308:1.7e308:2"])
    @pytest.mark.parametrize("flag", ["--p-grid", "--a-grid"])
    def test_range_grid_with_infinite_ends_or_span_is_refused(self, flag, grid, tmp_path, capsys):
        # np.linspace would warn on such ends before the cells refused them;
        # the test settings make that warning an error.
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--p-grid", "0.5", "--a-grid", "5", flag, grid, "--horizon", "10", "--sequences", "2"]
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: range grid ends and their span must be finite, got {grid!r}\n"

    @pytest.mark.parametrize("grid, message", [
        ("0.1:0.9", "range grids use 'start:stop:count', got '0.1:0.9'"),
        ("0.1:x:3", "bad range grid '0.1:x:3'"),
        ("0.1:0.9:0", "grid count must be positive"),
    ])
    def test_malformed_range_grid_is_named(self, grid, message, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--p-grid", grid, "--a-grid", "5", "--horizon", "10", "--sequences", "2"]
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_grid_rejected(self):
        assert run(["sweep", "--a-grid", "5"]) == 2

    def test_out_of_range_probability(self):
        assert run(["sweep", "--p-grid", "0,0.5", "--a-grid", "5"]) == 2
