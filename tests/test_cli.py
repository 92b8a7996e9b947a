import hashlib
import json
import math

import numpy as np
import pytest

from parrondo_maps import __version__, cli
from parrondo_maps.cli import main
from parrondo_maps.ifs import IfsConfig, monte_carlo, theoretical_bounds


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


@pytest.mark.parametrize("command", sorted(ECHOED_DEFAULTS))
def test_echoed_default_config(command, monkeypatch):
    seen = {}

    def handler(params):
        seen.update(cli._echo_config(params))
        return 0

    monkeypatch.setattr(cli, f"cmd_{command}", handler)
    assert run([command]) == 0
    assert json.dumps(seen, sort_keys=True) == ECHOED_DEFAULTS[command]


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


class TestVerify:
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

    def test_missing_config_file(self):
        assert run(["verify", "--config", "/no/such/file.json"]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        # command, config and handler live in the parsed namespace but are
        # not options, so a config file may not set them.
        cfg = tmp_path / "c.json"
        for key in ("bogus", "command", "config", "handler"):
            cfg.write_text(json.dumps({key: "ifs"}))
            assert run(["verify", "--config", str(cfg)]) == 2
            assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert run(["verify", "--config", str(cfg)]) == 2


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

    def test_window_must_fit(self):
        assert run(["orbit", "--steps", "20"]) == 2

    def test_bad_start(self):
        assert run(["orbit", "--start", "1;2"]) == 2

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

    def test_csv_bytes_are_pinned(self, tmp_path):
        # The lock-step engine's numbers rest on numpy's elementwise cos and %
        # (see README), so these bytes hold where those match math.cos and %.
        out = tmp_path / "seqs.csv"
        assert run(["ifs", "--format", "csv", "--horizon", "200", "--sequences", "20", "--seed", "3",
                    "--out", str(out)]) == 0
        digest = "61f3a618cd5da4d950d9bcac82e221eb4755eeb0214fce7ca05835449b16e75a"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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
                    f"{stats.escape_fraction!r},{cli._admissibility_label(p, a)}"
                )
        assert rows == expected

    def test_csv_bytes_are_pinned(self, tmp_path):
        # The whole grid advances in one lock-step run; its bytes are those of
        # one run per row, and rest on numpy's elementwise cos and % (see README).
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--p-grid", "0.1:0.9:9", "--a-grid", "4,5,8", "--horizon", "200",
                "--sequences", "30", "--seed", "3", "--out", str(out)]
        assert run(argv) == 0
        digest = "a5162b2d4f17f33dc7b728eaecb4039cb340e6394f302f18b87a00b698e227de"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_empty_grid_rejected(self):
        assert run(["sweep", "--p-grid", "", "--a-grid", "5"]) == 2

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

    def test_missing_grid_rejected(self):
        assert run(["sweep", "--a-grid", "5"]) == 2

    def test_out_of_range_probability(self):
        assert run(["sweep", "--p-grid", "0,0.5", "--a-grid", "5"]) == 2
