"""Tests for config parsing, the run modes and the output formats."""

import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavitymagnons
from cavitymagnons.cli import (
    GRAMMAR,
    MAX_SWEEP_POINTS,
    MODES,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    render_config,
    render_csv,
    run,
)
from cavitymagnons.dynamics import MAX_STEPS
from cavitymagnons.model import DriveParams
from cavitymagnons.response import reflection_transmission, steady_state

SQRT2 = math.sqrt(2.0)

EIG_CONFIG = """\
[run]
mode = eig-sweep

[system]
kappa = 1.0
gamma1 = 1.0
gamma2 = 1.0
g1 = 2.0
g2 = 2.0

[sweep]
variable = s
min = -6
max = 6
points = 241

[output]
path = {path}
format = both
"""

REFLECTION_CONFIG = """\
[run]
mode = reflection-sweep

[system]
gamma1 = 0.01
gamma2 = 0.01
g1 = 0.2
g2 = 0.2
s = 0.04

[sweep]
variable = delta
min = -0.2
max = 0.2
points = 201

[output]
path = {path}
format = both
"""


# A small run of each mode.
MODE_BODIES = {
    "eig-sweep": "[sweep]\nmin = -1\nmax = 1\npoints = 5\n",
    "ep-find": "[sweep]\nmin = 0.02\nmax = 0.06\npoints = 2\n",
    "response-sweep": "[sweep]\nmin = -0.2\nmax = 0.2\npoints = 5\n[drive]\namplitude = 1\n",
    "reflection-sweep": "[sweep]\nmin = -0.2\nmax = 0.2\npoints = 5\n",
    "adiabatic-compare": "[sweep]\nmin = -0.1\nmax = 0.1\npoints = 5\n",
    "dynamics": "[drive]\namplitude = 1\n[dynamics]\nt_end = 1\ndt = 0.1\n",
}


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    headers = lines[1].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    return headers, rows


class TestParseConfig:
    def test_defaults_fill_missing_system_keys(self):
        config = parse_config(EIG_CONFIG.format(path="out.csv"))
        assert config.system.kappa == 1.0
        assert config.system.s == 0.0
        assert config.mode == "eig-sweep"
        assert config.sweep_points == 241

    def test_minimal_config_uses_bad_cavity_defaults(self):
        config = parse_config(
            "[run]\nmode = eig-sweep\n\n[sweep]\nmin = -0.1\nmax = 0.1\npoints = 11\n"
        )
        assert config.system.gamma1 == 0.01
        assert config.system.g1 == 0.2
        assert "[sweep]\nvariable = s\n" in render_config(config)
        assert config.output_format == "both"

    @pytest.mark.parametrize("snippet,field", [
        ("[run]\nmode = fly\n", "run.mode"),
        ("[sweep]\nmin = -1\nmax = 1\npoints = 11\n", "run.mode"),
        ("[run]\nmode = eig-sweep\n[system]\nkappa = -1\n[sweep]\nmin = -1\nmax = 1\npoints = 11\n", "system.kappa"),
        ("[run]\nmode = eig-sweep\n[system]\nkappa =\n[sweep]\nmin = -1\nmax = 1\npoints = 11\n", "system.kappa"),
        ("[run]\nmode = eig-sweep\n[system]\nkappa = nan\n[sweep]\nmin = -1\nmax = 1\npoints = 11\n", "system.kappa"),
        ("[run]\nmode = eig-sweep\n[sweep]\nmin = -1\nmax = 1\npoints = 1\n", "sweep.points"),
        ("[run]\nmode = eig-sweep\n[sweep]\nmin = 1\nmax = -1\npoints = 11\n", "sweep.max"),
        ("[run]\nmode = eig-sweep\n[sweep]\nvariable = delta\nmin = -1\nmax = 1\npoints = 11\n", "sweep.variable"),
        ("[run]\nmode = eig-sweep\n[sweep]\nmin = -1\nmax = 1\npoints = 11\n[junk]\nx = 1\n", "junk"),
        ("[run]\nmode = eig-sweep\nengine = warp\n[sweep]\nmin = -1\nmax = 1\npoints = 11\n", "run.engine"),
        ("[run]\nmode = dynamics\n[drive]\npower = 1e-3\nfrequency = -5\n", "drive.frequency"),
        ("[run]\nmode = dynamics\n[drive]\npower = 1e-3\nfrequency = 0\n", "drive.frequency"),
        ("[run]\nmode = dynamics\n[drive]\namplitude = -1\n", "drive.amplitude"),
        ("[run]\nmode = dynamics\n[drive]\namplitude = 1\n[dynamics]\nt_end = -1\n", "dynamics.t_end"),
        ("[run]\nmode = dynamics\n[drive]\namplitude = 1\n[dynamics]\ndt = 0\n", "dynamics.dt"),
        ("[DEFAULT]\nkappa = 2\n[run]\nmode = eig-sweep\n[sweep]\nmin = -1\nmax = 1\npoints = 11\n", "DEFAULT"),
        ("[run]\nmode = eig-sweep\n[sweep]\nmin = -1\nmax = 1\npoints = 11\n[output]\npath = out\n  more.csv\n",
         "output.path"),
    ])
    def test_errors_name_the_first_invalid_field(self, snippet, field):
        with pytest.raises(ConfigError) as err:
            parse_config(snippet)
        assert err.value.field == field

    def test_response_mode_requires_drive(self):
        text = "[run]\nmode = response-sweep\n[sweep]\nvariable = delta\nmin = -1\nmax = 1\npoints = 11\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.field == "drive"

    def test_empty_drive_block_is_rejected(self):
        text = (
            "[run]\nmode = response-sweep\n[sweep]\nvariable = delta\nmin = -1\nmax = 1\npoints = 11\n"
            "[drive]\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.field == "drive"

    def test_power_without_frequency_is_rejected(self):
        text = (
            "[run]\nmode = response-sweep\n[sweep]\nvariable = delta\nmin = -1\nmax = 1\npoints = 11\n"
            "[drive]\npower = 1e-3\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.field == "drive.frequency"

    def test_amplitude_and_power_together_are_ambiguous(self):
        text = (
            "[run]\nmode = response-sweep\n[sweep]\nvariable = delta\nmin = -1\nmax = 1\npoints = 11\n"
            "[drive]\namplitude = 1\npower = 1e-3\nfrequency = 1e10\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.field == "drive"

    def test_power_route_converts_to_amplitude(self):
        text = (
            "[run]\nmode = response-sweep\n[sweep]\nvariable = delta\nmin = -1\nmax = 1\npoints = 11\n"
            "[drive]\npower = 1e-3\nfrequency = 6.283185307179586e10\n"
        )
        config = parse_config(text)
        assert config.drive.amplitude == pytest.approx(1.2284910276e10, rel=1e-9)

    @pytest.mark.parametrize("snippet", [
        # Defaults: t_end = 50/min(gamma_i + g_i^2/kappa) = 5e7 at dt = 0.1, so 5e8 steps.
        "[system]\ngamma1 = 1e-6\ngamma2 = 1e-6\ng1 = 0\ng2 = 0\n",
        "[dynamics]\nt_end = 1e6\ndt = 0.05\n",
        "[dynamics]\nt_end = 1\ndt = 1e-300\n",
    ])
    def test_step_budget_is_a_config_error(self, snippet):
        # Parsed only: such a run must never be attempted.
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\nmode = dynamics\n[drive]\namplitude = 1\n" + snippet)
        assert err.value.field == "dynamics.t_end"
        assert "dynamics.dt" in str(err.value)

    def test_default_t_end_follows_the_smaller_dressed_damping(self):
        config = parse_config("[run]\nmode = dynamics\n[drive]\namplitude = 1\n"
                              "[system]\ngamma1 = 0.02\ng1 = 0.3\ngamma2 = 0.01\ng2 = 0.2\n")
        assert config.t_end == 50.0 / (0.01 + 0.2 * 0.2 / 1.0)

    def test_step_budget_admits_its_limit(self):
        config = parse_config("[run]\nmode = dynamics\n[drive]\namplitude = 1\n"
                              f"[dynamics]\nt_end = {MAX_STEPS // 10}\ndt = 0.1\n")
        assert round(config.t_end / config.dt) == MAX_STEPS

    def test_sweep_points_budget(self):
        text = "[run]\nmode = eig-sweep\n[sweep]\nmin = -1\nmax = 1\npoints = {}\n"
        assert parse_config(text.format(MAX_SWEEP_POINTS)).sweep_points == MAX_SWEEP_POINTS
        with pytest.raises(ConfigError) as err:
            parse_config(text.format(MAX_SWEEP_POINTS + 1))
        assert err.value.field == "sweep.points"

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("mode = eig-sweep\n")  # key before any section header
        assert "line" in str(err.value)

    def test_round_trip_through_render(self):
        for text in (
            EIG_CONFIG.format(path="a.csv"),
            REFLECTION_CONFIG.format(path="b.csv"),
            "[run]\nmode = dynamics\n[drive]\namplitude = 2\n[dynamics]\nt_end = 10\ndt = 0.01\ndelta = 0.3\n",
            "[run]\nmode = ep-find\n[sweep]\nmin = 0.02\nmax = 0.06\npoints = 11\n[ep]\nmodel = full\n"
            "[si]\nkappa_hz = 1e6\n",
        ):
            config = parse_config(text)
            assert parse_config(render_config(config)) == config

    def test_readme_config_block_names_the_grammar(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        named = {}
        for line in block.splitlines():
            if section := re.match(r"\[(\w+)\]", line):
                keys = named[section[1]] = set()
            # A commented-out key (the power route of [drive]) counts as a key.
            elif key := re.match(r"#?\s*(\w+) =", line):
                keys.add(key[1])
        assert named == {section: set(keys) for section, (_, keys) in GRAMMAR.items()}


class TestRenderCsv:
    def test_formatting_and_line_endings(self):
        text = render_csv(["x", "y"], [np.array([1.0, 2.5]), np.array([0.1, -3.0])])
        assert text == "# schema=1\nx,y\n1,0.10000000000000001\n2.5,-3\n"

    def test_cells_format_as_each_float_does(self):
        values = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, -2.5e-17, 1e16,
                           1.7976931348623157e308])
        columns = [values, values[::-1], np.arange(values.size)]
        rows = "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in zip(*columns))
        assert render_csv(["x", "y", "i"], columns) == "# schema=1\nx,y,i\n" + rows


class TestRunModes:
    def test_eig_sweep_outputs(self, tmp_path):
        out = tmp_path / "eig.csv"
        config = parse_config(EIG_CONFIG.format(path=out))
        written = run(config)
        assert [str(out), str(tmp_path / "eig.json")] == written
        headers, rows = read_csv(out)
        assert headers == ["s", "re_l0", "im_l0", "re_lp", "im_lp", "re_lm", "im_lm"]
        assert rows.shape == (241, 7)
        sidecar = json.loads((tmp_path / "eig.json").read_text())
        assert sidecar["features"]["min_gap"] == pytest.approx(4 * SQRT2, abs=1e-9)
        assert sidecar["features"]["min_gap_s"] == pytest.approx(0.0, abs=1e-12)

    def test_eig_sweep_json_round_trips(self, tmp_path):
        out = tmp_path / "eig.csv"
        config = parse_config(EIG_CONFIG.format(path=out))
        run(config)
        sidecar = json.loads((tmp_path / "eig.json").read_text())
        assert parse_config(sidecar["config_text"]) == config

    def test_reflection_sweep_dip(self, tmp_path):
        out = tmp_path / "refl.csv"
        config = parse_config(REFLECTION_CONFIG.format(path=out))
        run(config)
        headers, rows = read_csv(out)
        assert headers[:4] == ["delta", "re_r", "im_r", "abs2_r"]
        at_zero = rows[np.argmin(np.abs(rows[:, 0]))]
        assert at_zero[3] == pytest.approx(0.1024, abs=1e-10)
        sidecar = json.loads((tmp_path / "refl.json").read_text())
        assert sidecar["features"]["reflection_dip"]["abs2_r"] < 0.1024
        assert sidecar["features"]["nearest_zero_detuning"]["abs2_r"] == pytest.approx(0.1024, abs=1e-10)

    @pytest.mark.parametrize("template", [REFLECTION_CONFIG, REFLECTION_CONFIG.replace(
        "reflection-sweep", "response-sweep") + "\n[drive]\namplitude = 1.5\n"])
    def test_delta_sweep_rows_equal_single_point_solves(self, tmp_path, template):
        # 17 significant digits round-trip a float64, so the CSV holds the exact values.
        out = tmp_path / "sweep.csv"
        config = parse_config(template.format(path=out))
        run(config)
        headers, rows = read_csv(out)
        col = {name: rows[:, i] for i, name in enumerate(headers)}
        for i, delta in enumerate(col["delta"]):
            if config.mode == "reflection-sweep":
                r, t = reflection_transmission(config.system, DriveParams(delta=delta))
                assert (col["re_r"][i], col["im_r"][i]) == (r.real, r.imag)
                assert (col["re_t"][i], col["im_t"][i]) == (t.real, t.imag)
            else:
                point = steady_state(config.system, DriveParams(delta=delta, amplitude=1.5))
                for name in ("a", "m1", "m2"):
                    value = getattr(point, name)
                    assert (col[f"re_{name}"][i], col[f"im_{name}"][i]) == (value.real, value.imag)
                assert col["spincurrent"][i] == point.total_spincurrent

    def test_ep_find(self, tmp_path):
        out = tmp_path / "ep.csv"
        text = (
            "[run]\nmode = ep-find\n[system]\ngamma1 = 0\ngamma2 = 0\n"
            "[sweep]\nmin = 0.02\nmax = 0.06\npoints = 2\n"
            f"[output]\npath = {out}\nformat = both\n"
        )
        run(parse_config(text))
        headers, rows = read_csv(out)
        assert headers == ["s_ep", "re_lambda", "im_lambda", "gap"]
        assert rows[0, 0] == pytest.approx(0.04, abs=1e-6)
        sidecar = json.loads((tmp_path / "ep.json").read_text())
        assert sidecar["features"]["model"] == "adiabatic"

    def test_response_sweep_peaks(self, tmp_path):
        out = tmp_path / "resp.csv"
        text = (
            "[run]\nmode = response-sweep\n"
            "[system]\ngamma1 = 1\ngamma2 = 1\ng1 = 2\ng2 = 2\ns = 2\n"
            "[sweep]\nvariable = delta\nmin = -6\nmax = 6\npoints = 241\n"
            "[drive]\namplitude = 1\n"
            f"[output]\npath = {out}\nformat = both\n"
        )
        run(parse_config(text))
        sidecar = json.loads((tmp_path / "resp.json").read_text())
        assert len(sidecar["features"]["peaks"]) == 3

    def test_adiabatic_compare(self, tmp_path):
        out = tmp_path / "cmp.csv"
        text = (
            "[run]\nmode = adiabatic-compare\n"
            "[sweep]\nmin = -0.2\nmax = 0.2\npoints = 81\n"
            f"[output]\npath = {out}\nformat = both\n"
        )
        run(parse_config(text))
        headers, rows = read_csv(out)
        assert headers[-1] == "abs_err"
        sidecar = json.loads((tmp_path / "cmp.json").read_text())
        assert sidecar["features"]["max_eigenvalue_error"] == pytest.approx(0.0186, abs=2e-3)
        assert sidecar["features"]["induced_rate"] == pytest.approx(0.04)

    def test_attraction_window_labels_the_narrow_branch_plus(self, tmp_path):
        # The whole sweep lies inside the reduced attraction window |s| < g^2/kappa = 4,
        # so both reduced real parts are 0 at the endpoint: the tie goes to the
        # narrower branch (larger Im), on every row by continuity.
        out = tmp_path / "cmp.csv"
        text = (
            "[run]\nmode = adiabatic-compare\n[system]\ngamma1 = 1\ngamma2 = 1\ng1 = 2\ng2 = 2\n"
            "[sweep]\nmin = -0.2\nmax = 0.2\npoints = 481\n"
            f"[output]\npath = {out}\nformat = csv\n"
        )
        run(parse_config(text))
        headers, rows = read_csv(out)
        column = {name: rows[:, i] for i, name in enumerate(headers)}
        assert np.all(column["re_adia_p"] == 0) and np.all(column["re_adia_m"] == 0)
        assert np.all(column["im_adia_p"] > column["im_adia_m"])
        assert column["im_adia_p"][-1] == pytest.approx(-1.005, abs=1e-3)
        assert column["im_adia_m"][-1] == pytest.approx(-8.995, abs=1e-3)

    def test_dynamics_mode(self, tmp_path):
        out = tmp_path / "dyn.csv"
        text = (
            "[run]\nmode = dynamics\n"
            "[system]\ns = 0.04\n"
            "[drive]\namplitude = 1\n"
            "[dynamics]\nt_end = 1000\ndt = 0.05\n"
            f"[output]\npath = {out}\nformat = both\n"
        )
        run(parse_config(text))
        sidecar = json.loads((tmp_path / "dyn.json").read_text())
        assert sidecar["features"]["final_distance_to_steady_state"] < 1e-8
        headers, rows = read_csv(out)
        assert headers[0] == "t" and headers[-1] == "dist_to_steady"
        assert rows[-1, 0] == pytest.approx(1000.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_headers_follow_the_readme_table(self, tmp_path, mode):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Output", 1)[1].split("Columns per mode:\n\n", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for line in table.splitlines()[2:]:
            name, columns = (cell.strip() for cell in line.strip("|").split("|"))
            documented[name] = re.match(r"`([^`]*)`", columns)[1].split(", ")
        assert sorted(documented) == sorted(MODES)
        out = tmp_path / "out.csv"
        run(parse_config(f"[run]\nmode = {mode}\n{MODE_BODIES[mode]}[si]\nkappa_hz = 1e6\n"
                         f"[output]\npath = {out}\nformat = csv\n"))
        si_column = "t_seconds" if mode == "dynamics" else f"{documented[mode][0]}_hz"
        assert read_csv(out)[0] == documented[mode] + [si_column]

    def test_si_column(self, tmp_path):
        out = tmp_path / "eig.csv"
        text = EIG_CONFIG.format(path=out).replace("[output]", "[si]\nkappa_hz = 1e6\n\n[output]")
        run(parse_config(text))
        headers, rows = read_csv(out)
        assert headers[-1] == "s_hz"
        assert rows[0, -1] == pytest.approx(rows[0, 0] * 1e6)

    def test_dynamics_output_does_not_depend_on_blas_threads(self, tmp_path):
        # Trajectory rows are BLAS products; OpenBLAS reads its thread count once, at start-up.
        config = "[run]\nmode = dynamics\n[drive]\namplitude = 1\n[output]\npath = dyn.csv\nformat = both\n"
        outputs = []
        for threads in ("1", "2"):
            workdir = tmp_path / threads
            workdir.mkdir()
            (workdir / "run.cfg").write_text(config)
            proc = subprocess.run(
                [sys.executable, "-m", "cavitymagnons", "--config", "run.cfg"], cwd=workdir, capture_output=True,
                text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                                "PYTHONPATH": str(Path(cavitymagnons.__file__).parents[1])},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append([(workdir / name).read_bytes() for name in ("dyn.csv", "dyn.json")])
        assert len(outputs[0][0].splitlines()) > 1000
        assert outputs[0] == outputs[1]

    def test_csv_output_is_deterministic(self, tmp_path):
        out = tmp_path / "eig.csv"
        config = parse_config(EIG_CONFIG.format(path=out))
        run(config)
        first = out.read_bytes()
        run(config)
        assert out.read_bytes() == first
        assert b"\r" not in first


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(EIG_CONFIG.format(path=tmp_path / "out.csv"))
        assert main(["--config", str(config_path)]) == 0
        assert str(tmp_path / "out.csv") in capsys.readouterr().out

    def test_flag_overrides(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(EIG_CONFIG.format(path=tmp_path / "ignored.csv"))
        override = tmp_path / "other.csv"
        assert main(["--config", str(config_path), "--output", str(override), "--format", "csv"]) == 0
        assert override.exists()
        assert not (tmp_path / "ignored.csv").exists()
        assert not (tmp_path / "other.json").exists()

    @pytest.mark.parametrize("args,diagnostic", [
        (["--config", "not_utf8.cfg"], "config error: config: 'utf-8' codec can't decode"),
        (["--config", "run.cfg", "--format", "xml"], "config error: command line: argument --format"),
        (["--config", "run.cfg", "--verbose"], "config error: command line: unrecognized arguments"),
        (["--config", "run.cfg", "--output", "nodir/x.csv"], "config error: output.path: "),
        # Paths a config file cannot carry: the sidecar's config_text would not re-parse to the run.
        (["--config", "run.cfg", "--output", ""], "config error: output.path: "),
        (["--config", "run.cfg", "--output", " sp.csv"], "config error: output.path: "),
        (["--config", "run.cfg", "--output", "x #y.csv"], "config error: output.path: "),
    ], ids=["not-utf8", "format-xml", "unknown-flag", "missing-directory", "empty-output", "spaced-output",
            "commented-output"])
    def test_bad_command_lines_are_config_errors(self, tmp_path, args, diagnostic):
        (tmp_path / "run.cfg").write_text(EIG_CONFIG.format(path="out.csv"))
        (tmp_path / "not_utf8.cfg").write_bytes(b"\xff\xfe[run]\nmode = eig-sweep\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cavitymagnons", *args], cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cavitymagnons.__file__).parents[1])},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.endswith("\n")
        assert proc.stderr.startswith(diagnostic)
        assert proc.stdout == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["not_utf8.cfg", "run.cfg"]

    @pytest.mark.parametrize("output,written", [
        ("a.csv", ["a.csv", "a.json"]),
        ("a.json", ["a.csv", "a.json"]),
        ("a", ["a.csv", "a.json"]),
        # One suffix comes off, whichever it is.
        ("a.json.csv", ["a.json.csv", "a.json.json"]),
        ("a.csv.json", ["a.csv.csv", "a.csv.json"]),
    ])
    def test_output_path_loses_one_suffix(self, tmp_path, capsys, output, written):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(EIG_CONFIG.format(path="ignored.csv"))
        assert main(["--config", str(config_path), "--output", str(tmp_path / output)]) == 0
        assert capsys.readouterr().out.split() == [str(tmp_path / name) for name in written]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["run.cfg", *written])

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/run.cfg"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_config_error_names_field(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("[run]\nmode = eig-sweep\n[system]\nkappa = -2\n"
                               "[sweep]\nmin = -1\nmax = 1\npoints = 11\n")
        assert main(["--config", str(config_path)]) == 1
        assert "kappa" in capsys.readouterr().err

    def test_numerical_error_names_sweep_point(self, tmp_path, capsys):
        # Undamped decoupled magnons are exactly singular at delta = +-s.
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            "[run]\nmode = response-sweep\n"
            "[system]\ngamma1 = 0\ngamma2 = 0\ng1 = 0\ng2 = 0\ns = 0.5\n"
            "[sweep]\nvariable = delta\nmin = -1\nmax = 1\npoints = 9\n"
            "[drive]\namplitude = 1\n"
            f"[output]\npath = {tmp_path / 'x.csv'}\nformat = csv\n"
        )
        assert main(["--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "numerical error" in err and "delta=-0.5" in err

    def test_numerical_error_names_dynamics_delta(self, tmp_path, capsys):
        # The steady state of a dynamics run is solved at [dynamics] delta = s.
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            "[run]\nmode = dynamics\n"
            "[system]\ngamma1 = 0\ngamma2 = 0\ng1 = 0\ng2 = 0\ns = 0.5\n"
            "[drive]\namplitude = 1\n[dynamics]\ndelta = 0.5\n"
            f"[output]\npath = {tmp_path / 'dyn.csv'}\nformat = csv\n"
        )
        assert main(["--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            "numerical error: singular steady-state system at dynamics.delta=0.5\n"
        )
        assert not (tmp_path / "dyn.csv").exists()

    def test_unstable_step_is_numerical_error(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            "[run]\nmode = dynamics\n[drive]\namplitude = 1\n"
            "[dynamics]\nt_end = 10\ndt = 5\n"
            f"[output]\npath = {tmp_path / 'dyn.csv'}\nformat = csv\n"
        )
        assert main(["--config", str(config_path)]) == 2
        assert "stability" in capsys.readouterr().err

    @pytest.mark.parametrize("body,column", [
        # The steady state and the trajectory overflow.
        ("[run]\nmode = dynamics\n[drive]\namplitude = 1e308\n", "re_a"),
        # Amplitudes stay finite; their squared sum does not.
        ("[run]\nmode = response-sweep\n[sweep]\nmin = -1\nmax = 1\npoints = 11\n"
         "[drive]\namplitude = 1e160\n", "spincurrent"),
    ])
    def test_non_finite_output_is_numerical_error(self, tmp_path, capsys, body, column):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(body + f"[output]\npath = {tmp_path / 'out.csv'}\nformat = both\n")
        assert main(["--config", str(config_path)]) == 2
        assert f"column {column}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("body,column", [
        ("[run]\nmode = dynamics\n[drive]\namplitude = 1e308\n", "re_a"),
        ("[run]\nmode = response-sweep\n[sweep]\nmin = -1\nmax = 1\npoints = 11\n"
         "[drive]\namplitude = 1e160\n", "spincurrent"),
    ])
    def test_overflow_prints_only_the_diagnostic(self, tmp_path, body, column):
        # A fresh process, so numpy's default warning handling applies.
        config_path = tmp_path / "run.cfg"
        config_path.write_text(body + f"[output]\npath = {tmp_path / 'out.csv'}\nformat = both\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cavitymagnons", "--config", str(config_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"numerical error: non-finite values in column {column}; nothing written\n"
        assert proc.stdout == ""

    def test_ep_not_found_is_numerical_error(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            "[run]\nmode = ep-find\n[system]\ng1 = 0\ng2 = 0\ngamma1 = 0\ngamma2 = 0\n"
            "[sweep]\nmin = 0.02\nmax = 0.06\npoints = 2\n"
            f"[output]\npath = {tmp_path / 'ep.csv'}\nformat = csv\n"
        )
        assert main(["--config", str(config_path)]) == 2
        assert "no coalescence" in capsys.readouterr().err

    @pytest.mark.parametrize("body,diagnostic", [
        # |s| ~ 1000 kappa, where a bracket cannot shrink below one ulp.
        ("[run]\nmode = ep-find\n[sweep]\nmin = 1000\nmax = 1001\npoints = 2\n[ep]\nmodel = full\n",
         "numerical error: no coalescence in [1000.0, 1001.0]"),
        # g**2 overflows a float.
        ("[run]\nmode = ep-find\n[system]\ng1 = 1e200\ng2 = 1e200\n"
         "[sweep]\nmin = 0.02\nmax = 0.06\npoints = 2\n[ep]\nmodel = adiabatic\n",
         "numerical error: no coalescence in [0.02, 0.06]: gap nan"),
        ("[run]\nmode = ep-find\n[system]\ng1 = 1e200\ng2 = 1e200\n"
         "[sweep]\nmin = 0.02\nmax = 0.06\npoints = 2\n[ep]\nmodel = full\n",
         "numerical error: no coalescence in [0.02, 0.06]: gap 1.414e+200"),
        ("[run]\nmode = adiabatic-compare\n[system]\ng1 = 1e200\ng2 = 1e200\n"
         "[sweep]\nmin = -0.1\nmax = 0.1\npoints = 11\n",
         "numerical error: reduced-model matrix is not finite"),
        ("[run]\nmode = dynamics\n[system]\ng1 = 1e200\ng2 = 1e200\n[drive]\namplitude = 1\n",
         "config error: dynamics.t_end: no default"),
        # About 7.5 GiB of sweep points alone.
        ("[run]\nmode = eig-sweep\n[sweep]\nmin = -1\nmax = 1\npoints = 1000000000\n",
         "config error: sweep.points"),
        # hbar * frequency underflows to 0, or the amplitude overflows.
        ("[run]\nmode = dynamics\n[drive]\npower = 1e300\nfrequency = 1e-300\n",
         "config error: drive.frequency: "),
        ("[run]\nmode = dynamics\n[drive]\npower = 0\nfrequency = 1e-320\n",
         "config error: drive.frequency: "),
        ("[run]\nmode = dynamics\n[drive]\npower = 1e300\nfrequency = 1e-10\n",
         "config error: drive.power: "),
        # The RK4 step map overflows; its eigenvalues cannot be taken.
        ("[run]\nmode = dynamics\n[system]\nkappa = 1.67\ngamma1 = 1e150\ngamma2 = 0.98\ng2 = 1.57\ns = 27\n"
         "[drive]\namplitude = 0\n[dynamics]\ndt = 0.0574\nt_end = 27.5\n",
         "numerical error: dt=0.0574 overflows the RK4 step map"),
    ], ids=["ep-hang-bracket", "ep-adiabatic-1e200", "ep-full-1e200", "adiabatic-compare-1e200",
            "dynamics-1e200", "points-1e9", "power-frequency-1e-300", "power-frequency-1e-320",
            "power-1e300", "dynamics-step-map-overflow"])
    def test_extreme_inputs_end_in_one_diagnostic(self, tmp_path, body, diagnostic):
        # A fresh process with a time limit and a 2 GB address space, so a
        # hang or an oversized allocation fails the test instead of the host.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))

        config_path = tmp_path / "run.cfg"
        config_path.write_text(body + f"[output]\npath = {tmp_path / 'out.csv'}\nformat = both\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cavitymagnons", "--config", str(config_path)],
            capture_output=True, text=True, timeout=10, preexec_fn=limit_memory,
        )
        assert proc.returncode == (1 if diagnostic.startswith("config error: ") else 2)
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.endswith("\n")
        assert proc.stderr.startswith(diagnostic)
        assert proc.stdout == ""
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "out.json").exists()

    def test_huge_coupling_sweep_keeps_the_dark_root(self, tmp_path):
        # g = 1e200: the characteristic coefficients overflow unless each
        # matrix is scaled first, and the dark root -i*gamma is 1e-202 of the
        # largest entry.
        out = tmp_path / "out.csv"
        config_path = tmp_path / "run.cfg"
        config_path.write_text("[run]\nmode = eig-sweep\n[system]\ng1 = 1e200\ng2 = 1e200\n"
                               f"[sweep]\nmin = -1\nmax = 1\npoints = 11\n[output]\npath = {out}\nformat = csv\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cavitymagnons", "--config", str(config_path)],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        _, rows = read_csv(out)
        assert rows.shape == (11, 7)
        assert np.isfinite(rows).all()
        values = rows[:, 1::2] + 1j * rows[:, 2::2]
        dark = values[np.arange(11), np.argmin(np.abs(values), axis=1)]
        assert np.abs(dark + 0.01j).max() <= 1e-12

    def test_huge_coupling_sweep_writes_no_gain(self, tmp_path):
        # g = 1e40: Cardano's imaginary parts are only accurate to eps |lambda|,
        # about 1e24 here, while every linewidth of the passive system is <= 0.
        out = tmp_path / "out.csv"
        config_path = tmp_path / "run.cfg"
        config_path.write_text("[run]\nmode = eig-sweep\n[system]\ng1 = 1e40\ng2 = 1e40\n"
                               f"[sweep]\nmin = -1\nmax = 1\npoints = 11\n[output]\npath = {out}\nformat = csv\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cavitymagnons", "--config", str(config_path)],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        headers, rows = read_csv(out)
        widths = rows[:, [j for j, name in enumerate(headers) if name.startswith("im_")]]
        assert widths.shape == (11, 3)
        assert widths.max() <= 0

    def test_huge_coupling_response_sweep_stays_finite(self, tmp_path):
        # g = 1e200: g^2 in det(H - delta) overflows unless the matrix is scaled first.
        out = tmp_path / "out.csv"
        config_path = tmp_path / "run.cfg"
        config_path.write_text("[run]\nmode = response-sweep\n[system]\ng1 = 1e200\ng2 = 1e200\n"
                               "[sweep]\nvariable = delta\nmin = -1\nmax = 1\npoints = 11\n"
                               f"[drive]\namplitude = 1\n[output]\npath = {out}\nformat = csv\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cavitymagnons", "--config", str(config_path)],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        _, rows = read_csv(out)
        assert rows.shape == (11, 10)
        assert np.isfinite(rows).all()
        # Each magnon sees the cavity through g, so |m1| ~ |m2| ~ 1/g.
        assert 0 < np.abs(rows[:, 3:7]).max() < 1e-199

    def test_multi_line_output_path_writes_nothing(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("[run]\nmode = eig-sweep\n[sweep]\nmin = -1\nmax = 1\npoints = 11\n"
                               f"[output]\npath = {tmp_path / 'out'}\n  more.csv\nformat = both\n")
        assert main(["--config", str(config_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: output.path: control character")
        assert list(tmp_path.iterdir()) == [config_path]

    def test_dynamics_memory_follows_the_rows(self, tmp_path):
        # 2*10**6 steps: storing every step took 139 MB; only the 2003 written rows are kept now.
        out = tmp_path / "dyn.csv"
        config_path = tmp_path / "run.cfg"
        config_path.write_text("[run]\nmode = dynamics\n[system]\ns = 0.04\n[drive]\namplitude = 1\n"
                               f"[dynamics]\nt_end = 200000\ndt = 0.1\n[output]\npath = {out}\nformat = csv\n")
        # The child reports the peak of its own address space (VmHWM).  Its
        # ru_maxrss would also count the forked image of this test process.
        script = (
            "from cavitymagnons.cli import main\n"
            f"assert main(['--config', {str(config_path)!r}]) == 0\n"
            "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout.split()[-2]) / 1024  # "VmHWM:  <n> kB"
        assert peak_mb < 70
        assert len(out.read_text().splitlines()) == 2003

    def test_console_entry_point(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(EIG_CONFIG.format(path=tmp_path / "out.csv"))
        proc = subprocess.run(
            [sys.executable, "-m", "cavitymagnons", "--config", str(config_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("mode", MODE_BODIES)
    def test_runtime_never_loads_the_closed_forms(self, tmp_path, mode):
        # The paper's closed forms and scipy serve the tests; a fresh import and a run leave them unloaded.
        config_path = tmp_path / "run.cfg"
        config_path.write_text(f"[run]\nmode = {mode}\n{MODE_BODIES[mode]}[output]\npath = {tmp_path / 'out.csv'}\n")
        script = (
            "import sys, cavitymagnons\n"
            "from cavitymagnons.cli import main\n"
            f"assert main(['--config', {str(config_path)!r}]) == 0\n"
            "print('cavitymagnons.closed_forms' in sys.modules, 'scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False False"
