"""Command-line front end: config-driven sweeps with CSV/JSON output.

A run is described by an INI-style config file whose sections and keys are
the `GRAMMAR` table (documented in the README); the `MODES` table beside it
holds each mode's runner, `[sweep]` variable and need of a `[drive]`.
Results are written as a CSV table, one row per sweep point, with a
versioned header comment, and optionally a JSON sidecar carrying a canonical
echo of the parsed config plus detected features (peaks, gap minima,
exceptional-point locations).

Each mode's runner returns `(columns, features)`, where `columns` is an
ordered dict from a quantity's name to its 1-D array, real or complex.  `run`
alone turns it into the table: it appends the SI column (`<first column>_hz`,
or `t_seconds` for dynamics) and writes a complex `q` as `re_q, im_q`.

Exit codes: 0 success; 1 config error (diagnostic names the first invalid
field, or the command line, the config file or the output path at fault);
2 numerical failure (diagnostic names the sweep point, or the column or
feature holding a NaN or infinity; nothing is written).  `main` and the
experiment scripts' `entry.run_figure_configs` share the check of an output
path set outside the config file (`_parse_carried`) and the run loop
(`_run_configs`), whose `_exit_code` picks these codes.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, response, spectra
from .model import DriveParams, SystemParams, _dressed_rates, drive_amplitude_from_power

FORMATS = ("csv", "json", "both")
CSV_SCHEMA = 1
# Bounds every sweep: at 10^6 points on 2 vCPUs an eig-sweep run takes about 4.6 s and 176 MB peak RSS
# (0.7 s and 176 MB as json only), an adiabatic-compare run about 7.7 s and 186 MB.
MAX_SWEEP_POINTS = 10**6
# Rows that run() formats and writes per pass, so the CSV text is never whole in memory.
CSV_BLOCK_ROWS = 8192

class ConfigError(ValueError):
    """Invalid run configuration; `field` names the first offending entry."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description."""

    mode: str
    system: SystemParams
    sweep_min: float | None = None
    sweep_max: float | None = None
    sweep_points: int | None = None
    drive: DriveParams | None = None
    drive_power: float | None = None
    drive_frequency: float | None = None
    t_end: float | None = None
    dt: float | None = None
    ep_model: str = "adiabatic"
    kappa_hz: float | None = None
    output_path: str = ""
    output_format: str = "both"


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; defaults target the bad-cavity regime.

    System defaults are kappa=1, gamma_i=0.01, g_i=0.2, s=0.  Modes that probe
    the driven response (response-sweep, dynamics) require a [drive] block
    with either `amplitude` or `power` + `frequency` (the SI conversion);
    giving both routes, or power without frequency, is rejected rather than
    silently resolved.
    """
    # No default section: a [DEFAULT] header is one more unknown section.
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",), default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        if lineno is None and getattr(exc, "errors", None):
            lineno = exc.errors[0][0]
        summary = str(exc).splitlines()[0]
        where = f" at line {lineno}" if lineno is not None else ""
        raise ConfigError("config", f"parse error{where}: {summary}") from None

    texts = {}
    for section in parser.sections():
        if section not in GRAMMAR:
            raise ConfigError(section, "unknown section")
        for key in parser[section]:
            if key not in GRAMMAR[section][1]:
                raise ConfigError(f"{section}.{key}", "unknown key")
        for key, raw in parser[section].items():
            if raw.strip() == "":
                raise ConfigError(f"{section}.{key}", "empty value")
        texts[section] = {key: raw.strip() for key, raw in parser[section].items()}

    def get(section: str, key: str):
        """The value of section.key as its grammar type, or None when absent."""
        text = texts.get(section, {}).get(key)
        kind = GRAMMAR[section][1][key]
        if text is None or kind is str:
            return text
        try:
            value = kind(text)
        except ValueError:
            noun = "a number" if kind is float else "an integer"
            raise ConfigError(f"{section}.{key}", f"not {noun}: {text!r}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{section}.{key}", f"must be finite, got {text!r}")
        return value

    def used(section: str, unused: str) -> bool:
        """Whether the mode uses `section`; a section it does not use is rejected."""
        if mode in GRAMMAR[section][0]:
            return True
        if section in texts:
            raise ConfigError(section, unused)
        return False

    mode = get("run", "mode")
    if mode is None:
        raise ConfigError("run.mode", "missing (expected one of %s)" % ", ".join(MODES))
    if mode not in MODES:
        raise ConfigError("run.mode", f"unknown mode {mode!r} (expected one of {', '.join(MODES)})")

    system_kwargs = {key: value for key in GRAMMAR["system"][1] if (value := get("system", key)) is not None}
    try:
        system = SystemParams(**system_kwargs)
    except ValueError as exc:
        offending = str(exc).split()[0]
        raise ConfigError(f"system.{offending}", str(exc)) from None

    sweep_min = sweep_max = sweep_points = None
    if used("sweep", f"not used by mode {mode}"):
        if "sweep" not in texts:
            raise ConfigError("sweep", f"missing section (required for mode {mode})")
        expected_var = MODES[mode].sweep
        sweep_variable = get("sweep", "variable") or expected_var
        if sweep_variable != expected_var:
            raise ConfigError(
                "sweep.variable",
                f"must be {expected_var!r} for mode {mode}, got {sweep_variable!r}",
            )
        for key in ("min", "max", "points"):
            if key not in texts["sweep"]:
                raise ConfigError(f"sweep.{key}", "missing")
        sweep_min, sweep_max, sweep_points = get("sweep", "min"), get("sweep", "max"), get("sweep", "points")
        if sweep_points < 2:
            raise ConfigError("sweep.points", f"need at least 2 points, got {sweep_points}")
        if sweep_points > MAX_SWEEP_POINTS:
            raise ConfigError("sweep.points", f"at most {MAX_SWEEP_POINTS} points, got {sweep_points}")
        if sweep_max <= sweep_min:
            raise ConfigError("sweep.max", f"must exceed sweep.min ({sweep_min})")

    drive = drive_power = drive_frequency = None
    routes = texts.get("drive", {}).keys()
    if "drive" in texts and "amplitude" not in routes and "power" not in routes:
        raise ConfigError("drive", "drive block given without amplitude or power")
    if "amplitude" in routes and "power" in routes:
        raise ConfigError("drive", "both amplitude and power given; choose one")
    if "power" in routes and "frequency" not in routes:
        raise ConfigError("drive.frequency", "required alongside drive.power")
    if "frequency" in routes and "power" not in routes:
        raise ConfigError("drive.power", "required alongside drive.frequency")
    if "amplitude" in routes:
        amplitude = get("drive", "amplitude")
        try:
            drive = DriveParams(delta=0.0, amplitude=amplitude)
        except ValueError as exc:
            raise ConfigError("drive.amplitude", str(exc)) from None
    elif "power" in routes:
        drive_power, drive_frequency = get("drive", "power"), get("drive", "frequency")
        try:
            amplitude = drive_amplitude_from_power(drive_power, drive_frequency)
        except ValueError as exc:
            field = "drive.frequency" if str(exc).startswith("drive_frequency") else "drive.power"
            raise ConfigError(field, str(exc)) from None
        drive = DriveParams(delta=0.0, amplitude=amplitude)
    if MODES[mode].drive and drive is None:
        raise ConfigError("drive", f"required for mode {mode}")

    t_end = dt = None
    if used("dynamics", f"not used by mode {mode}"):
        t_end, dt, delta = get("dynamics", "t_end"), get("dynamics", "dt"), get("dynamics", "delta")
        if delta is not None:
            drive = replace(drive, delta=delta)
        if t_end is None:
            gt_min = min(_dressed_rates(system)[:2])
            if math.isinf(gt_min):
                raise ConfigError("dynamics.t_end", "no default: gamma + g**2/kappa overflows; set t_end")
            t_end = 50.0 / gt_min if gt_min > 0 else 50.0 / system.kappa
        if dt is None:
            dt = 0.1 / max(system.kappa, abs(system.s), system.g1, system.g2, 1.0)
        try:
            dynamics.step_count(t_end, dt)
        except ValueError as exc:
            field = "dynamics.dt" if str(exc).startswith("dt ") else "dynamics.t_end"
            raise ConfigError(field, f"{exc} (t_end = {t_end:.6g}, dynamics.dt = {dt:.6g})") from None

    ep_model = get("ep", "model") or "adiabatic"
    if used("ep", "only used by mode ep-find") and ep_model not in ("adiabatic", "full"):
        raise ConfigError("ep.model", f"must be 'adiabatic' or 'full', got {ep_model!r}")

    kappa_hz = get("si", "kappa_hz")
    if kappa_hz is not None and kappa_hz <= 0:
        raise ConfigError("si.kappa_hz", "must be positive")

    output_path = get("output", "path") or f"{mode}.csv"
    if any(ord(char) < 32 or ord(char) == 127 for char in output_path):
        raise ConfigError("output.path", f"control character in {output_path!r}")
    if os.path.basename(_output_base(output_path)) in ("", ".", ".."):
        raise ConfigError("output.path", f"names a directory, not a file: {output_path!r}")
    output_format = get("output", "format") or "both"
    if output_format not in FORMATS:
        raise ConfigError("output.format", f"must be one of {', '.join(FORMATS)}, got {output_format!r}")

    return RunConfig(
        mode=mode,
        system=system,
        sweep_min=sweep_min,
        sweep_max=sweep_max,
        sweep_points=sweep_points,
        drive=drive,
        drive_power=drive_power,
        drive_frequency=drive_frequency,
        t_end=t_end,
        dt=dt,
        ep_model=ep_model,
        kappa_hz=kappa_hz,
        output_path=output_path,
        output_format=output_format,
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def render_config(config: RunConfig) -> str:
    """Canonical config text; parse_config(render_config(c)) == c."""
    drive = config.drive
    values = {
        "run": {"mode": config.mode},
        "system": vars(config.system),
        "sweep": {"variable": MODES[config.mode].sweep, "min": config.sweep_min, "max": config.sweep_max,
                  "points": config.sweep_points},
        # The drive route the config gave: amplitude, or power + frequency.
        "drive": {"amplitude": drive.amplitude if drive is not None and config.drive_power is None else None,
                  "power": config.drive_power, "frequency": config.drive_frequency},
        "dynamics": {"t_end": config.t_end, "dt": config.dt,
                     "delta": drive.delta if drive is not None and drive.delta != 0.0 else None},
        "ep": {"model": config.ep_model},
        "si": {"kappa_hz": config.kappa_hz},
        "output": {"path": config.output_path, "format": config.output_format},
    }
    blocks = []
    for section, (modes, keys) in GRAMMAR.items():
        lines = [f"{key} = {_fmt(values[section][key]) if kind is float else values[section][key]}"
                 for key, kind in keys.items() if values[section][key] is not None]
        if config.mode in modes and lines:
            blocks.append("\n".join([f"[{section}]", *lines]))
    return "\n\n".join(blocks) + "\n"


def _run_eig_sweep(config: RunConfig) -> tuple[dict, dict]:
    branch_set = spectra.sweep_eigenvalues(
        config.system, config.sweep_min, config.sweep_max, config.sweep_points
    )
    plus, minus = branch_set.magnon_branch_indices()
    s = branch_set.sweep_values
    l0 = branch_set.branches[:, branch_set.cavity_branch_index()]
    lp = branch_set.branches[:, plus]
    lm = branch_set.branches[:, minus]
    gaps = np.abs(lp.real - lm.real)
    i_min = int(np.argmin(gaps))
    features = {
        "min_gap": float(gaps[i_min]),
        "min_gap_s": float(s[i_min]),
        "ambiguous_spans": [list(span) for span in branch_set.ambiguous_spans],
    }
    return {"s": s, "l0": l0, "lp": lp, "lm": lm}, features


def _run_ep_find(config: RunConfig) -> tuple[dict, dict]:
    point = spectra.find_exceptional_point(
        config.system, config.sweep_min, config.sweep_max, model=config.ep_model
    )
    columns = {
        "s_ep": np.array([point.location]),
        "lambda": np.array([point.degenerate_value]),
        "gap": np.array([point.gap_at_location]),
    }
    features = {
        "model": config.ep_model,
        "s_ep": point.location,
        "degenerate_value": [point.degenerate_value.real, point.degenerate_value.imag],
        "gap": point.gap_at_location,
    }
    return columns, features


def _run_response_sweep(config: RunConfig) -> tuple[dict, dict]:
    deltas = np.linspace(config.sweep_min, config.sweep_max, config.sweep_points)
    sweep = response.spincurrent_spectrum(config.system, deltas, config.drive.amplitude)
    a, m1, m2 = sweep.states.T
    columns = {
        "delta": deltas, "a": a, "m1": m1, "m2": m2,
        "spincurrent": sweep.total_spincurrent, "dark": sweep.dark_amplitude,
    }
    features = {"peaks": [{"delta": d, "height": h} for d, h in sweep.peaks]}
    return columns, features


def _run_reflection_sweep(config: RunConfig) -> tuple[dict, dict]:
    deltas = np.linspace(config.sweep_min, config.sweep_max, config.sweep_points)
    # r and t do not depend on the drive amplitude.
    sweep = response.spincurrent_spectrum(config.system, deltas)
    r, t = sweep.r, sweep.t
    abs2_r = np.abs(r) ** 2
    abs2_t = np.abs(t) ** 2
    i_dip = int(np.argmin(abs2_r))
    i_zero = int(np.argmin(np.abs(deltas)))
    features = {
        "reflection_dip": {"delta": float(deltas[i_dip]), "abs2_r": float(abs2_r[i_dip])},
        "nearest_zero_detuning": {
            "delta": float(deltas[i_zero]),
            "abs2_r": float(abs2_r[i_zero]),
            "abs2_t": float(abs2_t[i_zero]),
        },
    }
    return {"delta": deltas, "r": r, "abs2_r": abs2_r, "t": t, "abs2_t": abs2_t}, features


def _run_adiabatic_compare(config: RunConfig) -> tuple[dict, dict]:
    full = spectra.sweep_eigenvalues(config.system, config.sweep_min, config.sweep_max, config.sweep_points)
    reduced = spectra.sweep_eigenvalues(
        config.system, config.sweep_min, config.sweep_max, config.sweep_points, adiabatic=True
    )
    plus, minus = full.magnon_branch_indices()
    rp, rm = reduced.magnon_branch_indices()
    fp = full.branches[:, plus]
    fm = full.branches[:, minus]
    ap = reduced.branches[:, rp]
    am = reduced.branches[:, rm]
    err = np.maximum.reduce([
        np.minimum(np.abs(fp - ap), np.abs(fp - am)),
        np.minimum(np.abs(fm - ap), np.abs(fm - am)),
    ])
    columns = {"s": full.sweep_values, "full_p": fp, "full_m": fm, "adia_p": ap, "adia_m": am, "abs_err": err}
    features = {
        "max_eigenvalue_error": float(err.max()),
        "max_eigenvalue_error_s": float(full.sweep_values[int(np.argmax(err))]),
        "induced_rate": config.system.induced_rate,
    }
    return columns, features


def _run_dynamics(config: RunConfig) -> tuple[dict, dict]:
    drive = config.drive
    # Keep about 2000 rows so long runs stay reviewable; only those are computed.
    stride = max(1, (dynamics.step_count(config.t_end, config.dt) + 1) // 2000)
    trajectory = dynamics.integrate_full(
        config.system, drive, np.zeros(3, dtype=complex), config.t_end, config.dt, stride
    )
    try:
        steady = response.steady_state(config.system, drive)
    except np.linalg.LinAlgError:  # it names delta; the config calls it dynamics.delta
        raise ValueError(f"singular steady-state system at dynamics.delta={_fmt(drive.delta)}") from None
    target = np.array([steady.a, steady.m1, steady.m2])
    a, m1, m2 = trajectory.states.T
    distance = np.linalg.norm(trajectory.states - target, axis=1)
    columns = {"t": trajectory.times, "a": a, "m1": m1, "m2": m2, "dist_to_steady": distance}
    features = {
        "dt": trajectory.dt,
        "final_residual": trajectory.final_residual,
        "final_distance_to_steady_state": float(distance[-1]),
        "steady_state": {
            "a": [steady.a.real, steady.a.imag],
            "m1": [steady.m1.real, steady.m1.imag],
            "m2": [steady.m2.real, steady.m2.imag],
        },
    }
    return columns, features


# The per-mode half of the grammar, in the order diagnostics list the modes: each mode's
# runner, its [sweep] variable (None: the mode takes no [sweep]) and whether it needs a [drive].
_Mode = namedtuple("_Mode", "runner sweep drive")
MODES = {
    "eig-sweep": _Mode(_run_eig_sweep, "s", False),
    "response-sweep": _Mode(_run_response_sweep, "delta", True),
    "reflection-sweep": _Mode(_run_reflection_sweep, "delta", False),
    "ep-find": _Mode(_run_ep_find, "s", False),
    "adiabatic-compare": _Mode(_run_adiabatic_compare, "s", False),
    "dynamics": _Mode(_run_dynamics, None, True),
}

# The config grammar: per section, the modes whose configs may carry it and
# its keys with their types, in check and render order.
GRAMMAR = {
    "run": (MODES, {"mode": str}),
    "system": (MODES, {"kappa": float, "gamma1": float, "gamma2": float, "g1": float, "g2": float, "s": float}),
    "sweep": (tuple(m for m in MODES if MODES[m].sweep), {"variable": str, "min": float, "max": float, "points": int}),
    "drive": (MODES, {"amplitude": float, "power": float, "frequency": float}),
    "dynamics": (("dynamics",), {"t_end": float, "dt": float, "delta": float}),
    "ep": (("ep-find",), {"model": str}),
    "si": (MODES, {"kappa_hz": float}),
    "output": (MODES, {"path": str, "format": str}),
}


def _csv_blocks(headers: list[str], columns: list):
    """The CSV text in pieces: the schema comment and header row, then CSV_BLOCK_ROWS rows at a time."""
    yield f"# schema={CSV_SCHEMA}\n" + ",".join(headers) + "\n"
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    columns = [np.asarray(c, dtype=float) for c in columns]
    for start in range(0, min(map(len, columns), default=0), CSV_BLOCK_ROWS):
        yield "".join([row % values for values in zip(*(c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns))])


def render_csv(headers: list[str], columns: list) -> str:
    """CSV with a schema comment, header row, LF endings, 17 significant digits."""
    return "".join(_csv_blocks(headers, columns))


def _output_base(path: str) -> str:
    """`path` less one trailing .csv or .json; the CSV and JSON paths are it plus each suffix."""
    return path.removesuffix(".csv") if path.endswith(".csv") else path.removesuffix(".json")


def _nonfinite_feature(value, name: str) -> str | None:
    """Dotted name of the first NaN or infinity inside a features value, or None."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return name if isinstance(value, float) and not math.isfinite(value) else None
    for key, item in items:
        found = _nonfinite_feature(item, f"{name}.{key}")
        if found is not None:
            return found
    return None


def run(config: RunConfig) -> list[str]:
    """Execute one run; returns the list of files written.

    Numerical failures (singular steady-state solve, absent coalescence, NaN
    or infinite output) propagate to the caller before anything is written;
    `main` maps them to exit code 2.
    """
    # Overflow shows up as NaN or infinity in the output, which the checks
    # below report; numpy's own warnings would only bury that diagnostic.
    with np.errstate(over="ignore", invalid="ignore"):
        named, features = MODES[config.mode].runner(config)
        if config.kappa_hz is not None:
            first, values = next(iter(named.items()))
            if config.mode == "dynamics":
                named["t_seconds"] = values / config.kappa_hz
            else:
                named[f"{first}_hz"] = values * config.kappa_hz
    table = {}
    for name, values in named.items():
        if np.iscomplexobj(values):
            table.update({f"re_{name}": values.real, f"im_{name}": values.imag})
        else:
            table[name] = values
    for header, column in table.items():
        if not np.all(np.isfinite(column)):
            raise ValueError(f"non-finite values in column {header}; nothing written")
    bad_feature = _nonfinite_feature(features, "features")
    if bad_feature is not None:
        raise ValueError(f"non-finite value in {bad_feature}; nothing written")
    base = _output_base(config.output_path)
    targets = []
    if config.output_format in ("csv", "both"):
        targets.append((base + ".csv", lambda handle: handle.writelines(_csv_blocks(list(table), [*table.values()]))))
    if config.output_format in ("json", "both"):
        sidecar = {
            "schema": CSV_SCHEMA,
            "mode": config.mode,
            "config_text": render_config(config),
            "features": features,
        }
        targets.append((base + ".json", lambda handle: handle.write(
            json.dumps(sidecar, indent=2, sort_keys=True, allow_nan=False) + "\n")))
    _write_targets(targets)
    return [path for path, _ in targets]


def _write_targets(targets: list) -> None:
    """Write each (path, write) target; if any fails, none is left half made.

    Every target is opened, without truncating it, before any is written: one
    that cannot be opened (a directory, say) leaves the others as they were,
    less those this call created.  Once writing has begun a failure removes
    every target.
    """
    opened, writing = [], False
    try:
        for path, _ in targets:
            existed = os.path.lexists(path)
            handle = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8", newline="")
            opened.append((path, existed, handle))
        writing = True
        for (_, write), (_, _, handle) in zip(targets, opened):
            handle.truncate()
            write(handle)
            handle.close()
    except BaseException:
        for path, existed, handle in opened:
            with contextlib.suppress(OSError):
                handle.close()
            if writing or not existed:
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a config error (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError("command line", message)


def _parse_carried(text: str, path: str, field: str, given: str, expected: RunConfig | None = None) -> RunConfig:
    """Parse `text`, whose [output] path `path` was set from `given` outside the config file.

    ConfigError(field) unless the grammar carries `path` unchanged, and the text re-parses to `expected`
    when that is given: the sidecar's config_text re-parses to the run.
    """
    try:
        config = parse_config(text)
    except ConfigError as exc:
        if exc.field == "output.path":  # the grammar refuses the path itself, and says why
            raise ConfigError(field, exc.message) from None
        config = None
    if config is None or config.output_path != path or (expected is not None and config != expected):
        raise ConfigError(field, f"not a valid config value: {given!r}")
    return config


def _exit_code(call, *args):
    """`(call(*args), 0)`, or one stderr line and `(None, code)`: 1 for a ConfigError or an OSError, 2 for
    any other ValueError."""
    try:
        return call(*args), 0
    except ConfigError as exc:
        message, code = f"config error: {exc}", 1
    except OSError as exc:
        message, code = f"config error: output.path: {exc}", 1
    except ValueError as exc:
        # e.g. no coalescence in the EP bracket, an integrator step rejected by
        # the stability bound, or non-finite output
        message, code = f"numerical error: {exc}", 2
    print(message, file=sys.stderr)
    return None, code


def _run_configs(prepare) -> int:
    """Run the configs that `prepare()` returns, in order, and print each written path; the exit code.

    Only `prepare` and `run` get exit codes: a path that cannot be printed (a closed stdout) raises.
    """
    configs, code = _exit_code(prepare)
    for config in configs or ():
        written, code = _exit_code(run, config)
        if code:
            break
        for path in written:
            print(path)
    return code


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="cavity-magnons",
        description="Eigenvalue, response, scattering and dynamics sweeps for "
        "two magnon modes coupled to a lossy microwave cavity.",
    )
    parser.add_argument("--config", help="path to the run configuration file")
    parser.add_argument("--output", help="override the output path from the config")
    parser.add_argument("--format", choices=FORMATS, help="override the output format")

    def configs() -> list[RunConfig]:
        args = parser.parse_args(argv)
        if args.config is None:
            raise ConfigError("config", "no --config file given")
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config", str(exc)) from None
        config = parse_config(text)
        if args.output is not None:
            config = replace(config, output_path=args.output)
            _parse_carried(render_config(config), args.output, "output.path", args.output, config)
        if args.format is not None:
            config = replace(config, output_format=args.format)
        return [config]

    return _run_configs(configs)


if __name__ == "__main__":
    sys.exit(main())
