"""Command-line front end: config-driven sweeps with CSV/JSON output.

A run is described by an INI-style config file (sections [run], [system],
[sweep], [drive], [dynamics], [ep], [si], [output]; grammar documented in the
README).  Results are written as a CSV table, one row per sweep point, with a
versioned header comment, and optionally a JSON sidecar carrying a canonical
echo of the parsed config plus detected features (peaks, gap minima,
exceptional-point locations).

Exit codes: 0 success; 1 config error (diagnostic names the first invalid
field); 2 numerical failure (diagnostic names the sweep point, or the column
or feature holding a NaN or infinity; nothing is written).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, response, spectra
from .model import (
    DriveParams,
    SystemParams,
    build_adiabatic_model,
    drive_amplitude_from_power,
    drive_frame_matrices,
)

MODES = ("eig-sweep", "response-sweep", "reflection-sweep", "ep-find", "adiabatic-compare", "dynamics")
SWEEP_MODES = {
    "eig-sweep": "s",
    "ep-find": "s",
    "adiabatic-compare": "s",
    "response-sweep": "delta",
    "reflection-sweep": "delta",
}
DRIVE_REQUIRED = ("response-sweep", "dynamics")
FORMATS = ("csv", "json", "both")
CSV_SCHEMA = 1
# Bounds every sweep: a 10^6-point eig-sweep takes about 18 s and 390 MB RSS on 2 vCPUs.
MAX_SWEEP_POINTS = 10**6

_KNOWN_KEYS = {
    "run": {"mode"},
    "system": {"kappa", "gamma1", "gamma2", "g1", "g2", "s"},
    "sweep": {"variable", "min", "max", "points"},
    "drive": {"amplitude", "power", "frequency"},
    "dynamics": {"t_end", "dt", "delta"},
    "ep": {"model"},
    "si": {"kappa_hz"},
    "output": {"path", "format"},
}


class ConfigError(ValueError):
    """Invalid run configuration; `field` names the first offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description."""

    mode: str
    system: SystemParams
    sweep_variable: str | None = None
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


def _parse_float(section: str, key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{section}.{key}", f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}", f"must be finite, got {text!r}")
    return value


def _parse_int(section: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{section}.{key}", f"not an integer: {text!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; defaults target the bad-cavity regime.

    System defaults are kappa=1, gamma_i=0.01, g_i=0.2, s=0.  Modes that probe
    the driven response (response-sweep, dynamics) require a [drive] block
    with either `amplitude` or `power` + `frequency` (the SI conversion);
    giving both routes, or power without frequency, is rejected rather than
    silently resolved.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        if lineno is None and getattr(exc, "errors", None):
            lineno = exc.errors[0][0]
        summary = str(exc).splitlines()[0]
        where = f" at line {lineno}" if lineno is not None else ""
        raise ConfigError("config", f"parse error{where}: {summary}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(section, "unknown section")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
        for key, raw in parser[section].items():
            if raw.strip() == "":
                raise ConfigError(f"{section}.{key}", "empty value")

    def get(section: str, key: str) -> str | None:
        if parser.has_section(section) and key in parser[section]:
            return parser[section][key].strip()
        return None

    mode = get("run", "mode")
    if mode is None:
        raise ConfigError("run.mode", "missing (expected one of %s)" % ", ".join(MODES))
    if mode not in MODES:
        raise ConfigError("run.mode", f"unknown mode {mode!r} (expected one of {', '.join(MODES)})")

    system_kwargs = {}
    for key in ("kappa", "gamma1", "gamma2", "g1", "g2", "s"):
        raw = get("system", key)
        if raw is not None:
            system_kwargs[key] = _parse_float("system", key, raw)
    try:
        system = SystemParams(**system_kwargs)
    except ValueError as exc:
        offending = str(exc).split()[0]
        raise ConfigError(f"system.{offending}", str(exc)) from None

    sweep_variable = sweep_min = sweep_max = sweep_points = None
    expected_var = SWEEP_MODES.get(mode)
    if expected_var is not None:
        if not parser.has_section("sweep"):
            raise ConfigError("sweep", f"missing section (required for mode {mode})")
        sweep_variable = get("sweep", "variable") or expected_var
        if sweep_variable != expected_var:
            raise ConfigError(
                "sweep.variable",
                f"must be {expected_var!r} for mode {mode}, got {sweep_variable!r}",
            )
        raw_min, raw_max, raw_points = get("sweep", "min"), get("sweep", "max"), get("sweep", "points")
        if raw_min is None:
            raise ConfigError("sweep.min", "missing")
        if raw_max is None:
            raise ConfigError("sweep.max", "missing")
        if raw_points is None:
            raise ConfigError("sweep.points", "missing")
        sweep_min = _parse_float("sweep", "min", raw_min)
        sweep_max = _parse_float("sweep", "max", raw_max)
        sweep_points = _parse_int("sweep", "points", raw_points)
        if sweep_points < 2:
            raise ConfigError("sweep.points", f"need at least 2 points, got {sweep_points}")
        if sweep_points > MAX_SWEEP_POINTS:
            raise ConfigError("sweep.points", f"at most {MAX_SWEEP_POINTS} points, got {sweep_points}")
        if sweep_max <= sweep_min:
            raise ConfigError("sweep.max", f"must exceed sweep.min ({sweep_min})")
    elif parser.has_section("sweep"):
        raise ConfigError("sweep", f"not used by mode {mode}")

    drive = None
    drive_power = drive_frequency = None
    amplitude_raw = get("drive", "amplitude")
    power_raw = get("drive", "power")
    frequency_raw = get("drive", "frequency")
    has_drive_section = parser.has_section("drive")
    if has_drive_section and amplitude_raw is None and power_raw is None:
        raise ConfigError("drive", "drive block given without amplitude or power")
    if amplitude_raw is not None and power_raw is not None:
        raise ConfigError("drive", "both amplitude and power given; choose one")
    if power_raw is not None and frequency_raw is None:
        raise ConfigError("drive.frequency", "required alongside drive.power")
    if frequency_raw is not None and power_raw is None:
        raise ConfigError("drive.power", "required alongside drive.frequency")
    if amplitude_raw is not None:
        amplitude = _parse_float("drive", "amplitude", amplitude_raw)
        if amplitude < 0:
            raise ConfigError("drive.amplitude", "must be non-negative")
        drive = DriveParams(delta=0.0, amplitude=amplitude)
    elif power_raw is not None:
        drive_power = _parse_float("drive", "power", power_raw)
        drive_frequency = _parse_float("drive", "frequency", frequency_raw)
        try:
            amplitude = drive_amplitude_from_power(drive_power, drive_frequency)
        except ValueError as exc:
            field = "drive.frequency" if str(exc).startswith("drive_frequency") else "drive.power"
            raise ConfigError(field, str(exc)) from None
        drive = DriveParams(delta=0.0, amplitude=amplitude)
    if mode in DRIVE_REQUIRED and drive is None:
        raise ConfigError("drive", f"required for mode {mode}")

    t_end = dt = None
    if mode == "dynamics":
        t_end_raw = get("dynamics", "t_end")
        t_end = _parse_float("dynamics", "t_end", t_end_raw) if t_end_raw is not None else None
        dt_raw = get("dynamics", "dt")
        dt = _parse_float("dynamics", "dt", dt_raw) if dt_raw is not None else None
        delta_raw = get("dynamics", "delta")
        if delta_raw is not None and drive is not None:
            drive = DriveParams(delta=_parse_float("dynamics", "delta", delta_raw),
                                amplitude=drive.amplitude)
        if t_end is None:
            reduced = build_adiabatic_model(system)
            gt_min = min(reduced.gamma_tilde1, reduced.gamma_tilde2)
            if math.isinf(gt_min):
                raise ConfigError("dynamics.t_end", "no default: gamma + g**2/kappa overflows; set t_end")
            t_end = 50.0 / gt_min if gt_min > 0 else 50.0 / system.kappa
        if dt is None:
            dt = 0.1 / max(system.kappa, abs(system.s), system.g1, system.g2, 1.0)
        if t_end <= 0:
            raise ConfigError("dynamics.t_end", "must be positive")
        if dt <= 0:
            raise ConfigError("dynamics.dt", "must be positive")
        try:
            dynamics.step_count(t_end, dt)
        except ValueError as exc:
            raise ConfigError("dynamics.t_end", f"{exc} (t_end = {t_end:.6g}, dynamics.dt = {dt:.6g})") from None
    elif parser.has_section("dynamics"):
        raise ConfigError("dynamics", f"not used by mode {mode}")

    ep_model = get("ep", "model") or "adiabatic"
    if mode == "ep-find":
        if ep_model not in ("adiabatic", "full"):
            raise ConfigError("ep.model", f"must be 'adiabatic' or 'full', got {ep_model!r}")
    elif parser.has_section("ep"):
        raise ConfigError("ep", "only used by mode ep-find")

    kappa_hz = None
    kappa_hz_raw = get("si", "kappa_hz")
    if kappa_hz_raw is not None:
        kappa_hz = _parse_float("si", "kappa_hz", kappa_hz_raw)
        if kappa_hz <= 0:
            raise ConfigError("si.kappa_hz", "must be positive")

    output_path = get("output", "path") or f"{mode}.csv"
    output_format = get("output", "format") or "both"
    if output_format not in FORMATS:
        raise ConfigError("output.format", f"must be one of {', '.join(FORMATS)}, got {output_format!r}")

    return RunConfig(
        mode=mode,
        system=system,
        sweep_variable=sweep_variable,
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
    lines = ["[run]", f"mode = {config.mode}", "", "[system]"]
    p = config.system
    for key in ("kappa", "gamma1", "gamma2", "g1", "g2", "s"):
        lines.append(f"{key} = {_fmt(getattr(p, key))}")
    if config.sweep_variable is not None:
        lines += [
            "",
            "[sweep]",
            f"variable = {config.sweep_variable}",
            f"min = {_fmt(config.sweep_min)}",
            f"max = {_fmt(config.sweep_max)}",
            f"points = {config.sweep_points}",
        ]
    if config.drive is not None:
        lines += ["", "[drive]"]
        if config.drive_power is not None:
            lines.append(f"power = {_fmt(config.drive_power)}")
            lines.append(f"frequency = {_fmt(config.drive_frequency)}")
        else:
            lines.append(f"amplitude = {_fmt(config.drive.amplitude)}")
    if config.mode == "dynamics":
        lines += ["", "[dynamics]", f"t_end = {_fmt(config.t_end)}", f"dt = {_fmt(config.dt)}"]
        if config.drive is not None and config.drive.delta != 0.0:
            lines.append(f"delta = {_fmt(config.drive.delta)}")
    if config.mode == "ep-find":
        lines += ["", "[ep]", f"model = {config.ep_model}"]
    if config.kappa_hz is not None:
        lines += ["", "[si]", f"kappa_hz = {_fmt(config.kappa_hz)}"]
    lines += ["", "[output]", f"path = {config.output_path}", f"format = {config.output_format}"]
    return "\n".join(lines) + "\n"


def _si_column(config: RunConfig, header: str, values) -> tuple[list[str], list]:
    """Optional extra column converting the sweep axis to SI units."""
    if config.kappa_hz is None:
        return [], []
    return [header], [np.asarray(values) * config.kappa_hz]


def _run_eig_sweep(config: RunConfig) -> tuple[list[str], list, dict]:
    branch_set = spectra.sweep_eigenvalues(
        config.system, config.sweep_min, config.sweep_max, config.sweep_points
    )
    plus, minus = branch_set.magnon_branch_indices()
    cavity = branch_set.cavity_branch_index()
    s = branch_set.sweep_values
    l0 = branch_set.branches[:, cavity]
    lp = branch_set.branches[:, plus]
    lm = branch_set.branches[:, minus]
    gaps = np.abs(lp.real - lm.real)
    i_min = int(np.argmin(gaps))
    headers = ["s", "re_l0", "im_l0", "re_lp", "im_lp", "re_lm", "im_lm"]
    columns = [s, l0.real, l0.imag, lp.real, lp.imag, lm.real, lm.imag]
    extra_h, extra_c = _si_column(config, "s_hz", s)
    features = {
        "min_gap": float(gaps[i_min]),
        "min_gap_s": float(s[i_min]),
        "ambiguous_spans": [list(span) for span in branch_set.ambiguous_spans],
    }
    return headers + extra_h, columns + extra_c, features


def _run_ep_find(config: RunConfig) -> tuple[list[str], list, dict]:
    point = spectra.find_exceptional_point(
        config.system, config.sweep_min, config.sweep_max, model=config.ep_model
    )
    headers = ["s_ep", "re_lambda", "im_lambda", "gap"]
    columns = [
        np.array([point.location]),
        np.array([point.degenerate_value.real]),
        np.array([point.degenerate_value.imag]),
        np.array([point.gap_at_location]),
    ]
    extra_h, extra_c = _si_column(config, "s_ep_hz", columns[0])
    features = {
        "model": config.ep_model,
        "s_ep": point.location,
        "degenerate_value": [point.degenerate_value.real, point.degenerate_value.imag],
        "gap": point.gap_at_location,
    }
    return headers + extra_h, columns + extra_c, features


def _run_response_sweep(config: RunConfig) -> tuple[list[str], list, dict]:
    deltas = np.linspace(config.sweep_min, config.sweep_max, config.sweep_points)
    sweep = response.spincurrent_spectrum(config.system, deltas, config.drive.amplitude)
    a, m1, m2 = sweep.states.T
    dark = sweep.dark_amplitude
    headers = [
        "delta", "re_a", "im_a", "re_m1", "im_m1", "re_m2", "im_m2",
        "spincurrent", "re_dark", "im_dark",
    ]
    columns = [
        deltas, a.real, a.imag, m1.real, m1.imag, m2.real, m2.imag,
        sweep.total_spincurrent, dark.real, dark.imag,
    ]
    extra_h, extra_c = _si_column(config, "delta_hz", deltas)
    features = {"peaks": [{"delta": d, "height": h} for d, h in sweep.peaks]}
    return headers + extra_h, columns + extra_c, features


def _run_reflection_sweep(config: RunConfig) -> tuple[list[str], list, dict]:
    deltas = np.linspace(config.sweep_min, config.sweep_max, config.sweep_points)
    # r and t do not depend on the drive amplitude.
    sweep = response.spincurrent_spectrum(config.system, deltas)
    r, t = sweep.r, sweep.t
    abs2_r = np.abs(r) ** 2
    abs2_t = np.abs(t) ** 2
    i_dip = int(np.argmin(abs2_r))
    i_zero = int(np.argmin(np.abs(deltas)))
    headers = ["delta", "re_r", "im_r", "abs2_r", "re_t", "im_t", "abs2_t"]
    columns = [deltas, r.real, r.imag, abs2_r, t.real, t.imag, abs2_t]
    extra_h, extra_c = _si_column(config, "delta_hz", deltas)
    features = {
        "reflection_dip": {"delta": float(deltas[i_dip]), "abs2_r": float(abs2_r[i_dip])},
        "nearest_zero_detuning": {
            "delta": float(deltas[i_zero]),
            "abs2_r": float(abs2_r[i_zero]),
            "abs2_t": float(abs2_t[i_zero]),
        },
    }
    return headers + extra_h, columns + extra_c, features


def _run_adiabatic_compare(config: RunConfig) -> tuple[list[str], list, dict]:
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
    headers = [
        "s", "re_full_p", "im_full_p", "re_full_m", "im_full_m",
        "re_adia_p", "im_adia_p", "re_adia_m", "im_adia_m", "abs_err",
    ]
    columns = [
        full.sweep_values, fp.real, fp.imag, fm.real, fm.imag,
        ap.real, ap.imag, am.real, am.imag, err,
    ]
    extra_h, extra_c = _si_column(config, "s_hz", full.sweep_values)
    features = {
        "max_eigenvalue_error": float(err.max()),
        "max_eigenvalue_error_s": float(full.sweep_values[int(np.argmax(err))]),
        "induced_rate": build_adiabatic_model(config.system).induced_rate,
    }
    return headers + extra_h, columns + extra_c, features


def _run_dynamics(config: RunConfig) -> tuple[list[str], list, dict]:
    drive = config.drive
    # Keep about 2000 rows so long runs stay reviewable; only those are computed.
    stride = max(1, (dynamics.step_count(config.t_end, config.dt) + 1) // 2000)
    trajectory = dynamics.integrate_full(
        config.system, drive, np.zeros(3, dtype=complex), config.t_end, config.dt, stride
    )
    steady = response.steady_state(config.system, drive)
    target = np.array([steady.a, steady.m1, steady.m2])
    times = trajectory.times
    states = trajectory.states
    distance = np.linalg.norm(states - target, axis=1)
    headers = ["t", "re_a", "im_a", "re_m1", "im_m1", "re_m2", "im_m2", "dist_to_steady"]
    columns = [
        times,
        states[:, 0].real, states[:, 0].imag,
        states[:, 1].real, states[:, 1].imag,
        states[:, 2].real, states[:, 2].imag,
        distance,
    ]
    if config.kappa_hz is not None:
        headers.append("t_seconds")
        columns.append(times / config.kappa_hz)
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
    return headers, columns, features


_RUNNERS = {
    "eig-sweep": _run_eig_sweep,
    "ep-find": _run_ep_find,
    "response-sweep": _run_response_sweep,
    "reflection-sweep": _run_reflection_sweep,
    "adiabatic-compare": _run_adiabatic_compare,
    "dynamics": _run_dynamics,
}


def render_csv(headers: list[str], columns: list) -> str:
    """CSV with a schema comment, header row, LF endings, 17 significant digits."""
    cells = [[format(value, ".17g") for value in np.asarray(c, dtype=float).tolist()] for c in columns]
    rows = "".join(",".join(row) + "\n" for row in zip(*cells))
    return f"# schema={CSV_SCHEMA}\n" + ",".join(headers) + "\n" + rows


def _output_paths(path: str) -> tuple[str, str]:
    base = path
    for suffix in (".csv", ".json"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    return base + ".csv", base + ".json"


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
        headers, columns, features = _RUNNERS[config.mode](config)
    for header, column in zip(headers, columns):
        if not np.all(np.isfinite(column)):
            raise ValueError(f"non-finite values in column {header}; nothing written")
    bad_feature = _nonfinite_feature(features, "features")
    if bad_feature is not None:
        raise ValueError(f"non-finite value in {bad_feature}; nothing written")
    csv_path, json_path = _output_paths(config.output_path)
    written = []
    if config.output_format in ("csv", "both"):
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(render_csv(headers, columns))
        written.append(csv_path)
    if config.output_format in ("json", "both"):
        sidecar = {
            "schema": CSV_SCHEMA,
            "mode": config.mode,
            "config_text": render_config(config),
            "features": features,
        }
        with open(json_path, "w", encoding="utf-8", newline="") as handle:
            json.dump(sidecar, handle, indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")
        written.append(json_path)
    return written


def _first_singular_point(config: RunConfig) -> str:
    """Best-effort description of the drive detuning that made the solve singular.

    The solve raises on an exact zero pivot of the LU factorization, which is
    where the determinant's sign (from the same factorization) is 0.  A
    dynamics run solves for its steady state at the one [dynamics] delta.
    """
    if config.mode == "dynamics":
        name, deltas = "dynamics.delta", np.array([config.drive.delta])
    elif config.mode in ("response-sweep", "reflection-sweep") and config.sweep_points:
        name, deltas = "delta", np.linspace(config.sweep_min, config.sweep_max, config.sweep_points)
    else:
        return "unknown sweep point"
    sign, _ = np.linalg.slogdet(drive_frame_matrices(config.system, deltas))
    singular = np.flatnonzero(sign == 0)
    if singular.size:
        return f"{name}={_fmt(deltas[singular[0]])}"
    return "unknown sweep point"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cavity-magnons",
        description="Eigenvalue, response, scattering and dynamics sweeps for "
        "two magnon modes coupled to a lossy microwave cavity.",
    )
    parser.add_argument("--config", help="path to the run configuration file")
    parser.add_argument("--output", help="override the output path from the config")
    parser.add_argument("--format", choices=FORMATS, help="override the output format")
    args = parser.parse_args(argv)

    if args.config is None:
        print("config error: config: no --config file given", file=sys.stderr)
        return 1
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"config error: config: {exc}", file=sys.stderr)
        return 1

    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.output is not None:
        config = replace(config, output_path=args.output)
    if args.format is not None:
        config = replace(config, output_format=args.format)

    try:
        written = run(config)
    except np.linalg.LinAlgError:
        print(
            f"numerical error: singular steady-state system at {_first_singular_point(config)}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        # e.g. no coalescence in the EP bracket, an integrator step rejected by
        # the stability bound, or non-finite output
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2

    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
