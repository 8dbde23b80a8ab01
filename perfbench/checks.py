"""Output checks that stay valid when the numerics change.

Every check tests a property the exact answer has, not a stored number, so a
faster or re-ordered implementation passes as long as it is still right.  The
tolerances are the ones the package's test suite uses for the same quantity:

- eigenvalues: characteristic-polynomial residual <= 1e-9 * max(1, ||H||)^3
  (``np.poly``/``np.polyval``; ``det`` overflows for tiny entries), and the
  root sum equals the trace within 1e-10, or 1e-4 inside a near-degenerate
  cluster (test_spectra);
- steady state: ||(H - delta) X + i F|| <= 1e-12 ||F|| (test_response);
- scattering: r = t - 1, passivity |r|^2 + |t|^2 <= 1 + 1e-10, and for
  lossless magnons |r|^2 + |t|^2 = 1 and t(0) = 1 within 1e-10;
- exceptional points: adiabatic location g1*g2/kappa within 1e-6, gap at
  most 1e-6 (test_spectra); full-model point above g1*g2/kappa and a double
  root of the characteristic polynomial;
- dynamics: distance to the steady state and to ``propagate_exact`` within
  1e-8 (test_dynamics), norms of a free decay never rising by more than
  1e-12 (test_dynamics).

Each function returns a list of problems; an empty list means the output
passed.  Matrices are built here from the parameters, independently of the
package's builders.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

EIG_RESIDUAL = 1e-9
TRACE_TOL, TRACE_TOL_CLUSTER = 1e-10, 1e-4
STEADY_RESIDUAL = 1e-12
SCATTERING_TOL = 1e-10
EP_TOL = 1e-6
DYNAMICS_TOL = 1e-8
NORM_RISE_TOL = 1e-12
RECOMPUTE_RTOL = 1e-12

# CSV columns per CLI mode (README "Output" table), before the optional SI column.
CSV_COLUMNS = {
    "eig-sweep": ["s", "re_l0", "im_l0", "re_lp", "im_lp", "re_lm", "im_lm"],
    "ep-find": ["s_ep", "re_lambda", "im_lambda", "gap"],
    "response-sweep": ["delta", "re_a", "im_a", "re_m1", "im_m1", "re_m2", "im_m2",
                       "spincurrent", "re_dark", "im_dark"],
    "reflection-sweep": ["delta", "re_r", "im_r", "abs2_r", "re_t", "im_t", "abs2_t"],
    "adiabatic-compare": ["s", "re_full_p", "im_full_p", "re_full_m", "im_full_m",
                          "re_adia_p", "im_adia_p", "re_adia_m", "im_adia_m", "abs_err"],
    "dynamics": ["t", "re_a", "im_a", "re_m1", "im_m1", "re_m2", "im_m2", "dist_to_steady"],
}


def full_matrix(p, s=None) -> np.ndarray:
    s = p.s if s is None else s
    return np.array(
        [[-1j * p.kappa, p.g1, p.g2], [p.g1, s - 1j * p.gamma1, 0.0], [p.g2, 0.0, -s - 1j * p.gamma2]],
        dtype=complex,
    )


def reduced_matrix(p, s=None) -> np.ndarray:
    s = p.s if s is None else s
    gt1 = p.gamma1 + p.g1 ** 2 / p.kappa
    gt2 = p.gamma2 + p.g2 ** 2 / p.kappa
    rate = p.g1 * p.g2 / p.kappa
    return np.array([[s - 1j * gt1, -1j * rate], [-1j * rate, -s - 1j * gt2]], dtype=complex)


def eigen_problems(h: np.ndarray, roots: np.ndarray, where: str) -> list[str]:
    """The roots of one matrix: polynomial residual and root sum."""
    roots = np.asarray(roots, dtype=complex)
    k = h.shape[0]
    if roots.shape != (k,) or not np.all(np.isfinite(roots)):
        return [f"{where}: expected {k} finite eigenvalues, got {roots!r}"]
    norm = np.linalg.norm(h)
    coeffs = np.poly(h)
    residual = np.abs(np.polyval(coeffs, roots)).max()
    problems = []
    if residual > EIG_RESIDUAL * max(1.0, norm) ** k:
        problems.append(f"{where}: characteristic residual {residual:.3e}")
    scale = max(1.0, np.abs(roots).max())
    gaps = [abs(roots[i] - roots[j]) for i in range(k) for j in range(i + 1, k)]
    tol = TRACE_TOL if min(gaps) > 1e-3 * scale else TRACE_TOL_CLUSTER
    trace = np.trace(h)
    if abs(roots.sum() - trace) > tol * max(1.0, abs(trace), scale):
        problems.append(f"{where}: root sum {roots.sum()} differs from trace {trace}")
    return problems


def branch_problems(p, branch_set, s_min, s_max, n, adiabatic, sample) -> list[str]:
    """A tracked sweep: grid, finiteness and the eigenvalue checks at sampled rows."""
    k = 2 if adiabatic else 3
    where = "adiabatic sweep" if adiabatic else "full sweep"
    branches = np.asarray(branch_set.branches)
    if branches.shape != (n, k) or not np.all(np.isfinite(branches)):
        return [f"{where}: branches shape {branches.shape} or non-finite values"]
    if not np.array_equal(branch_set.sweep_values, np.linspace(s_min, s_max, n)):
        return [f"{where}: sweep grid differs from linspace({s_min}, {s_max}, {n})"]
    build = reduced_matrix if adiabatic else full_matrix
    problems = []
    for i in sample:
        s = float(branch_set.sweep_values[i])
        problems += eigen_problems(build(p, s), branches[i], f"{where} at s={s!r}")
    return problems


def steady_problems(p, deltas, amplitude, a, m1, m2) -> list[str]:
    """Residual ||(H - delta) X + i F|| / ||F|| of steady states along a detuning grid."""
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    x = np.stack([np.atleast_1d(a), np.atleast_1d(m1), np.atleast_1d(m2)], axis=-1)
    if not np.all(np.isfinite(x)):
        return ["steady state: non-finite amplitudes"]
    force = np.array([math.sqrt(p.kappa) * amplitude, 0.0, 0.0], dtype=complex)
    h = full_matrix(p)
    residual = x @ h.T - deltas[:, None] * x + 1j * force
    worst = np.linalg.norm(residual, axis=1).max()
    if worst > STEADY_RESIDUAL * np.linalg.norm(force):
        i = int(np.argmax(np.linalg.norm(residual, axis=1)))
        return [f"steady state: residual {worst:.3e} at delta={deltas[i]!r}"]
    return []


def close(a, b, rtol=RECOMPUTE_RTOL, atol=0.0) -> bool:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return bool(np.all(np.abs(a - b) <= atol + rtol * np.maximum(np.abs(a), np.abs(b))))


def scattering_problems(r, t, lossless: bool, where: str) -> list[str]:
    problems = []
    if not (np.isfinite(r) and np.isfinite(t)):
        return [f"{where}: non-finite r or t"]
    if abs(r - (t - 1.0)) > SCATTERING_TOL:
        problems.append(f"{where}: r != t - 1")
    power = abs(r) ** 2 + abs(t) ** 2
    if lossless and abs(power - 1.0) > SCATTERING_TOL:
        problems.append(f"{where}: lossless |r|^2+|t|^2 = {power!r}")
    if not lossless and power > 1.0 + SCATTERING_TOL:
        problems.append(f"{where}: passivity violated, |r|^2+|t|^2 = {power!r}")
    return problems


def ep_problems(p, point, model: str) -> list[str]:
    """An exceptional point of the symmetric bad-cavity system."""
    where = f"{model} exceptional point"
    rate = p.g1 * p.g2 / p.kappa
    if not (math.isfinite(point.location) and point.gap_at_location <= EP_TOL * p.kappa):
        return [f"{where}: location {point.location!r}, gap {point.gap_at_location!r}"]
    if model == "adiabatic":
        if abs(point.location - rate) > EP_TOL:
            return [f"{where}: location {point.location!r} is not g1*g2/kappa = {rate!r}"]
        return []
    if point.location <= rate:
        return [f"{where}: location {point.location!r} not above g1*g2/kappa = {rate!r}"]
    # A coalescence is a double root: p(lambda) and p'(lambda) vanish together.
    h = full_matrix(p, point.location)
    coeffs = np.poly(h)
    value = complex(point.degenerate_value)
    scale = max(1.0, np.linalg.norm(h))
    if abs(np.polyval(coeffs, value)) > EIG_RESIDUAL * scale ** 3:
        return [f"{where}: degenerate value is not a root"]
    if abs(np.polyval(np.polyder(coeffs), value)) > EP_TOL * scale ** 2:
        return [f"{where}: degenerate value is not a double root"]
    return []


def transient_sample(times, kappa: float, t_end: float, rng, k: int) -> np.ndarray:
    """Indices of k sampled times in [30/kappa, t_end/4] (or [30/kappa, t_end]).

    At the CLI step dt = 0.1/kappa, RK4 misses the cavity's own transient by
    about (kappa dt)^4/120 ~ 1e-7 relative, above the 1e-8 tolerance the tests
    use at dt = 1e-3; that error decays as exp(-kappa t).  From 30/kappa on
    the comparison with propagate_exact holds to ~1e-12 while the magnons,
    which decay at the slower dressed rate, are still in their transient.
    """
    lo = 30.0 / kappa
    hi = t_end / 4.0 if t_end / 4.0 > lo else t_end
    candidates = np.flatnonzero((times >= lo) & (times <= hi))
    if candidates.size == 0:
        candidates = np.arange(times.size)
    return rng.choice(candidates, size=min(k, candidates.size), replace=False)


def trajectory_problems(traj, t_end, target, exact_at, sample_index) -> list[str]:
    """Driven trajectory: grid, finiteness, final steady state, exact propagator at one time."""
    states = np.asarray(traj.states)
    if states.ndim != 2 or not np.all(np.isfinite(states)):
        return ["trajectory: non-finite states"]
    if states.shape[0] != traj.times.size or not math.isclose(traj.times[-1], t_end, rel_tol=1e-12):
        return ["trajectory: time grid does not end at t_end"]
    problems = []
    scale = max(1.0, float(np.linalg.norm(target)))
    if np.linalg.norm(states[-1] - target) > DYNAMICS_TOL * scale:
        problems.append(f"trajectory: final state is {np.linalg.norm(states[-1] - target):.3e} from steady state")
    exact = exact_at(float(traj.times[sample_index]))
    if np.linalg.norm(states[sample_index] - exact) > DYNAMICS_TOL * max(1.0, float(np.linalg.norm(exact))):
        problems.append(f"trajectory: state at t={traj.times[sample_index]!r} differs from propagate_exact")
    return problems


def decay_problems(traj) -> list[str]:
    states = np.asarray(traj.states)
    if not np.all(np.isfinite(states)):
        return ["free decay: non-finite states"]
    norms = np.linalg.norm(states, axis=1)
    if np.any(np.diff(norms) > NORM_RISE_TOL):
        return ["free decay: norm rises"]
    return []


# -- CLI outputs ----------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], np.ndarray, list[str]]:
    """(header, rows, problems) of one CLI CSV file."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != "# schema=1":
        return [], np.zeros((0, 0)), [f"{path.name}: first line {lines[0]!r} is not '# schema=1'"]
    if lines[-1] != "":
        return [], np.zeros((0, 0)), [f"{path.name}: does not end with a newline"]
    header = lines[1].split(",")
    body = lines[2:-1]
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in body], dtype=float)
    except ValueError:
        return header, np.zeros((0, 0)), [f"{path.name}: unparsable value"]
    if rows.ndim != 2 or rows.shape[1] != len(header):
        return header, rows, [f"{path.name}: rows do not have {len(header)} columns"]
    if not np.all(np.isfinite(rows)):
        return header, rows, [f"{path.name}: non-finite values"]
    return header, rows, []


def cli_output_problems(cm, csv_path: Path, rng, expected_config=None) -> list[str]:
    """One CLI output pair (CSV + JSON sidecar).

    Checks the schema line, the README columns, finiteness, that the sidecar's
    ``config_text`` re-parses to the same run (and to ``expected_config`` when
    the benchmark wrote the config), and that a seeded sample of rows matches a
    recomputation through the library from that re-parsed config.
    """
    from cavitymagnons.cli import parse_config, render_config

    json_path = csv_path.with_suffix(".json")
    if not (csv_path.is_file() and json_path.is_file()):
        return [f"{csv_path.name}: CSV or JSON output missing"]
    header, rows, problems = read_csv(csv_path)
    if problems:
        return problems
    sidecar = json.loads(json_path.read_text(encoding="utf-8"))
    mode = sidecar.get("mode")
    if sidecar.get("schema") != 1 or mode not in CSV_COLUMNS:
        return [f"{json_path.name}: schema {sidecar.get('schema')!r}, mode {mode!r}"]
    if header != CSV_COLUMNS[mode]:
        return [f"{csv_path.name}: header {header} is not {CSV_COLUMNS[mode]}"]
    config = parse_config(sidecar["config_text"])
    if render_config(config) != sidecar["config_text"] or config.mode != mode:
        return [f"{json_path.name}: config_text does not re-parse to the same run"]
    if expected_config is not None and config != expected_config:
        return [f"{json_path.name}: config_text differs from the config that was run"]
    if mode in ("eig-sweep", "response-sweep", "reflection-sweep", "adiabatic-compare"):
        if rows.shape[0] != config.sweep_points:
            return [f"{csv_path.name}: {rows.shape[0]} rows for {config.sweep_points} sweep points"]
        grid = np.linspace(config.sweep_min, config.sweep_max, config.sweep_points)
        if not np.array_equal(rows[:, 0], grid):
            return [f"{csv_path.name}: sweep column differs from the configured grid"]
    if mode == "dynamics":
        sample = transient_sample(rows[:, 0], config.system.kappa, config.t_end, rng, 3)
    else:
        sample = rng.choice(rows.shape[0], size=min(3, rows.shape[0]), replace=False)
    return _recompute_problems(cm, config, rows, sample, csv_path.name)


def _recompute_problems(cm, config, rows, sample, name) -> list[str]:
    p = config.system
    for i in sample:
        row = rows[i]
        if config.mode in ("eig-sweep", "adiabatic-compare"):
            point = replace(p, s=float(row[0]))
            full = cm.eigenvalues_3x3(cm.build_full_hamiltonian(point))
            if config.mode == "eig-sweep":
                listed = np.array([row[1] + 1j * row[2], row[3] + 1j * row[4], row[5] + 1j * row[6]])
                expected = full
            else:
                listed = np.array([row[1] + 1j * row[2], row[3] + 1j * row[4],
                                   row[5] + 1j * row[6], row[7] + 1j * row[8]])
                reduced = np.linalg.eigvals(cm.build_adiabatic_model(point).matrix)
                expected = np.concatenate([full, reduced])
            # Every listed value must be one of the recomputed eigenvalues.
            if not all(np.abs(expected - v).min() <= 1e-9 * max(1.0, abs(v)) for v in listed):
                return [f"{name}: row at s={row[0]!r} does not match a recomputation"]
        elif config.mode == "response-sweep":
            x = cm.steady_state(p, cm.DriveParams(delta=float(row[0]), amplitude=config.drive.amplitude))
            got = [row[1] + 1j * row[2], row[3] + 1j * row[4], row[5] + 1j * row[6], row[7]]
            if not close(got, [x.a, x.m1, x.m2, x.total_spincurrent]):
                return [f"{name}: row at delta={row[0]!r} does not match a recomputation"]
        elif config.mode == "reflection-sweep":
            r, t = cm.reflection_transmission(p, cm.DriveParams(delta=float(row[0])))
            if not close([row[1] + 1j * row[2], row[4] + 1j * row[5]], [r, t], atol=1e-15):
                return [f"{name}: row at delta={row[0]!r} does not match a recomputation"]
        elif config.mode == "ep-find":
            point = cm.ExceptionalPoint(row[0], complex(row[1], row[2]), row[3])
            problems = ep_problems(p, point, config.ep_model)
            if problems:
                return [f"{name}: {problems[0]}"]
        elif config.mode == "dynamics":
            exact = cm.propagate_exact(p, config.drive, np.zeros(3, dtype=complex), float(row[0]))
            got = np.array([row[1] + 1j * row[2], row[3] + 1j * row[4], row[5] + 1j * row[6]])
            if np.linalg.norm(got - exact) > DYNAMICS_TOL * max(1.0, float(np.linalg.norm(exact))):
                return [f"{name}: state at t={row[0]!r} differs from propagate_exact"]
    if config.mode == "dynamics" and rows[-1, -1] > DYNAMICS_TOL * max(1.0, float(np.linalg.norm(rows[-1, 1:7]))):
        return [f"{name}: final distance to the steady state {rows[-1, -1]!r}"]
    return []
