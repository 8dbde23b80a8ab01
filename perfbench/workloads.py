"""The four benchmark workloads: seeded inputs, one task at a time, checks.

A workload hands out tasks in *rounds*.  Each round holds every kind of task
the workload mixes, in seeded order with seeded parameters, so any number of
whole rounds has the same mix and runs with different seeds measure the same
load.  Inputs are generated before a task is timed; the package receives only
those inputs.

Warm workloads (``sweep-scan``, ``point-queries``, ``long-dynamics``) call the
public API in this process.  ``cli-figures`` starts one cold process per task
(``python scripts/*.py`` or ``python -m cavitymagnons --config``), with the
repository's ``src`` on ``PYTHONPATH`` because the package is not installed.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import cavitymagnons as cm
from cavitymagnons.cli import parse_config

import checks

ROOT = Path(__file__).resolve().parent.parent
REGIMES = ("strong", "bad-cavity", "asymmetric")


@dataclass
class Task:
    kind: str
    seed: tuple
    inputs: dict = field(default_factory=dict)


def task_rng(task: Task) -> np.random.Generator:
    """Generator for the checker's own sampling, independent of the inputs."""
    return np.random.default_rng([*task.seed, 7])


def draw_params(rng, regime: str):
    """System parameters of one regime; rates scale with a seeded kappa."""
    kappa = rng.uniform(0.5, 2.0)
    if regime == "strong":  # comparable linewidths, g >> kappa: level repulsion
        g, gamma = kappa * rng.uniform(1.5, 2.5), kappa * rng.uniform(0.8, 1.2)
        return cm.SystemParams(kappa=kappa, gamma1=gamma, gamma2=gamma, g1=g, g2=g, s=rng.uniform(-g, g))
    if regime == "bad-cavity":  # kappa >> g, gamma, s near the exceptional point
        g, gamma = kappa * rng.uniform(0.15, 0.25), kappa * rng.uniform(0.005, 0.02)
        rate = g * g / kappa
        return cm.SystemParams(kappa=kappa, gamma1=gamma, gamma2=gamma, g1=g, g2=g,
                               s=rate * rng.uniform(0.8, 1.2))
    g1, gamma1 = kappa * rng.uniform(0.5, 1.5), kappa * rng.uniform(0.05, 0.2)
    return cm.SystemParams(kappa=kappa, gamma1=gamma1, gamma2=gamma1 * rng.uniform(1.5, 3.0),
                           g1=g1, g2=g1 * rng.uniform(0.5, 0.8), s=kappa * rng.uniform(-1.0, 1.0))


def sweep_halfwidth(p, regime: str) -> float:
    """Half-width of s and delta sweeps that covers the regime's features."""
    if regime == "bad-cavity":
        return 8.0 * p.g1 * p.g2 / p.kappa
    return 3.0 * max(p.g1, p.g2, abs(p.s))


def sha256_of(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


class SweepScan:
    """Full and adiabatic eigenvalue sweeps plus a refined spincurrent spectrum."""

    name = "sweep-scan"
    # Per regime and round: 20% 51-point, 60% 481-point and 20% 4001-point
    # tasks.  The median then sits mid-way through the 481-point tasks and the
    # p90 tail mid-way through the 4001-point ones, where host noise moves a
    # quantile least.
    SIZES = (51, 481, 481, 481, 4001)

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Task]:
        tasks = []
        for regime in REGIMES:
            for size in self.SIZES:
                seed = (self.seed, r, len(tasks))
                rng = np.random.default_rng(seed)
                p = draw_params(rng, regime)
                half = sweep_halfwidth(p, regime)
                tasks.append(Task("sweep", seed, {
                    "regime": regime, "params": p, "n": size, "s_min": -half, "s_max": half,
                    "deltas": np.linspace(-half, half, size), "amplitude": rng.uniform(0.5, 2.0),
                }))
        order = np.random.default_rng((self.seed, r, 99)).permutation(len(tasks))
        return [tasks[i] for i in order]

    @staticmethod
    def execute(task: Task):
        x = task.inputs
        p, n = x["params"], x["n"]
        return (
            cm.sweep_eigenvalues(p, x["s_min"], x["s_max"], n),
            cm.sweep_eigenvalues(p, x["s_min"], x["s_max"], n, adiabatic=True),
            cm.spincurrent_spectrum(p, x["deltas"], x["amplitude"], refine_peaks=True),
        )

    @staticmethod
    def check(task: Task, out) -> list[str]:
        x = task.inputs
        p, n = x["params"], x["n"]
        full, reduced, spectrum = out
        sample = task_rng(task).choice(n, size=min(16, n), replace=False)
        problems = checks.branch_problems(p, full, x["s_min"], x["s_max"], n, False, sample)
        problems += checks.branch_problems(p, reduced, x["s_min"], x["s_max"], n, True, sample)
        points = spectrum.points
        if len(points) != n or not np.array_equal(spectrum.deltas, x["deltas"]):
            return problems + ["spectrum: grid differs from the requested detunings"]
        a = np.array([q.a for q in points])
        m1 = np.array([q.m1 for q in points])
        m2 = np.array([q.m2 for q in points])
        problems += checks.steady_problems(p, x["deltas"], x["amplitude"], a, m1, m2)
        if not checks.close(spectrum.total_spincurrent, np.abs(m1) ** 2 + np.abs(m2) ** 2, rtol=1e-12):
            problems.append("spectrum: spincurrent is not |m1|^2 + |m2|^2")
        if not checks.close(spectrum.dark_amplitude, (m1 - m2) / math.sqrt(2.0), rtol=1e-12, atol=1e-300):
            problems.append("spectrum: dark amplitude is not (m1 - m2)/sqrt(2)")
        for delta, height in spectrum.peaks:
            if not (x["deltas"][0] <= delta <= x["deltas"][-1] and math.isfinite(height) and height > 0):
                problems.append(f"spectrum: peak ({delta!r}, {height!r}) outside the grid")
        return problems

    @staticmethod
    def work(task: Task, out) -> tuple[int, int]:
        return 3 * task.inputs["n"], 0

    @staticmethod
    def digest(out) -> bytes:
        full, reduced, spectrum = out
        return sha256_of(full.branches, reduced.branches, spectrum.total_spincurrent)

    @staticmethod
    def corrupt(out):
        full, reduced, spectrum = out
        branches = np.array(full.branches)
        branches[:, 0] *= 1.0 + 1e-3
        return replace(full, branches=branches), reduced, spectrum


class PointQueries:
    """Scalar API at single parameter points, plus EP searches at bad-cavity points."""

    name = "point-queries"
    PER_REGIME = 4

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Task]:
        tasks = []
        for regime in REGIMES:
            for _ in range(self.PER_REGIME):
                seed = (self.seed, r, len(tasks))
                rng = np.random.default_rng(seed)
                p = draw_params(rng, regime)
                delta = rng.uniform(-1.0, 1.0) * sweep_halfwidth(p, regime)
                s = p.s if abs(p.s) >= 0.05 * p.kappa else math.copysign(0.05 * p.kappa, p.s)
                lossless = replace(p, gamma1=0.0, gamma2=0.0, g2=p.g1, s=s)
                rate = p.g1 * p.g2 / p.kappa
                tasks.append(Task("point", seed, {
                    "regime": regime, "params": p, "lossless": lossless,
                    "drive": cm.DriveParams(delta=delta, amplitude=rng.uniform(0.5, 2.0)),
                    "scatter": cm.DriveParams(delta=delta), "zero": cm.DriveParams(delta=0.0),
                    "bracket": (0.5 * rate, 1.5 * rate) if regime == "bad-cavity" else None,
                }))
        order = np.random.default_rng((self.seed, r, 99)).permutation(len(tasks))
        return [tasks[i] for i in order]

    @staticmethod
    def execute(task: Task):
        x = task.inputs
        p = x["params"]
        out = {
            "eig": cm.eigenvalues_3x3(cm.build_full_hamiltonian(p)),
            "steady": cm.steady_state(p, x["drive"]),
            "rt": cm.reflection_transmission(p, x["scatter"]),
            "rt_lossless": cm.reflection_transmission(x["lossless"], x["scatter"]),
            "rt_zero": cm.reflection_transmission(x["lossless"], x["zero"]),
        }
        if x["bracket"] is not None:
            lo, hi = x["bracket"]
            out["ep_adiabatic"] = cm.find_exceptional_point(p, lo, hi, model="adiabatic")
            out["ep_full"] = cm.find_exceptional_point(p, lo, hi, model="full")
        return out

    @staticmethod
    def check(task: Task, out) -> list[str]:
        x = task.inputs
        p, drive = x["params"], x["drive"]
        problems = checks.eigen_problems(checks.full_matrix(p), out["eig"], "eigenvalues_3x3")
        ss = out["steady"]
        problems += checks.steady_problems(p, drive.delta, drive.amplitude, ss.a, ss.m1, ss.m2)
        r, t = out["rt"]
        problems += checks.scattering_problems(r, t, False, "reflection_transmission")
        # Transmission is sqrt(kappa) a / E of the same steady state.
        if not checks.close(t, math.sqrt(p.kappa) * ss.a / drive.amplitude, rtol=1e-12):
            problems.append("reflection_transmission: t disagrees with the steady-state cavity amplitude")
        problems += checks.scattering_problems(*out["rt_lossless"], True, "lossless scattering")
        r0, t0 = out["rt_zero"]
        problems += checks.scattering_problems(r0, t0, True, "lossless scattering at delta=0")
        if abs(t0 - 1.0) > checks.SCATTERING_TOL:
            problems.append(f"lossless scattering: t(0) = {t0!r}, expected 1")
        if x["bracket"] is not None:
            problems += checks.ep_problems(p, out["ep_adiabatic"], "adiabatic")
            problems += checks.ep_problems(p, out["ep_full"], "full")
        return problems

    @staticmethod
    def work(task: Task, out) -> tuple[int, int]:
        return 1, 0

    @staticmethod
    def digest(out) -> bytes:
        values = [out["eig"], [out["steady"].a, out["steady"].m1, out["steady"].m2],
                  out["rt"], out["rt_lossless"], out["rt_zero"]]
        for key in ("ep_adiabatic", "ep_full"):
            if key in out:
                values.append([out[key].location, out[key].degenerate_value])
        return sha256_of(*[np.asarray(v, dtype=complex) for v in values])

    @staticmethod
    def corrupt(out):
        out = dict(out)
        out["steady"] = replace(out["steady"], a=out["steady"].a * (1.0 + 1e-6))
        return out


def system_lines(p) -> str:
    """The [system] keys of a config for parameters p."""
    return "".join(f"{k} = {float(getattr(p, k))!r}\n" for k in ("kappa", "gamma1", "gamma2", "g1", "g2", "s"))


def cli_default_dynamics(p, amplitude: float) -> tuple[float, float]:
    """(t_end, dt) the CLI picks when a dynamics config leaves them out."""
    config = parse_config(f"[run]\nmode = dynamics\n[system]\n{system_lines(p)}[drive]\namplitude = {amplitude!r}\n")
    return config.t_end, config.dt


class LongDynamics:
    """Driven RK4 run from vacuum, a reduced free decay and a validity report.

    The driven run takes 1e4 to 4e4 steps (one task per target per round); the
    validity report's length makes up the difference, so every task does about
    TOTAL_STEPS RK4 steps and the median pools all tasks of a run.
    """

    name = "long-dynamics"
    STEPS = (10_000, 20_000, 30_000, 40_000)
    FREE_STEPS = 5_000
    TOTAL_STEPS = 50_000
    DT_VALID = 0.01

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Task]:
        tasks = []
        for steps in self.STEPS:
            seed = (self.seed, r, len(tasks))
            rng = np.random.default_rng(seed)
            # The CLI default t_end is 50/min(dressed damping) at dt = 0.1/kappa
            # (kappa = 1 here), so the dressed damping sets the step count.
            dressed = 500.0 / (steps * rng.uniform(0.95, 1.05))
            g = math.sqrt(dressed * rng.uniform(0.5, 0.9))
            gamma = dressed - g * g
            if len(tasks) % 2:
                g2 = g * rng.uniform(1.1, 1.4)
                p = cm.SystemParams(kappa=1.0, gamma1=gamma, gamma2=gamma * rng.uniform(1.0, 2.0), g1=g, g2=g2)
            else:
                p = cm.SystemParams(kappa=1.0, gamma1=gamma, gamma2=gamma, g1=g, g2=g)
            # Outside the attraction window |s| < g1 g2/kappa both magnon-like
            # modes decay at the dressed rate, so t_end reaches the steady state.
            p = replace(p, s=p.g1 * p.g2 * float(rng.choice([-1.0, 1.0])) * rng.uniform(1.2, 2.0))
            amplitude = rng.uniform(0.5, 2.0)
            t_end, dt = cli_default_dynamics(p, amplitude)
            m0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            valid_steps = (self.TOTAL_STEPS - self.FREE_STEPS - round(t_end / dt)) // 2
            tasks.append(Task("dynamics", seed, {
                "params": p, "drive": cm.DriveParams(delta=rng.uniform(-0.05, 0.05), amplitude=amplitude),
                "t_end": t_end, "dt": dt, "m0": m0, "t_free": self.FREE_STEPS * dt,
                "t_valid": valid_steps * self.DT_VALID, "dt_valid": self.DT_VALID,
            }))
        order = np.random.default_rng((self.seed, r, 99)).permutation(len(tasks))
        return [tasks[i] for i in order]

    @staticmethod
    def execute(task: Task):
        x = task.inputs
        p = x["params"]
        driven = cm.integrate_full(p, x["drive"], np.zeros(3, dtype=complex), x["t_end"], x["dt"])
        free = cm.integrate_adiabatic(cm.build_adiabatic_model(p), x["m0"], x["t_free"], x["dt"])
        validity = cm.adiabatic_validity_report(p, x["m0"], x["t_valid"], x["dt_valid"])
        return driven, free, validity

    @staticmethod
    def check(task: Task, out) -> list[str]:
        x = task.inputs
        p, drive = x["params"], x["drive"]
        driven, free, validity = out
        ss = cm.steady_state(p, drive)
        target = np.array([ss.a, ss.m1, ss.m2])
        index = checks.transient_sample(driven.times, p.kappa, x["t_end"], task_rng(task), 1)[0]
        problems = checks.trajectory_problems(
            driven, x["t_end"], target,
            lambda t: cm.propagate_exact(p, drive, np.zeros(3, dtype=complex), t), index,
        )
        problems += checks.decay_problems(free)
        if not (math.isfinite(validity) and 0.0 <= validity <= 0.1):
            problems.append(f"adiabatic_validity_report: {validity!r} outside [0, 0.1] deep in the bad cavity")
        return problems

    @staticmethod
    def work(task: Task, out) -> tuple[int, int]:
        driven, free, _ = out
        valid_steps = 2 * int(round(task.inputs["t_valid"] / task.inputs["dt_valid"]))
        return 0, (driven.times.size - 1) + (free.times.size - 1) + valid_steps

    @staticmethod
    def digest(out) -> bytes:
        driven, free, validity = out
        return sha256_of(driven.states[-1], free.states[-1], np.array([validity]))

    @staticmethod
    def corrupt(out):
        driven, free, validity = out
        states = np.array(driven.states)
        states[-1] *= 1.0 + 1e-6
        return replace(driven, states=states), free, validity


# -- cli-figures ------------------------------------------------------------------

SCRIPTS = ("level_diagrams.py", "spincurrent_spectra.py", "reflection_windows.py")
CLI_MODES = ("ep-find:adiabatic", "ep-find:full", "adiabatic-compare", "dynamics")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_config(kind: str, rng, path: str) -> str:
    """Config text for one seeded CLI run in the bad-cavity regime."""
    g, gamma = rng.uniform(0.15, 0.25), rng.uniform(0.008, 0.012)
    rate = g * g
    if kind == "dynamics":
        p = cm.SystemParams(kappa=1.0, gamma1=gamma, gamma2=gamma, g1=g, g2=g,
                            s=rate * float(rng.choice([-1.0, 1.0])) * rng.uniform(1.2, 2.0))
        return (f"[run]\nmode = dynamics\n[system]\n{system_lines(p)}"
                f"[drive]\namplitude = {rng.uniform(0.5, 2.0)!r}\n"
                f"[dynamics]\ndelta = {rng.uniform(-0.05, 0.05)!r}\n"
                f"[output]\npath = {path}\nformat = both\n")
    p = cm.SystemParams(kappa=1.0, gamma1=gamma, gamma2=gamma, g1=g, g2=g)
    if kind.startswith("ep-find"):
        model = kind.split(":")[1]
        return (f"[run]\nmode = ep-find\n[system]\n{system_lines(p)}"
                f"[sweep]\nvariable = s\nmin = {0.5 * rate!r}\nmax = {1.5 * rate!r}\npoints = 11\n"
                f"[ep]\nmodel = {model}\n[output]\npath = {path}\nformat = both\n")
    return (f"[run]\nmode = adiabatic-compare\n[system]\n{system_lines(p)}"
            f"[sweep]\nvariable = s\nmin = {-5 * rate!r}\nmax = {5 * rate!r}\npoints = 481\n"
            f"[output]\npath = {path}\nformat = both\n")


@dataclass
class ColdResult:
    returncode: int
    outdir: Path
    stdout: str
    stderr: str


class CliFigures:
    """One cold process per task: the shipped scripts and seeded CLI runs."""

    name = "cli-figures"
    TIMEOUT_S = 120

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def round(self, r: int) -> list[Task]:
        tasks = []
        for script in SCRIPTS:
            tasks.append(Task("script", (self.seed, r, len(tasks)), {"script": script, "outdir": f"task{len(tasks)}"}))
        for kind in CLI_MODES:
            seed = (self.seed, r, len(tasks))
            outdir = f"task{len(tasks)}"
            text = cli_config(kind, np.random.default_rng(seed), f"{outdir}/{kind.split(':')[0]}.csv")
            tasks.append(Task("cli", seed, {"kind": kind, "config": text, "outdir": outdir}))
        order = np.random.default_rng((self.seed, r, 99)).permutation(len(tasks))
        return [tasks[i] for i in order]

    def prepare(self, task: Task, spans_file: Path | None = None) -> list[str]:
        """Clear the task's output directory, write its config and return its command.

        With spans_file set the process starts through traced_cli.py, which
        writes the spans of the whole process there.
        """
        outdir = self.workdir / task.inputs["outdir"]
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        argv = [sys.executable]
        if spans_file is not None:
            spans_file.unlink(missing_ok=True)
            argv += [str(ROOT / "perfbench" / "traced_cli.py"), str(spans_file)]
        if task.kind == "script":
            return argv + [str(ROOT / "scripts" / task.inputs["script"]), "--outdir", task.inputs["outdir"]]
        config_file = self.workdir / f"{task.inputs['outdir']}.cfg"
        config_file.write_text(task.inputs["config"], encoding="utf-8")
        return argv + ["-m", "cavitymagnons", "--config", config_file.name]

    def execute(self, argv: list[str], task: Task) -> ColdResult:
        out_file = self.workdir / "stdout.txt"
        err_file = self.workdir / "stderr.txt"
        with open(out_file, "wb") as out, open(err_file, "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=child_env(), stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            try:
                code = proc.wait(timeout=self.TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
        return ColdResult(code, self.workdir / task.inputs["outdir"],
                          out_file.read_text(encoding="utf-8", errors="replace"),
                          err_file.read_text(encoding="utf-8", errors="replace"))

    def check(self, task: Task, out: ColdResult) -> list[str]:
        if out.returncode != 0:
            return [f"{task.kind} {task.inputs.get('script') or task.inputs['kind']}: exit code "
                    f"{out.returncode}: {out.stderr.strip()[-300:]}"]
        csvs = sorted(out.outdir.glob("*.csv"))
        listed = {Path(line).name for line in out.stdout.split()}
        if not csvs or listed != {p.name for p in csvs} | {p.with_suffix(".json").name for p in csvs}:
            return [f"{task.kind}: written files {sorted(listed)} do not match the outputs found"]
        expected = parse_config(task.inputs["config"]) if task.kind == "cli" else None
        rng = task_rng(task)
        problems = []
        for path in csvs:
            problems += checks.cli_output_problems(cm, path, rng, expected)
        return problems

    @staticmethod
    def work(task: Task, out: ColdResult) -> tuple[int, int]:
        return 0, 0

    @staticmethod
    def digest(out: ColdResult) -> bytes:
        h = hashlib.sha256()
        for path in sorted(out.outdir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.digest()

    @staticmethod
    def corrupt(out: ColdResult) -> ColdResult:
        """Copy the outputs and scale one CSV column of every data row."""
        target = out.outdir.with_name(out.outdir.name + "-corrupt")
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(out.outdir, target)
        path = sorted(target.glob("*.csv"))[0]
        lines = path.read_text(encoding="utf-8").split("\n")
        for i in range(2, len(lines) - 1):
            values = lines[i].split(",")
            values[1] = format(float(values[1]) * (1.0 + 1e-3) + 1e-6, ".17g")
            lines[i] = ",".join(values)
        path.write_text("\n".join(lines), encoding="utf-8")
        return ColdResult(out.returncode, target, out.stdout, out.stderr)


WARM = {w.name: w for w in (SweepScan, PointQueries, LongDynamics)}
