#!/usr/bin/env python3
"""Run the scripts and a fixed set of CLI configs on two checkouts and compare the outputs.

Each side (PARENT_DIR, and the checkout holding this file) runs the three
`scripts/*.py` with `--outdir out` and eleven CLI configs that write to
`out/<name>.csv`, in a fresh temporary directory, with that side's `src` on
PYTHONPATH.  The eleven configs cover every mode: eig-sweep (plain, with
`[si]`, and at 4001 points), response-sweep, reflection-sweep, ep-find
(adiabatic and full), adiabatic-compare (plain, and at 4001 points on an
asymmetric strong-coupling system), and dynamics (plain, and with a
power/frequency drive plus `[si]`).  The 4001-point sweeps span several of
the branch tracker's blocks, and their Cardano roots switch branches, which
the tracker must undo with matchings off the identity.  One more run gives
the reflection-sweep config `--output out/reflection_override.csv --format
csv`, so the command-line override route is compared too.

The two sides' exit codes, stdout, stderr, file names and file bytes are
compared.  For each CSV that differs, the max abs and max rel diff of each
differing column is printed.  Exit code 0 means every run succeeded on both
sides and every output is identical; otherwise 1.

Usage: python tools/compare_outputs.py PARENT_DIR
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ("level_diagrams.py", "spincurrent_spectra.py", "reflection_windows.py")
S_SWEEP = "[sweep]\nvariable = s\nmin = -0.2\nmax = 0.2\npoints = 481\n"
EP = "[run]\nmode = ep-find\n[sweep]\nvariable = s\nmin = 0.02\nmax = 0.06\npoints = 11\n"
CONFIGS = {
    "eig_sweep": "[run]\nmode = eig-sweep\n" + S_SWEEP,
    "eig_sweep_si": "[run]\nmode = eig-sweep\n" + S_SWEEP + "[si]\nkappa_hz = 1e6\n",
    "response_sweep": "[run]\nmode = response-sweep\n[system]\ns = 0.04\n"
                      "[sweep]\nvariable = delta\nmin = -0.3\nmax = 0.3\npoints = 601\n[drive]\namplitude = 1\n",
    "reflection_sweep": "[run]\nmode = reflection-sweep\n[system]\ngamma1 = 0\ngamma2 = 0\ns = 0.01\n"
                        "[sweep]\nvariable = delta\nmin = -0.3\nmax = 0.3\npoints = 1201\n",
    "ep_find_adiabatic": EP,
    "ep_find_full": EP + "[ep]\nmodel = full\n",
    "eig_sweep_4001": "[run]\nmode = eig-sweep\n" + S_SWEEP.replace("481", "4001"),
    "adiabatic_compare": "[run]\nmode = adiabatic-compare\n" + S_SWEEP,
    "adiabatic_compare_asymmetric": "[run]\nmode = adiabatic-compare\n[system]\ngamma1 = 0.05\ngamma2 = 0.2\n"
                                    "g1 = 0.9\ng2 = 0.4\n[sweep]\nvariable = s\nmin = -3\nmax = 3\npoints = 4001\n",
    "dynamics": "[run]\nmode = dynamics\n[system]\ns = 0.06\n[drive]\namplitude = 1\n",
    "dynamics_power_si": "[run]\nmode = dynamics\n[system]\ns = 0.06\n[drive]\npower = 1e-20\n"
                         "frequency = 6.283e10\n[dynamics]\nt_end = 200\ndelta = 0.01\n[si]\nkappa_hz = 1e6\n",
}


def run_side(side: Path, workdir: Path) -> dict[str, tuple[int, str, str]]:
    """Run every script and config of `side` in `workdir`; (exit code, stdout, stderr) by run name."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    env["PYTHONPATH"] = str(side / "src")
    commands = {script: [str(side / "scripts" / script), "--outdir", "out"] for script in SCRIPTS}
    for name, text in CONFIGS.items():
        (workdir / f"{name}.cfg").write_text(f"{text}[output]\npath = out/{name}.csv\n", encoding="utf-8")
        commands[name] = ["-m", "cavitymagnons", "--config", f"{name}.cfg"]
    commands["reflection_override"] = ["-m", "cavitymagnons", "--config", "reflection_sweep.cfg",
                                       "--output", "out/reflection_override.csv", "--format", "csv"]
    results = {}
    for name, args in commands.items():
        proc = subprocess.run([sys.executable, *args], cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=600)
        results[name] = (proc.returncode, proc.stdout, proc.stderr)
    return results


def csv_diffs(old: str, new: str) -> list[str]:
    """One line per column of two CSV texts that differs: its max abs and max rel diff.

    A differing comment line, header row or row count is reported as one line
    instead, since the columns then cannot be compared value by value.
    """
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if old_lines[:2] != new_lines[:2] or len(old_lines) != len(new_lines):
        return [f"schema, header or row count differs ({len(old_lines)} vs {len(new_lines)} lines)"]
    diffs = []
    for j, column in enumerate(old_lines[1].split(",")):
        worst_abs = worst_rel = 0.0
        for old_row, new_row in zip(old_lines[2:], new_lines[2:]):
            a, b = float(old_row.split(",")[j]), float(new_row.split(",")[j])
            worst_abs = max(worst_abs, abs(a - b))
            if a != b:
                worst_rel = max(worst_rel, abs(a - b) / max(abs(a), abs(b)))
        if worst_abs:
            diffs.append(f"{column}: max abs diff {worst_abs:.3g}, max rel diff {worst_rel:.3g}")
    return diffs


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 1
    sides = (Path(sys.argv[1]).resolve(), ROOT)
    runs, files = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i, side in enumerate(sides):
            workdir = Path(tmp) / f"side{i}"
            workdir.mkdir()
            runs.append(run_side(side, workdir))
            out = workdir / "out"
            files.append({path.name: path.read_bytes() for path in sorted(out.iterdir())} if out.is_dir() else {})
    problems = []
    for name, old in runs[0].items():
        new = runs[1][name]
        problems += [f"{name}: exit code {code} on {side}: {stderr.strip()[-300:]}"
                     for side, (code, _, stderr) in zip(sides, (old, new)) if code != 0]
        if old != new:
            problems.append(f"{name}: exit code, stdout or stderr differs")
    for name in sorted(files[0].keys() ^ files[1].keys()):
        problems.append(f"{name}: written on one side only")
    for name in sorted(files[0].keys() & files[1].keys()):
        old, new = files[0][name], files[1][name]
        if old != new:
            problems.append(f"{name}: bytes differ")
            if name.endswith(".csv"):
                problems += [f"  {line}" for line in csv_diffs(old.decode(), new.decode())]
    print(f"{len(runs[0])} runs per side, {len(files[1])} files compared")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
