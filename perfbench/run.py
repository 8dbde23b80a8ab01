#!/usr/bin/env python3
"""Benchmark of the cavitymagnons package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  The package is imported from the checkout's
``src`` (it is not installed), and every task's output is checked.  With
``--trace 0`` the last line of standard output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  The lines above it are a readable report: every metric
with unit and sample count, and the run's provenance.  ``--workload all`` runs
the four workloads one after another, each in its own process.  Files the runs
leave behind go to ``.perfbench_work/`` at the checkout root.

Load is a closed loop from one process: one caller, the next task starts when
the previous one has finished, and at most one child process at a time.  See
README.md beside this file for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("cli-figures", "sweep-scan", "point-queries", "long-dynamics")
# Metrics BENCHMARK.json lists as end to end: they apply to every workload and
# are never zero.  points_per_s, steps_per_s and failed_ratio are reported too.
GATED = ("setup_s", "tasks_per_s", "task_p50_ms", "task_tail_ms", "peak_rss_mb")
SETUP_PROBES = 7
IMPORT_PROBES = 3
# Share of --seconds given to the untraced pass of a traced run; the traced
# pass then replays the same rounds.
UNTRACED_SHARE = 0.45
# Tail percentiles tried, highest first: the tail is the highest one with at
# least ten samples beyond it, or the median when fewer than twenty tasks ran.
TAIL_LADDER = (99, 90, 75, 50)
# Host-speed reference: a fixed benchmark-owned kernel timed between tasks at
# most every PROBE_INTERVAL_S.  Task times and rates are reported scaled by
# (NOMINAL_REFERENCE_S / median reference time of the run) ** SCALE_EXPONENT.
# Across a shared host's slow and fast phases the package's tasks sped up by
# between 1.0 and 1.9 times while the reference sped up about 1.8 times; the
# square root keeps the error of either kind near half of the unscaled one.
PROBE_INTERVAL_S = 0.25
NOMINAL_REFERENCE_S = 0.004
SCALE_EXPONENT = 0.5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def require_checkout() -> None:
    needed = ("src/cavitymagnons/__init__.py", "scripts/level_diagrams.py")
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a cavitymagnons checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of the package's kinds of work, done without it:
    complex scalar arithmetic, 3x3 solves, and an RK4-style loop storing states."""
    import numpy as np

    a = np.array([[-1j, 0.2, 0.2], [0.2, 0.1 - 0.01j, 0.0], [0.2, 0.0, -0.1 - 0.01j]])
    rhs = np.array([1.0, 0.0, 0.0], dtype=complex)
    start = time.perf_counter()
    acc = 0j
    for i in range(100):
        z = complex(i % 7, 1.0)
        acc += (z * z + 0.5) ** (1 / 3)
        acc += np.linalg.solve(np.array([[z, 1, 0], [1, -z, 0.5], [0, 0.5, 1j]]), rhs)[0]
    y = np.zeros(3, dtype=complex)
    states = np.empty((201, 3), dtype=complex)
    for i in range(200):
        k1 = a @ y + rhs
        k2 = a @ (y + 0.05 * k1) + rhs
        y = y + (0.1 / 6.0) * (k1 + 2.0 * k2)
        states[i + 1] = y
    acc += states[-1].sum()
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return elapsed


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "cli-figures":
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        return workloads.CliFigures(seed, workdir)
    return workloads.WARM[name](seed)


# -- running tasks ------------------------------------------------------------------


class Runner:
    """Executes tasks in a closed loop and keeps what the metrics need."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.cold = workload.name == "cli-figures"
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.points = 0
        self.steps = 0
        self.problems: list[str] = []
        self.spans: list[dict] = []
        self.digest = hashlib.sha256()
        self.selftest: bool | None = None
        self.reference: list[float] = []
        self._last_probe = float("-inf")

    def speed_factor(self) -> float:
        """Scale for this run's task times (see SCALE_EXPONENT)."""
        return (NOMINAL_REFERENCE_S / statistics.median(self.reference)) ** SCALE_EXPONENT

    def run_rounds(self, first_round, budget_s=None, rounds=None, traced=False) -> int:
        """Whole rounds: `rounds` of them, or until the next would end past budget_s."""
        start = time.perf_counter()
        r = 0
        while True:
            for task in first_round if r == 0 else self.w.round(r):
                if time.perf_counter() - self._last_probe >= PROBE_INTERVAL_S:
                    self.reference.append(reference_kernel())
                    self._last_probe = time.perf_counter()
                self.run_task(task, traced, first_round=r == 0)
            r += 1
            elapsed = time.perf_counter() - start
            if (rounds is not None and r >= rounds) or (rounds is None and elapsed * (r + 1) / r > budget_s):
                return r

    def run_task(self, task, traced: bool, first_round: bool) -> None:
        self.attempted += 1
        try:
            latency, out = self._execute(task, traced)
        except Exception as exc:  # a library error fails the task; the run goes on
            self._fail(task, [f"{type(exc).__name__}: {exc}"])
            return
        self.latencies.append(latency)
        try:
            problems = self.w.check(task, out)
        except Exception as exc:
            problems = [f"checker raised {type(exc).__name__}: {exc}"]
        if problems:
            self._fail(task, problems)
            return
        points, steps = self.w.work(task, out)
        self.points += points
        self.steps += steps
        if first_round:
            self.digest.update(self.w.digest(out))
        if self.selftest is None and (not self.cold or task.kind == "script"):
            self.selftest = self._catches_corruption(task, out)

    def _execute(self, task, traced: bool):
        if self.cold:
            spans_file = self.w.workdir / "spans.npz" if traced else None
            argv = self.w.prepare(task, spans_file)
            start = time.perf_counter()
            out = self.w.execute(argv, task)
            latency = time.perf_counter() - start
            if traced:
                import numpy as np

                with np.load(spans_file) as data:
                    self.spans.append({key: data[key] for key in data.files})
            return latency, out
        if traced:
            self.tracer.task += 1
            self.tracer.active = True
        try:
            start = time.perf_counter()
            out = self.w.execute(task)
            latency = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.active = False
        return latency, out

    def _fail(self, task, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{task.kind} task {task.seed}: {problems[0]}")

    def _catches_corruption(self, task, out) -> bool:
        """Self-test: the checker must reject a deliberately corrupted output."""
        try:
            return bool(self.w.check(task, self.w.corrupt(out)))
        except Exception:
            return True


# -- measurements -------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest ladder percentile with ten samples beyond it."""
    n = len(latencies)
    if n < 2:
        return latencies[0], 50
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return cuts[p - 1], p
    return statistics.median(latencies), 50


def setup_samples(workload: str, seed: int) -> list[float]:
    """Wall times from starting a fresh interpreter until its first task is ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        )
        with proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}, printed {line!r})")
        samples.append(ready)
    return samples


def import_samples() -> dict[str, float]:
    """Median import.* metrics over cold ``python -X importtime`` processes."""
    import tracer
    import workloads

    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cavitymagnons"],
                              cwd=ROOT, env=workloads.child_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-300:]}")
        samples.append(tracer.import_breakdown(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def git_commit() -> str | None:
    """Commit of the checkout when it is a git repository; read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, digest: str) -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "platform": platform.platform(), "git_commit": git_commit(), "source_sha256": source.hexdigest(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "first_round_output_sha256": digest,
    }


def end_to_end(runner: Runner, args) -> dict[str, dict]:
    """End-to-end metrics; task times and rates are scaled to the nominal host speed."""
    lat = runner.latencies
    n = len(lat)
    busy = sum(lat)
    tail_value, pct = tail(lat)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if runner.cold else resource.RUSAGE_SELF)
    # Probes start after the RSS reading, so only task processes count on cli-figures.
    setup = setup_samples(args.workload, args.seed)
    speed = runner.speed_factor()

    def metric(raw, unit, samples, note="", scale=1.0):
        value = None if raw is None else raw * scale
        return {"value": value, "raw": raw, "unit": unit, "samples": samples, "note": note}

    passed = runner.attempted - runner.failed
    return {
        "setup_s": metric(statistics.median(setup), "s", len(setup), "median of fresh processes"),
        "tasks_per_s": metric(passed / busy, "1/s", runner.attempted, "passed tasks / time in tasks", 1 / speed),
        "task_p50_ms": metric(statistics.median(lat) * 1e3, "ms", n, "", speed),
        "task_tail_ms": metric(tail_value * 1e3, "ms", n, f"p{pct}", speed),
        "points_per_s": metric(runner.points / busy if args.workload == "sweep-scan" else None, "1/s", n,
                               "sweep points; sweep-scan only", 1 / speed),
        "steps_per_s": metric(runner.steps / busy if args.workload == "long-dynamics" else None, "1/s", n,
                              "RK4 steps; long-dynamics only", 1 / speed),
        "peak_rss_mb": metric(usage.ru_maxrss / 1024.0, "MB", 1,
                              "largest task process" if runner.cold else "workload process"),
        "failed_ratio": metric(runner.failed / runner.attempted, "ratio", runner.attempted),
        "host_reference_ms": metric(statistics.median(runner.reference) * 1e3, "ms", len(runner.reference),
                                    f"nominal {NOMINAL_REFERENCE_S * 1e3:g}"),
    }


PER_LAYER_UNITS = (
    (".calls", "calls/task"), ("_ms", "ms/task"), (".rows", "rows/task"), ("_bytes", "B/task"),
    (".steps", "steps/task"), ("ambiguous_steps", "steps/task"), (".rejected", "calls/task"),
    ("_per_point", "1/point"), ("_per_search", "1/search"), ("ns_per_step", "ns/step"),
    ("overhead_ratio", "ratio"),
)


def per_layer_unit(name: str) -> str:
    if name.startswith("import."):
        return "ms"
    return next(unit for suffix, unit in PER_LAYER_UNITS if name.endswith(suffix))


def traced_run(workload, first_round, args) -> tuple[Runner, dict[str, dict]]:
    """Untraced pass, then the same rounds traced; per-layer metrics from the spans."""
    import numpy as np

    import tracer

    imports = import_samples()
    plain = Runner(workload)
    rounds = plain.run_rounds(first_round, budget_s=UNTRACED_SHARE * args.seconds)
    spans = tracer.Tracer()
    if not plain.cold:
        spans.install()
    traced = Runner(workload, spans)
    try:
        traced.run_rounds(first_round, rounds=rounds, traced=True)
    finally:
        spans.uninstall()
    data = tracer.merge(traced.spans) if traced.cold else spans.columns()
    np.savez_compressed(WORK / f"spans-{args.workload}-seed{args.seed}.npz", **data)
    values = {**imports, **tracer.layer_metrics(data, max(1, len(traced.latencies)))}
    values["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies) - 1.0
    metrics = {
        name: {"value": value, "unit": per_layer_unit(name), "note": "",
               "samples": IMPORT_PROBES if name.startswith("import.") else len(traced.latencies)}
        for name, value in values.items()
    }
    # Both passes count towards attempted and failed.
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems = plain.problems + traced.problems
    traced.selftest = plain.selftest
    traced.digest = plain.digest
    return traced, metrics


# -- report -------------------------------------------------------------------------


def report(args, runner: Runner, metrics: dict[str, dict], prov: dict) -> dict:
    kind = "per-layer (traced run)" if args.trace else "end-to-end"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} {kind}")
    print(f"  {'metric':44s} {'value':>12s} {'raw':>12s}  {'unit':10s} {'samples':>7s}  note")
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        raw = "" if m.get("raw") is None else f"{m['raw']:.6g}"
        print(f"  {name:44s} {value:>12s} {raw:>12s}  {m['unit']:10s} {m['samples']:7d}  {m['note']}")
    print(f"  tasks attempted {runner.attempted}, failed {runner.failed}, "
          f"checker self-test {'passed' if runner.selftest else 'FAILED'}")
    for problem in runner.problems:
        print(f"  problem: {problem}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    names = [n for n in metrics if n in GATED] if not args.trace else list(metrics)
    return {
        "correct": runner.failed == 0 and bool(runner.selftest),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in names},
    }


def run_all(args) -> int:
    """Every workload in its own process, then one table of all their metrics."""
    results, records = {}, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        record = WORK / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        records[workload] = json.loads(record.read_text(encoding="utf-8"))["metrics"]
    print("summary (value, unit, samples)")
    print(f"  {'metric':44s}" + "".join(f" {w:>26s}" for w in WORKLOADS))
    for name, first in records[WORKLOADS[0]].items():
        cells = []
        for w in WORKLOADS:
            m = records[w][name]
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            cells.append(f" {value:>12s} {m['unit']:>8s} {m['samples']:>4d}")
        print(f"  {name:44s}" + "".join(cells))
    print(f"  {'correct':44s}" + "".join(f" {str(results[w]['correct']):>26s}" for w in WORKLOADS))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    require_checkout()
    if args.workload == "all":
        return run_all(args)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / (f"{args.workload}-probe" if args.setup_probe else args.workload)
    workload = make_workload(args.workload, args.seed, workdir)
    first_round = workload.round(0)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        runner, metrics = traced_run(workload, first_round, args)
    else:
        runner = Runner(workload)
        runner.run_rounds(first_round, budget_s=args.seconds)
        metrics = end_to_end(runner, args)
    prov = provenance(args, runner.digest.hexdigest())
    result = report(args, runner, metrics, prov)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"provenance": prov, "metrics": metrics, "problems": runner.problems, "selftest": runner.selftest,
              "reference_ms": [t * 1e3 for t in runner.reference],
              **{k: result[k] for k in ("correct", "attempted", "failed")}}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
