"""Span tracing around the public functions of the cavitymagnons modules.

The tracer wraps each public function at every module attribute that refers to
it (``cli`` calls ``spectra.sweep_eigenvalues``, ``spectra`` calls its own
``eigenvalues_3x3`` global, ``dynamics`` calls the ``build_driven_system`` it
imported from ``model``), so the package itself is never edited.  Each call
made while a task is active becomes one span: name, start, end, parent span
and task id, plus a few sizes read from the arguments or the result.  Spans
live in compact in-memory columns and are written out once, at the end; self
times and per-layer metrics are computed from them afterwards.

Two counters ride on the spans.  Parameter objects (``SystemParams``,
``DriveParams``) constructed by the library and ``numpy.linalg.solve`` calls
are charged to the current *entry span*: the outermost library call of a task,
or one made directly by the CLI layer.
"""

from __future__ import annotations

import os
import re
import sys
from array import array
from time import perf_counter_ns as _clock

import numpy as np

# Public functions traced per layer (the package's modules).
TRACED = {
    "model": ("build_full_hamiltonian", "build_driven_system", "build_adiabatic_model"),
    "spectra": ("eigenvalues_3x3", "track_branches", "sweep_eigenvalues", "find_exceptional_point"),
    "response": ("steady_state", "spincurrent_spectrum", "reflection_transmission"),
    "dynamics": ("integrate_full", "integrate_adiabatic", "adiabatic_validity_report"),
    "cli": ("main", "parse_config", "run", "render_csv", "render_config"),
}

_COLUMNS = ("name", "t0", "t1", "parent", "task", "entry", "points", "size", "nbytes", "params", "solves", "err")

# Sweep points requested by a call, read from its arguments.
_SINGLE_POINT = ("spectra.eigenvalues_3x3", "response.steady_state", "response.reflection_transmission")


def _points(name, args, kwargs):
    if name in _SINGLE_POINT:
        return 1
    if name == "spectra.sweep_eigenvalues":
        return int(kwargs["n_points"] if "n_points" in kwargs else args[3])
    if name == "response.spincurrent_spectrum":
        return int(np.size(kwargs["deltas"] if "deltas" in kwargs else args[1]))
    if name == "cli.render_csv":
        columns = kwargs["columns"] if "columns" in kwargs else args[1]
        return int(np.size(columns[0])) if len(columns) else 0
    return 0


def _sizes(name, result):
    """(size, nbytes) of a call's result: ambiguous steps, RK4 steps, bytes written."""
    if name == "spectra.sweep_eigenvalues":
        return len(result.ambiguous_spans), 0
    if name in ("dynamics.integrate_full", "dynamics.integrate_adiabatic"):
        return result.times.size - 1, result.times.nbytes + result.states.nbytes
    if name == "cli.run":
        return 0, sum(os.path.getsize(path) for path in result)
    return 0, 0


class Tracer:
    """Records spans of traced calls while ``active`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self.cols = {key: array("q") for key in _COLUMNS}
        self.active = False
        self.task = 0
        self._stack: list[int] = []
        self._entry = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        is_cli = name.startswith("cli.")
        cols = self.cols
        t0, t1, size, nbytes, err = cols["t0"], cols["t1"], cols["size"], cols["nbytes"], cols["err"]
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(t0)
            parent = stack[-1] if stack else -1
            is_entry = not is_cli and (parent < 0 or self.names[cols["name"][parent]].startswith("cli."))
            cols["name"].append(name_id)
            cols["parent"].append(parent)
            cols["task"].append(self.task)
            cols["entry"].append(int(is_entry))
            cols["points"].append(_points(name, args, kwargs))
            for col in (t1, size, nbytes, cols["params"], cols["solves"], err):
                col.append(0)
            outer_entry = self._entry
            if is_entry:
                self._entry = index
            stack.append(index)
            t0.append(_clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1[index] = _clock()
                err[index] = 1
                raise
            else:
                t1[index] = _clock()
                size[index], nbytes[index] = _sizes(name, result)
                return result
            finally:
                stack.pop()
                self._entry = outer_entry

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str) -> None:
        if self.active and self._entry >= 0:
            self.cols[key][self._entry] += 1

    def install(self) -> None:
        """Wrap every traced function at each module attribute that holds it."""
        from cavitymagnons import model

        modules = [m for n, m in list(sys.modules.items()) if n == "cavitymagnons" or n.startswith("cavitymagnons.")]
        for layer, functions in TRACED.items():
            source = sys.modules[f"cavitymagnons.{layer}"]
            for function in functions:
                original = getattr(source, function)
                wrapper = self._wrap(original, f"{layer}.{function}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

        for cls in (model.SystemParams, model.DriveParams):
            original_post_init = cls.__post_init__

            def counted(obj, _original=original_post_init):
                self._count("params")
                _original(obj)

            self._patch(cls, "__post_init__", counted)

        original_solve = np.linalg.solve

        def counted_solve(*args, **kwargs):
            self._count("solves")
            return original_solve(*args, **kwargs)

        self._patch(np.linalg, "solve", counted_solve)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def columns(self) -> dict:
        data = {key: np.frombuffer(col, dtype=np.int64).copy() for key, col in self.cols.items()}
        data["names"] = np.array(self.names)
        return data

    def save(self, path) -> None:
        np.savez_compressed(path, **self.columns())


def merge(parts: list[dict]) -> dict:
    """Concatenate span columns from several tracers (one per cold process).

    Span names are remapped to one table, parents are offset, and each part's
    spans get the part's index as task id.
    """
    index: dict[str, int] = {}
    out = {key: [] for key in _COLUMNS}
    offset = 0
    for task, part in enumerate(parts):
        remap = np.array([index.setdefault(n, len(index)) for n in part["names"].tolist()], dtype=np.int64)
        n = part["t0"].size
        for key in _COLUMNS:
            col = part[key]
            if key == "name":
                col = remap[col] if n else col
            elif key == "parent":
                col = np.where(col >= 0, col + offset, -1)
            elif key == "task":
                col = np.full(n, task, dtype=np.int64)
            out[key].append(col)
        offset += n
    names = sorted(index, key=index.get)
    data = {key: np.concatenate(v) if v else np.zeros(0, dtype=np.int64) for key, v in out.items()}
    data["names"] = np.array(names)
    return data


def layer_metrics(data: dict, n_tasks: int) -> dict[str, float]:
    """Per-layer metrics from span columns, normalised per task where stated."""
    names = data["names"].tolist()
    n = data["t0"].size
    dur = (data["t1"] - data["t0"]).astype(float)
    parent = data["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n) if n else np.zeros(0)
    self_time = dur - child
    name_of = np.array(names, dtype=object)[data["name"]] if n else np.array([], dtype=object)
    entry = data["entry"] == 1

    def mask(name):
        return name_of == name

    def calls(name):
        return float(mask(name).sum()) / n_tasks

    def busy_ms(name):
        return float(dur[mask(name)].sum()) / 1e6 / n_tasks

    def self_ms(name):
        return float(self_time[mask(name)].sum()) / 1e6 / n_tasks

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    point_entries = entry & (data["points"] > 0) & np.array([not str(x).startswith("cli.") for x in name_of], dtype=bool)
    response_entries = point_entries & np.array([str(x).startswith("response.") for x in name_of], dtype=bool)
    ep = entry & mask("spectra.find_exceptional_point")
    integrations = mask("dynamics.integrate_full") | mask("dynamics.integrate_adiabatic")
    steps = data["size"][integrations].sum()
    render = mask("cli.render_csv")

    return {
        "cli.parse_config.busy_ms": busy_ms("cli.parse_config"),
        "cli.render_csv.busy_ms": busy_ms("cli.render_csv"),
        "cli.render_csv.rows": float(data["points"][render].sum()) / n_tasks,
        "cli.run.self_ms": self_ms("cli.run"),
        "cli.output_bytes": float(data["nbytes"][mask("cli.run")].sum()) / n_tasks,
        "model.build_full_hamiltonian.calls": calls("model.build_full_hamiltonian"),
        "model.build_full_hamiltonian.busy_ms": busy_ms("model.build_full_hamiltonian"),
        "model.build_adiabatic_model.calls": calls("model.build_adiabatic_model"),
        "model.build_driven_system.calls": calls("model.build_driven_system"),
        "model.params_per_point": ratio(data["params"][point_entries].sum(), data["points"][point_entries].sum()),
        "spectra.eigenvalues_3x3.calls": calls("spectra.eigenvalues_3x3"),
        "spectra.eigenvalues_3x3.busy_ms": busy_ms("spectra.eigenvalues_3x3"),
        "spectra.track_branches.busy_ms": busy_ms("spectra.track_branches"),
        "spectra.sweep_eigenvalues.self_ms": self_ms("spectra.sweep_eigenvalues"),
        "spectra.ambiguous_steps": float(data["size"][mask("spectra.sweep_eigenvalues")].sum()) / n_tasks,
        "spectra.find_exceptional_point.busy_ms": busy_ms("spectra.find_exceptional_point"),
        "spectra.ep_evals_per_search": ratio(data["params"][ep].sum(), ep.sum()),
        "response.spincurrent_spectrum.busy_ms": busy_ms("response.spincurrent_spectrum"),
        "response.spincurrent_spectrum.self_ms": self_ms("response.spincurrent_spectrum"),
        "response.solves_per_point": ratio(data["solves"][response_entries].sum(), data["points"][response_entries].sum()),
        "response.steady_state.calls": calls("response.steady_state"),
        "response.steady_state.busy_ms": busy_ms("response.steady_state"),
        "response.reflection_transmission.calls": calls("response.reflection_transmission"),
        "response.reflection_transmission.busy_ms": busy_ms("response.reflection_transmission"),
        "dynamics.integrate_full.busy_ms": busy_ms("dynamics.integrate_full"),
        "dynamics.integrate_adiabatic.busy_ms": busy_ms("dynamics.integrate_adiabatic"),
        "dynamics.adiabatic_validity_report.self_ms": self_ms("dynamics.adiabatic_validity_report"),
        "dynamics.steps": float(steps) / n_tasks,
        "dynamics.ns_per_step": ratio(dur[integrations].sum(), steps),
        "dynamics.rejected": float(data["err"][integrations].sum()) / n_tasks,
        "dynamics.states_bytes": float(data["nbytes"][integrations].sum()) / n_tasks,
    }


# -- import breakdown ---------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


def import_breakdown(stderr: str) -> dict[str, float]:
    """import.* metrics (ms) from ``python -X importtime -c 'import cavitymagnons'``.

    numpy_ms counts numpy modules not imported from inside numpy or scipy;
    scipy_ms counts scipy modules not imported from inside scipy, including
    whatever they pull in.  total_ms is the cumulative time of the package.
    """
    rows = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            rows.append((int(match[1]), int(match[2]), len(match[3]) // 2, match[4]))
    # Output is post-order: a module's ancestors are the later rows of lower depth.
    ancestors: list[tuple[int, str]] = []
    result = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "self": 0.0}
    for self_us, cum_us, depth, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        above = {a.split(".")[0] for _, a in ancestors}
        top = name.split(".")[0]
        if name == "cavitymagnons" and not ancestors:
            result["total"] += cum_us
        if top == "cavitymagnons":
            result["self"] += self_us
        if top == "numpy" and not above & {"numpy", "scipy"}:
            result["numpy"] += cum_us
        if top == "scipy" and "scipy" not in above:
            result["scipy"] += cum_us
        ancestors.append((depth, name))
    return {
        "import.total_ms": result["total"] / 1e3,
        "import.numpy_ms": result["numpy"] / 1e3,
        "import.scipy_ms": result["scipy"] / 1e3,
        "import.cavitymagnons_self_ms": result["self"] / 1e3,
    }
