"""The package's import surface and its declared dependencies."""

import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from cavitymagnons.entry import default_to_one_blas_thread

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cavitymagnons"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# The thread-count variables that OpenBLAS reads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_no_submodule_and_no_numpy():
    out = run_python(
        "import sys, cavitymagnons\n"
        "for name in ('numpy', 'scipy', 'cavitymagnons.cli', 'cavitymagnons.closed_forms'):\n"
        "    print(name, name in sys.modules)\n"
    )
    assert out.splitlines() == [
        "numpy False", "scipy False", "cavitymagnons.cli False", "cavitymagnons.closed_forms False",
    ]


def test_each_export_is_its_home_modules_object():
    out = run_python(
        "import importlib, cavitymagnons\n"
        "for name in cavitymagnons.__all__:\n"
        "    home = importlib.import_module('cavitymagnons.' + cavitymagnons._HOME[name])\n"
        "    assert getattr(cavitymagnons, name) is getattr(home, name), name\n"
        "    assert getattr(cavitymagnons, name) is vars(cavitymagnons)[name], name\n"
        "print(len(cavitymagnons.__all__), cavitymagnons.__all__ == sorted(cavitymagnons.__all__))\n"
    )
    assert out.split() == ["28", "True"]


def test_submodules_resolve_and_unknown_names_raise():
    out = run_python(
        "import cavitymagnons\n"
        "print(cavitymagnons.spectra.__name__)\n"
        "print(set(cavitymagnons.__all__) <= set(dir(cavitymagnons)), 'spectra' in dir(cavitymagnons))\n"
        "try:\n"
        "    cavitymagnons.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out.splitlines() == [
        "cavitymagnons.spectra", "True True", "module 'cavitymagnons' has no attribute 'nope'",
    ]


def test_numpy_is_the_only_runtime_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [spec.split(">")[0] for spec in project["dependencies"]] == ["numpy"]
    test_extra = {spec.split(">")[0] for spec in project["optional-dependencies"]["test"]}
    assert test_extra >= {"scipy", "pytest", "hypothesis"}
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "closed_forms.py":  # the test oracles may use the test extra
            continue
        text = path.read_text()
        assert "scipy" not in text, path.name
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"cavitymagnons"} == {"numpy"}


@pytest.mark.parametrize("environ,expected", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": ""}, "1"),
    ({"OMP_NUM_THREADS": ""}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"OMP_NUM_THREADS": "2"}, None),
    ({"GOTO_NUM_THREADS": "2"}, None),
])
def test_one_blas_thread_unless_the_environment_names_a_count(monkeypatch, environ, expected):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    default_to_one_blas_thread()
    assert os.environ.get("OPENBLAS_NUM_THREADS") == expected
    for name in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        assert os.environ.get(name) == environ.get(name)


def child_env(threads) -> dict:
    """This environment without the BLAS thread variables, plus OPENBLAS_NUM_THREADS=threads unless None."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


# Runs the statement {run}, then prints its exit code and what OPENBLAS_NUM_THREADS
# was when numpy was first imported.
NUMPY_SPY = """\
import os, runpy, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == 'numpy' and not seen:
            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))
sys.meta_path.insert(0, Spy())
code = 0
try:
    {run}
except SystemExit as exc:
    code = exc.code
print(code, *seen)
"""


def spy_run(run: str, threads, cwd=None) -> list[str]:
    """[exit code, value seen when numpy loaded] of the statement `run` under the numpy spy."""
    proc = subprocess.run([sys.executable, "-c", NUMPY_SPY.format(run=run)], capture_output=True, text=True,
                          env=child_env(threads), cwd=cwd, timeout=120)
    lines = proc.stdout.splitlines()
    return lines[-1].split() if lines else [proc.stderr]


@pytest.mark.parametrize("threads,expected", [(None, "1"), ("2", "2")])
def test_the_module_entry_sets_the_default_before_numpy_loads(threads, expected):
    # A bad flag ends the run with a config error once numpy has loaded.
    run = "sys.argv = ['cavitymagnons', '--format', 'nope']; runpy.run_module('cavitymagnons', run_name='__main__')"
    assert spy_run(run, threads) == ["1", expected]


def test_console_script_and_scripts_set_the_default_before_the_cli_loads(tmp_path):
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"cavity-magnons": "cavitymagnons.entry:main"}
    assert len(SCRIPTS) == 3
    for path in SCRIPTS:
        for threads, expected in ((None, "1"), ("2", "2")):
            run = f"sys.argv = [{str(path)!r}, '--outdir', 'out']; runpy.run_path({str(path)!r}, run_name='__main__')"
            assert spy_run(run, threads, cwd=tmp_path) == ["0", expected], (path.name, threads)


def test_script_outputs_do_not_depend_on_blas_threads(tmp_path):
    outputs = []
    for threads in (None, "2"):
        workdir = tmp_path / (threads or "unset")
        workdir.mkdir()
        for path in SCRIPTS:
            before = set((workdir / "out").glob("*"))
            proc = subprocess.run([sys.executable, str(path), "--outdir", "out"], cwd=workdir, capture_output=True,
                                  text=True, env=child_env(threads), timeout=120)
            assert proc.returncode == 0, proc.stderr
            # Each written file is printed once, as its path under --outdir.
            written = set((workdir / "out").glob("*")) - before
            assert sorted(proc.stdout.splitlines()) == sorted(str(f.relative_to(workdir)) for f in written), path.name
        outputs.append({f.name: f.read_bytes() for f in sorted((workdir / "out").iterdir())})
    assert len(outputs[0]) == 28
    assert outputs[0] == outputs[1]


REFLECTION_SCRIPT = ROOT / "scripts" / "reflection_windows.py"


EP_OUT_OF_BRACKET = ("from cavitymagnons.entry import run_figure_configs\n"
                     "raise SystemExit(run_figure_configs('', {'ep': '[run]\\nmode = ep-find\\n"
                     "[sweep]\\nmin = 1000\\nmax = 1001\\npoints = 11\\n'}))\n")


@pytest.mark.parametrize("argv,made,code,stderr,left", [
    # (arguments after the interpreter, paths made beforehand (a trailing / is a directory), exit code,
    # the start of the one stderr line, every path under the working directory afterwards)
    *[([str(REFLECTION_SCRIPT), "--outdir", outdir], [], 1,
       f"config error: --outdir: not a valid config value: {outdir!r}\n", [])
      for outdir in ["figs #1", " lead", "a\nb"]],
    ([str(REFLECTION_SCRIPT), "--bogus"], [], 1, "config error: command line: unrecognized arguments: --bogus\n", []),
    ([str(REFLECTION_SCRIPT), "--outdir", "afile"], ["afile"], 1,
     "config error: --outdir: [Errno 17] File exists: 'afile'\n", ["afile"]),
    ([str(REFLECTION_SCRIPT), "--outdir", "out"], ["out/reflection_lossless_s001.csv/"], 1,
     "config error: output.path: [Errno 21] Is a directory: 'out/reflection_lossless_s001.csv'\n",
     ["out/", "out/reflection_lossless_s001.csv/"]),
    # The CSV could be written but the JSON could not: the run leaves no CSV without its sidecar.
    ([str(REFLECTION_SCRIPT), "--outdir", "out"], ["out/reflection_lossless_s001.json/"], 1,
     "config error: output.path: [Errno 21] Is a directory: 'out/reflection_lossless_s001.json'\n",
     ["out/", "out/reflection_lossless_s001.json/"]),
    (["-c", EP_OUT_OF_BRACKET, "--outdir", "out"], [], 2, "numerical error: no coalescence in [1000.0, 1001.0]: ",
     ["out/"]),
], ids=["figs #1", " lead", "a\nb", "unknown-flag", "outdir-is-a-file", "output-is-a-directory",
        "json-is-a-directory", "numerical-failure"])
def test_a_script_refuses_an_outdir_the_config_grammar_cannot_carry(tmp_path, argv, made, code, stderr, left):
    for name in made:
        if name.endswith("/"):
            (tmp_path / name).mkdir(parents=True)
        else:
            (tmp_path / name).write_text("")
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True,
                          env=child_env(None), timeout=120)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(stderr) and proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert sorted(f"{f.relative_to(tmp_path)}{'/' * f.is_dir()}" for f in tmp_path.rglob("*")) == left


def test_a_script_help_exits_0(tmp_path):
    proc = subprocess.run([sys.executable, str(REFLECTION_SCRIPT), "--help"], cwd=tmp_path, capture_output=True,
                          text=True, env=child_env(None), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "--outdir" in proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_a_script_writes_into_an_outdir_with_a_space(tmp_path):
    proc = subprocess.run([sys.executable, str(REFLECTION_SCRIPT), "--outdir", "ok dir"], cwd=tmp_path,
                          capture_output=True, text=True, env=child_env(None), timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = [f"{case}.{suffix}" for case in ("reflection_lossless_s001", "reflection_damped_s004")
             for suffix in ("csv", "json")]
    assert proc.stdout.splitlines() == [f"ok dir/{name}" for name in names]
    assert sorted(f.name for f in (tmp_path / "ok dir").iterdir()) == sorted(names)
