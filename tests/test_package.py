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


@pytest.mark.parametrize("threads,expected", [(None, "1"), ("2", "2")])
def test_the_module_entry_sets_the_default_before_numpy_loads(threads, expected):
    # The spy records the variable when numpy is first imported; a bad flag
    # then ends the run with a config error.
    script = (
        "import os, runpy, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "sys.argv = ['cavitymagnons', '--format', 'nope']\n"
        "try:\n"
        "    runpy.run_module('cavitymagnons', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, *seen)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env(threads),
                          timeout=60)
    assert proc.stdout.split() == ["1", expected], proc.stderr


def test_console_script_and_scripts_set_the_default_before_the_cli_loads():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"cavity-magnons": "cavitymagnons.entry:main"}
    assert len(SCRIPTS) == 3
    for path in SCRIPTS:
        body = ast.parse(path.read_text()).body
        calls = [i for i, node in enumerate(body) if isinstance(node, ast.Expr)
                 and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", "") == "default_to_one_blas_thread"]
        cli = [i for i, node in enumerate(body) if isinstance(node, ast.ImportFrom) and node.module == "cavitymagnons.cli"]
        assert len(calls) == 1 and len(cli) == 1 and calls[0] < cli[0], path.name


def test_script_outputs_do_not_depend_on_blas_threads(tmp_path):
    outputs = []
    for threads in (None, "2"):
        workdir = tmp_path / (threads or "unset")
        workdir.mkdir()
        for path in SCRIPTS:
            proc = subprocess.run([sys.executable, str(path), "--outdir", "out"], cwd=workdir, capture_output=True,
                                  text=True, env=child_env(threads), timeout=120)
            assert proc.returncode == 0, proc.stderr
        outputs.append({f.name: f.read_bytes() for f in sorted((workdir / "out").iterdir())})
    assert len(outputs[0]) == 28
    assert outputs[0] == outputs[1]
