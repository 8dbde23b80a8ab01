"""The package's import surface and its declared dependencies."""

import ast
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cavitymagnons"


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
