"""Grammar fuzz test: every config the grammar can express ends in exit 0, 1 or 2.

Configs are drawn from the sections and keys of the grammar table
`cli.GRAMMAR`, with a typical value per field (every mode, both EP models,
both drive routes, extreme finite floats, counts on both sides of the
sweep-point and step budgets), and run through `python -m cavitymagnons`.
One child process under a time limit and a 2 GB address space runs a whole
batch of them, each in a fresh warning-filter state as a new process would
have.
"""

import json
import resource
import subprocess
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavitymagnons.cli import FORMATS, GRAMMAR, MAX_SWEEP_POINTS, MODES
from cavitymagnons.dynamics import MAX_STEPS

from conftest import couplings, kappas, rates, splittings

# Runs each config of the JSON list on stdin as `python -m cavitymagnons
# --config`, writing outputs to its own directory under argv[1], and prints one
# JSON record per config: exit code, stdout, stderr and the files written.
CHILD = r"""
import contextlib, io, json, os, runpy, sys, traceback, warnings

out_root, results = sys.argv[1], []
for i, text in enumerate(json.load(sys.stdin)):
    out_dir = os.path.join(out_root, str(i))
    os.mkdir(out_dir)
    config_path = os.path.join(out_dir, "run.cfg")
    with open(config_path, "w", encoding="utf-8") as handle:
        handle.write(text.replace("@OUT@", os.path.join(out_dir, "out.csv")))
    sys.argv = ["cavitymagnons", "--config", config_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            runpy.run_module("cavitymagnons", run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    written = sorted(set(os.listdir(out_dir)) - {"run.cfg"})
    results.append({"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "written": written})
json.dump(results, sys.__stdout__)
"""

_EXTREMES = (0.0, 5e-324, 1e-320, 1e-300, 1e-10, 1.0, 1e10, 1e150, 1e200, 1e300, 1.7976931348623157e308)
_JUNK = ("nan", "inf", "-inf", "1e999", "abc", "0x10")


@st.composite
def _number(draw, typical):
    """As config text: in seven draws of ten a typical value, else an extreme
    of either sign or any finite float."""
    kind = draw(st.integers(0, 9))
    if kind < 7:
        value = draw(typical)
    elif kind < 9:
        value = draw(st.sampled_from(_EXTREMES)) * (-1.0 if kind == 8 else 1.0)
    else:
        value = draw(st.floats(allow_nan=False, allow_infinity=False))
    return repr(value)


@st.composite
def _count(draw, typical, limit):
    """In three draws of four a typical count, else one beyond the limit or below 2."""
    kind = draw(st.integers(0, 3))
    if kind < 3:
        return draw(typical)
    return draw(st.one_of(st.integers(limit + 1, 10**15), st.integers(-3, 1)))


def _optional(strategy):
    """The strategy's text, or None (the key is left out)."""
    return st.one_of(st.none(), strategy)


@st.composite
def _typical_texts(draw, mode):
    """Config text per grammar field for one run of `mode`; None leaves the key out."""
    route = draw(st.sampled_from(("amplitude", "power", None)))
    dt = draw(_optional(_number(st.floats(1e-3, 0.1))))
    if dt is not None and draw(st.booleans()):
        # t_end/dt steps, rounded: a count on either side of the budget.
        t_end = repr(float(dt) * draw(_count(st.integers(1, 2000), MAX_STEPS)))
    else:
        t_end = draw(_optional(_number(st.floats(0.1, 100.0))))
    return {
        ("run", "mode"): mode,
        ("system", "kappa"): draw(_optional(_number(kappas))),
        ("system", "gamma1"): draw(_optional(_number(rates))),
        ("system", "gamma2"): draw(_optional(_number(rates))),
        ("system", "g1"): draw(_optional(_number(couplings))),
        ("system", "g2"): draw(_optional(_number(couplings))),
        ("system", "s"): draw(_optional(_number(splittings))),
        ("sweep", "variable"): draw(_optional(st.just(MODES[mode].sweep))),
        ("sweep", "min"): draw(_number(st.floats(-1.0, -0.01))),
        ("sweep", "max"): draw(_number(st.floats(0.01, 1.0))),
        ("sweep", "points"): str(draw(_count(st.integers(2, 300), MAX_SWEEP_POINTS))),
        ("drive", "amplitude"): draw(_number(st.floats(0.0, 2.0))) if route == "amplitude" else None,
        ("drive", "power"): draw(_number(st.floats(0.0, 1e-3))) if route == "power" else None,
        ("drive", "frequency"): draw(_number(st.floats(1e9, 1e11))) if route == "power" else None,
        ("dynamics", "t_end"): t_end,
        ("dynamics", "dt"): dt,
        ("dynamics", "delta"): draw(_optional(_number(st.floats(-1.0, 1.0)))),
        ("ep", "model"): draw(st.sampled_from(("adiabatic", "full"))),
        ("si", "kappa_hz"): draw(_optional(_number(st.floats(1e3, 1e9)))),
        ("output", "path"): "@OUT@",
        ("output", "format"): draw(st.sampled_from(FORMATS)),
    }


@st.composite
def config_texts(draw):
    """A config for a drawn mode: every section and key the grammar lets it carry."""
    mode = draw(st.sampled_from(tuple(MODES)))
    texts = draw(_typical_texts(mode))
    fields = {(section, key) for section, (_, keys) in GRAMMAR.items() for key in keys}
    assert texts.keys() == fields, f"typical values and grammar fields differ: {texts.keys() ^ fields}"
    sections = {}
    for section, (modes, keys) in GRAMMAR.items():
        given = {key: texts[section, key] for key in keys if texts[section, key] is not None}
        if mode in modes and given:
            sections[section] = given
    # One value in ten is not a finite number.
    others = sorted(name for name in sections if name not in ("run", "output"))
    if others and draw(st.integers(0, 9)) == 9:
        section = draw(st.sampled_from(others))
        key = draw(st.sampled_from(sorted(sections[section])))
        sections[section][key] = draw(st.sampled_from(_JUNK))
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


def _power_config(power, frequency):
    return (f"[run]\nmode = dynamics\n[drive]\npower = {power}\nfrequency = {frequency}\n"
            "[output]\npath = @OUT@\nformat = both\n")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))


@settings(max_examples=6, deadline=None)
@given(st.lists(config_texts(), min_size=50, max_size=50))
@example([_power_config("1e300", "1e-300"), _power_config("0", "1e-320"), _power_config("1e300", "1e-10")])
def test_every_drawn_config_ends_in_a_documented_exit(tmp_path_factory, configs):
    out_root = tmp_path_factory.mktemp("fuzz")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(out_root)],
        input=json.dumps(configs), capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 0, proc.stderr
    for text, result in zip(configs, json.loads(proc.stdout), strict=True):
        code, stdout, stderr, written = result["code"], result["stdout"], result["stderr"], result["written"]
        assert code in (0, 1, 2), text
        assert "Traceback" not in stderr, text + stderr
        if code == 0:
            assert stderr == "", text + stderr
            assert written and len(stdout.splitlines()) == len(written), text
        else:
            assert len(stderr.splitlines()) == 1 and stderr.endswith("\n"), text + stderr
            assert stderr.startswith("config error: " if code == 1 else "numerical error: "), text + stderr
            assert stdout == "" and written == [], text
