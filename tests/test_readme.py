"""The README's library quick start runs and gives the results its comments state."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_gives_its_commented_results():
    block = quick_start_block()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    stated = {}
    for line in block.splitlines():
        code, _, result = line.partition("# ->")
        if result:
            stated[code.strip()] = result.strip()
    assert stated == {
        "find_exceptional_point(weak, 0.02, 0.06)": "location 0.04 (reduced pair)",
        "reflection_transmission(weak, DriveParams(delta=0.0))": "(r, t) = (-0.32, 0.68)",
    }
    # Each stated value to the printed digits.
    point = eval("find_exceptional_point(weak, 0.02, 0.06)", namespace)
    assert point.location == pytest.approx(0.04, abs=5e-3)
    r, t = eval("reflection_transmission(weak, DriveParams(delta=0.0))", namespace)
    assert r == pytest.approx(-0.32, abs=5e-3)
    assert t == pytest.approx(0.68, abs=5e-3)
