"""tools/compare_outputs.py reports each differing CSV column with its max abs and rel diff."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

OLD = "# schema=1\ns,re_l0,im_l0\n-0.5,1.0,-2.0\n0,0.25,0\n0.5,-4.0,8.0\n"


def test_identical_text_has_no_diffs():
    assert compare_outputs.csv_diffs(OLD, OLD) == []


def test_each_differing_column_is_named_with_its_worst_diffs():
    new = "# schema=1\ns,re_l0,im_l0\n-0.5,1.5,-2.0\n0,0.25,1e-3\n0.5,-4.5,8.0\n"
    assert compare_outputs.csv_diffs(OLD, new) == [
        "re_l0: max abs diff 0.5, max rel diff 0.333",
        "im_l0: max abs diff 0.001, max rel diff 1",
    ]


def test_a_changed_header_or_row_count_is_one_line():
    for new in (OLD.replace("im_l0", "im_lp"), OLD + "1,2,3\n"):
        diffs = compare_outputs.csv_diffs(OLD, new)
        assert len(diffs) == 1 and diffs[0].startswith("schema, header or row count differs"), diffs
