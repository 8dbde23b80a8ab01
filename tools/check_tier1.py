#!/usr/bin/env python3
"""Run the tier-1 test command and accept only the three documented failures.

Tier-1 is `python -m pytest -q --continue-on-collection-errors` from the repo
root with src/ on PYTHONPATH.  Three acceptance checks (4a, 5b, 9b) assert
idealized bounds that the exact model exceeds, and they fail by design (see
README, "Tests and acceptance suite").  This script runs that command as it
is, with the short summary of failures and errors on, and exits 0 only when
the failing tests are exactly those three.  It prints every other failure or
error and each of the three that no longer fails, and exits 1.  It selects,
skips and marks nothing.

Usage: python tools/check_tier1.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTED = (
    "tests/test_acceptance.py::test_04a_weak_coupling_pointwise_five_percent",
    "tests/test_acceptance.py::test_05b_split_spectrum_peak_positions",
    "tests/test_acceptance.py::test_09b_adiabatic_eigenvalue_match",
)
# pytest's short summary: "FAILED <node id>" or "ERROR <node id>", then " - <message>".
SUMMARY = re.compile(r"^(FAILED|ERROR) (.+)$")


def classify(output: str) -> tuple[list[str], list[str]]:
    """(summary lines of failures that are not documented, documented ids that did not fail)."""
    unexpected, seen = [], set()
    for line in output.splitlines():
        match = SUMMARY.match(line)
        if not match:
            continue
        kind, rest = match.groups()
        known = next((i for i in DOCUMENTED if rest == i or rest.startswith(i + " - ")), None)
        if kind == "FAILED" and known is not None:
            seen.add(known)
        else:
            unexpected.append(line)
    return unexpected, [i for i in DOCUMENTED if i not in seen]


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-rfE"]
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    output = result.stdout + result.stderr
    unexpected, passing = classify(output)
    totals = [line for line in output.splitlines() if re.match(r"^=*\s*\d+ \w+.* in [\d.]+s", line)]
    print(totals[-1].strip("= ") if totals else "no test totals")
    for line in unexpected:
        print(f"unexpected: {line}")
    for node in passing:
        print(f"no longer fails: {node}")
    if result.returncode not in (0, 1):  # interrupted, internal or usage error, or no tests collected
        print(output[-2000:])
        print(f"pytest exited with code {result.returncode}")
    return 0 if result.returncode == 1 and not unexpected and not passing else 1


if __name__ == "__main__":
    sys.exit(main())
