#!/usr/bin/env python3
"""Generate the eigenvalue-sweep data behind the level-repulsion and
level-attraction diagrams: tracked branches versus magnon splitting for the
strong-coupling regime (g = 2, gamma_i = 1) and the bad-cavity regime
(g = 0.2, gamma_i = 0.01), all in units of kappa.

Writes CSV tables plus JSON sidecars with the detected gap minima."""

import sys

from cavitymagnons.entry import run_figure_configs

TEMPLATE = """\
[run]
mode = eig-sweep

[system]
gamma1 = {gamma}
gamma2 = {gamma}
g1 = {g}
g2 = {g}

[sweep]
variable = s
min = -{span}
max = {span}
points = 481
"""

CASES = {
    "level_repulsion": {"gamma": 1, "g": 2, "span": 6},
    "level_attraction": {"gamma": 0.01, "g": 0.2, "span": 0.2},
}

if __name__ == "__main__":
    sys.exit(run_figure_configs(__doc__, {name: TEMPLATE.format(**case) for name, case in CASES.items()}))
