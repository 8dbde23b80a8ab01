#!/usr/bin/env python3
"""Generate the reflection spectra showing the dissipative-coupling-induced
transmission window in the bad-cavity regime (g = 0.2, kappa = 1).

Two parameter sets: lossless magnons at s = 0.01 (perfect transparency at
zero detuning, dip width ~ s^2 kappa/g^2) and gamma = 0.01 at the coalescence
point s = g^2/kappa = 0.04 (a partial window with |r(0)|^2 ~ 0.10)."""

import sys

from cavitymagnons.entry import run_figure_configs

TEMPLATE = """\
[run]
mode = reflection-sweep

[system]
gamma1 = {gamma}
gamma2 = {gamma}
g1 = 0.2
g2 = 0.2
s = {s}

[sweep]
variable = delta
min = -0.3
max = 0.3
points = 1201
"""

CASES = {
    "reflection_lossless_s001": {"gamma": 0.0, "s": 0.01},
    "reflection_damped_s004": {"gamma": 0.01, "s": 0.04},
}

if __name__ == "__main__":
    sys.exit(run_figure_configs(__doc__, {name: TEMPLATE.format(**case) for name, case in CASES.items()}))
