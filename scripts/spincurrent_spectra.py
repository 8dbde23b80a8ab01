#!/usr/bin/env python3
"""Generate driven spincurrent spectra |m1|^2 + |m2|^2 versus drive detuning
for five magnon splittings in each regime.

Strong coupling (g = 2, gamma_i = kappa): three peaks that merge to two at
s = 0, where the dark mode extinguishes the central resonance.  Bad cavity
(g = 0.2, gamma_i = 0.01): the magnon peaks attract and coalesce."""

import sys

from cavitymagnons.entry import run_figure_configs

TEMPLATE = """\
[run]
mode = response-sweep

[system]
gamma1 = {gamma}
gamma2 = {gamma}
g1 = {g}
g2 = {g}
s = {s}

[sweep]
variable = delta
min = -{span}
max = {span}
points = 601

[drive]
amplitude = 1
"""

PANELS = {
    "strong": {"gamma": 1.0, "g": 2.0, "span": 6.0, "splittings": (-2.0, -1.0, 0.0, 1.0, 2.0)},
    "weak": {"gamma": 0.01, "g": 0.2, "span": 0.3, "splittings": (-0.08, -0.04, 0.0, 0.04, 0.08)},
}


def tag(regime: str, s: float) -> str:
    return f"spincurrent_{regime}_s{s:+.2f}".replace("+", "p").replace("-", "m").replace(".", "")


if __name__ == "__main__":
    sys.exit(run_figure_configs(__doc__, {
        tag(regime, s): TEMPLATE.format(gamma=panel["gamma"], g=panel["g"], s=s, span=panel["span"])
        for regime, panel in PANELS.items() for s in panel["splittings"]
    }))
