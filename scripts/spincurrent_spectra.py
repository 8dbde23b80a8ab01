#!/usr/bin/env python3
"""Generate driven spincurrent spectra |m1|^2 + |m2|^2 versus drive detuning
for five magnon splittings in each regime.

Strong coupling (g = 2, gamma_i = kappa): three peaks that merge to two at
s = 0, where the dark mode extinguishes the central resonance.  Bad cavity
(g = 0.2, gamma_i = 0.01): the magnon peaks attract and coalesce."""

import argparse
from pathlib import Path

from cavitymagnons.entry import default_to_one_blas_thread

default_to_one_blas_thread()  # before cavitymagnons.cli loads numpy

from cavitymagnons.cli import parse_config, run  # noqa: E402

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
min = {lo}
max = {hi}
points = 601

[drive]
amplitude = 1

[output]
path = {path}
format = both
"""

PANELS = {
    "strong": {"gamma": 1.0, "g": 2.0, "lo": -6.0, "hi": 6.0,
               "splittings": (-2.0, -1.0, 0.0, 1.0, 2.0)},
    "weak": {"gamma": 0.01, "g": 0.2, "lo": -0.3, "hi": 0.3,
             "splittings": (-0.08, -0.04, 0.0, 0.04, 0.08)},
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for regime, panel in PANELS.items():
        for s in panel["splittings"]:
            tag = f"spincurrent_{regime}_s{s:+.2f}".replace("+", "p").replace("-", "m").replace(".", "")
            config = parse_config(TEMPLATE.format(
                gamma=panel["gamma"], g=panel["g"], s=s,
                lo=panel["lo"], hi=panel["hi"], path=outdir / f"{tag}.csv",
            ))
            for path in run(config):
                print(path)


if __name__ == "__main__":
    main()
