#!/usr/bin/env python3
"""Generate the reflection spectra showing the dissipative-coupling-induced
transmission window in the bad-cavity regime (g = 0.2, kappa = 1).

Two parameter sets: lossless magnons at s = 0.01 (perfect transparency at
zero detuning, dip width ~ s^2 kappa/g^2) and gamma = 0.01 at the coalescence
point s = g^2/kappa = 0.04 (a partial window with |r(0)|^2 ~ 0.10)."""

import argparse
from pathlib import Path

from cavitymagnons.entry import default_to_one_blas_thread

default_to_one_blas_thread()  # before cavitymagnons.cli loads numpy

from cavitymagnons.cli import parse_config, run  # noqa: E402

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

[output]
path = {path}
format = both
"""

CASES = (
    ("reflection_lossless_s001", 0.0, 0.01),
    ("reflection_damped_s004", 0.01, 0.04),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, gamma, s in CASES:
        config = parse_config(TEMPLATE.format(gamma=gamma, s=s, path=outdir / f"{name}.csv"))
        for path in run(config):
            print(path)


if __name__ == "__main__":
    main()
