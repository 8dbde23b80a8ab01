#!/usr/bin/env python3
"""Generate the eigenvalue-sweep data behind the level-repulsion and
level-attraction diagrams: tracked branches versus magnon splitting for the
strong-coupling regime (g = 2, gamma_i = 1) and the bad-cavity regime
(g = 0.2, gamma_i = 0.01), all in units of kappa.

Writes CSV tables plus JSON sidecars with the detected gap minima."""

import argparse
from pathlib import Path

from cavitymagnons.entry import default_to_one_blas_thread

default_to_one_blas_thread()  # before cavitymagnons.cli loads numpy

from cavitymagnons.cli import parse_config, run  # noqa: E402

REPULSION = """\
[run]
mode = eig-sweep

[system]
gamma1 = 1
gamma2 = 1
g1 = 2
g2 = 2

[sweep]
variable = s
min = -6
max = 6
points = 481

[output]
path = {path}
format = both
"""

ATTRACTION = """\
[run]
mode = eig-sweep

[system]
gamma1 = 0.01
gamma2 = 0.01
g1 = 0.2
g2 = 0.2

[sweep]
variable = s
min = -0.2
max = 0.2
points = 481

[output]
path = {path}
format = both
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, template in (("level_repulsion", REPULSION), ("level_attraction", ATTRACTION)):
        config = parse_config(template.format(path=outdir / f"{name}.csv"))
        for path in run(config):
            print(path)


if __name__ == "__main__":
    main()
