"""The `cavity-magnons` command, the experiment scripts' driver, and the BLAS
default of every entry point.

A cold process on a small host pays tens of milliseconds to start OpenBLAS's
worker threads, which the package's small products never need.  The command,
`python -m cavitymagnons` and the scripts ask for one thread before numpy
loads; the library itself leaves its user's environment alone.  Each script
under `scripts/` holds only its config table and hands it to
`run_figure_configs`.
"""

import argparse
import os
import sys
from pathlib import Path


def default_to_one_blas_thread() -> None:
    """Set OPENBLAS_NUM_THREADS=1 unless the environment already names a thread count.

    OpenBLAS reads OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS,
    once, when numpy loads it, and treats an empty value as unset; so does
    this rule.  Call it before the first import of numpy.
    """
    if not any(os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main() -> int:
    default_to_one_blas_thread()
    from .cli import main as cli_main

    return cli_main()


def run_figure_configs(description: str, configs: dict[str, str]) -> int:
    """Run an experiment script: config `name` writes `<outdir>/<name>.csv` and its JSON sidecar.

    `--outdir` (default `results`) is the only option.  Each config text gets
    an `[output]` block with its path, and every config is parsed before the
    directory is made.  An outdir that the config grammar would not carry
    unchanged (a ` #` comment, surrounding spaces, a control character) is
    refused with one `config error:` line and exit code 1, and nothing is
    created or written.  Otherwise the configs run in order, each written
    path is printed, and the exit code is 0.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--outdir", default="results", help="output directory")
    given = parser.parse_args().outdir
    outdir = Path(given)
    default_to_one_blas_thread()
    from .cli import ConfigError, parse_config, run

    parsed = []
    for name, text in configs.items():
        path = str(outdir / f"{name}.csv")
        try:
            config = parse_config(f"{text}\n[output]\npath = {path}\n")
        except ConfigError:
            config = None
        if config is None or config.output_path != path:
            print(f"config error: --outdir: not a valid config value: {given!r}", file=sys.stderr)
            return 1
        parsed.append(config)
    outdir.mkdir(parents=True, exist_ok=True)
    for config in parsed:
        for path in run(config):
            print(path)
    return 0
