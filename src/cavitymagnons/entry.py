"""The `cavity-magnons` command, the experiment scripts' driver, and the BLAS
default of every entry point.

A cold process on a small host pays tens of milliseconds to start OpenBLAS's
worker threads, which the package's small products never need.  The command,
`python -m cavitymagnons` and the scripts ask for one thread before numpy
loads; the library itself leaves its user's environment alone.  Each script
under `scripts/` holds only its config table and hands it to
`run_figure_configs`, a thin caller of `cavitymagnons.cli`: the command line,
the output-path check, the exit codes and every printed line are the CLI's.
"""

import os
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
    refused, and nothing is created or written.  The configs then run in
    order; the command line's exit codes and diagnostics are the CLI's.
    """
    default_to_one_blas_thread()
    from . import cli

    def configs_under_outdir() -> list:
        parser = cli._ArgumentParser(description=description)
        parser.add_argument("--outdir", default="results", help="output directory")
        outdir = parser.parse_args().outdir
        paths = {name: str(Path(outdir, f"{name}.csv")) for name in configs}
        parsed = [cli._parse_carried(f"{text}\n[output]\npath = {paths[name]}\n", paths[name], "--outdir", outdir)
                  for name, text in configs.items()]
        try:
            Path(outdir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise cli.ConfigError("--outdir", str(exc)) from None
        return parsed

    return cli._run_configs(configs_under_outdir)
