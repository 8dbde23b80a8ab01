"""The `cavity-magnons` command, and the BLAS default of every entry point.

A cold process on a small host pays tens of milliseconds to start OpenBLAS's
worker threads, which the package's small products never need.  The command,
`python -m cavitymagnons` and the scripts ask for one thread before numpy
loads; the library itself leaves its user's environment alone.
"""

import os


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
