"""Entry point of ``python -m mobiusq`` and of the installed ``mobiusq`` script.

Both run :func:`mobiusq.cli.main` with OpenBLAS defaulted to one thread; see
:func:`default_one_blas_thread`.
"""
from __future__ import annotations

import os
import sys


def default_one_blas_thread() -> None:
    """Default OPENBLAS_NUM_THREADS to 1, keeping any value the caller set.

    OpenBLAS reads the variable once, when numpy first loads, so this must
    run before that.  A CLI run is serial and its reductions are exact
    Python sums, so a BLAS thread pool has nothing to parallelise, while its
    idle workers spin and cost CPU time as numpy loads.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def main() -> int:
    default_one_blas_thread()
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
