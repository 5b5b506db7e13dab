"""Entry point of ``python -m mobiusq`` and of the installed ``mobiusq`` script.

Both run :func:`mobiusq.cli.main` as a program: OpenBLAS defaults to one
thread before numpy loads (:func:`default_one_blas_thread`), and once the
command returns, the heap is frozen for the exit (:func:`freeze_for_exit`).
``python -m mobiusq.cli`` takes the same two steps.  ``cli.main`` called as
a library takes neither.
"""
from __future__ import annotations

import gc
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


def freeze_for_exit(code: int) -> int:
    """Move every object the collector tracks to its permanent generation; return ``code``.

    Call it only when the process is about to exit.  Interpreter teardown
    runs the cyclic collector over every tracked object, some 22k of them
    once numpy is loaded, for about 20 ms, and those passes free next to
    nothing: the only cyclic garbage a run leaves is its argument parser.
    Frozen objects are skipped by those passes.  Nothing else changes: the
    collector ran as usual during the command, every output file is closed
    before the command returns, and atexit handlers and the stdio flush
    still run.
    """
    gc.freeze()
    return code


def main() -> int:
    default_one_blas_thread()
    from .cli import main as cli_main

    return freeze_for_exit(cli_main())


if __name__ == "__main__":
    sys.exit(main())
