"""The `uen` console command, also run as `python -m uen`.

BLAS reads its thread count once, when numpy loads it. With the default
(one thread per core), the GNN's small batched products slow many times
over when another process keeps a core busy, so the command runs BLAS on
one thread unless the caller set a count. This module imports nothing
that imports numpy before it sets the variables.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Set each BLAS thread-count variable to 1 where the caller left it unset."""
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")


def main(argv=None) -> int:
    cap_blas_threads()
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
