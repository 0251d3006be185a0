"""The one entry point of the command line: `collspec ...` (the console
script) and `python -m collspec ...` both start in `main` here.

Start-up pins BLAS (no command makes a BLAS call that would thread, yet
by default OpenBLAS starts a worker per core that spins for about 0.12 s
of CPU per process on 2 cores; an OPENBLAS_NUM_THREADS set from outside
wins), then parses and validates with `front`, without numpy: `--help`,
usage errors and refusals exit there.  Only then, with the collector
paused, do `cli`, numpy and the library module of the command's check
load.  `gc.freeze()` keeps every later collection, shutdown's included,
off that heap, and the command runs.  Exit is normal shutdown, which
flushes stdout and turns a closed pipe into exit code 2.  Importing the
library leaves a host's BLAS alone, and importing this module its collector.
"""

import gc
import importlib
import os
import sys

from . import front

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _load_and_run(cfg: front.RunConfig) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        from . import cli  # numpy loads here, after the pin
        importlib.import_module(f"{__package__}.{cli.CHECKS[cfg.command][1]}")
    finally:
        if collecting:
            gc.enable()
    gc.freeze()
    return cli.run(cfg)


def main(argv: list[str] | None = None) -> int:
    return front.main(argv, _load_and_run)


if __name__ == "__main__":
    sys.exit(main())
