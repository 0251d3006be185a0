"""The one entry point of the command line: `collspec ...` (the console
script) and `python -m collspec ...` both start in `main` here.

No command makes a BLAS call that would thread (the FFTs are pocketfft's,
the one dot, in `lvalues.l_value_series`, has length q <= 10^4), yet by
default OpenBLAS starts a worker per core that spins for about 0.12 s of
CPU per process on 2 cores.  So the pin below comes before numpy loads;
an OPENBLAS_NUM_THREADS set from outside wins.  The ~22k objects that the
imports build live until exit: the collector pauses while they load, and
`main` freezes them, so that no collection, at run time or at shutdown,
walks them again.  Exit is normal shutdown, which flushes stdout and turns
a closed pipe into exit code 2.  Importing the library leaves a host's
BLAS alone; importing this module leaves its collector as it was.
"""

import gc
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_collecting = gc.isenabled()
gc.disable()
try:
    from . import cli  # numpy loads here, after the pin
finally:
    if _collecting:
        gc.enable()


def main(argv: list[str] | None = None) -> int:
    gc.freeze()
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
