"""The one entry point of the command line: `collspec ...` (the console
script) and `python -m collspec ...` both start here.

When numpy loads, OpenBLAS starts a pool of one worker thread per core.
On a 2-core box that pool spins for about 0.12 s of CPU in every process
and holds up a short command's exit, and no command makes a BLAS call
that would thread.  So the CLI pins OpenBLAS to one thread before
anything imports numpy.  The pin is safe: the FFTs are pocketfft's, the
prime sums are numpy pairwise sums, and the one dot on a command's path
(`lvalues.l_value_series`) has length q <= 10^4, which OpenBLAS does not
split across threads.  tests/test_cli.py holds reports byte for byte at
one and at two threads.  An OPENBLAS_NUM_THREADS set from outside wins.
Importing the library (`collspec`, `collspec.cli`) leaves a host
program's BLAS alone.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy loads here, after the pin)

if __name__ == "__main__":
    sys.exit(main())
