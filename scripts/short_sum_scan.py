"""Scan the doubling identity |S_G| = 2|P| beyond its verified range.

The identity is asserted for b <= 13 and gated there by the test suite.
Its status for larger b is open; this script measures the residual
| |S_G(chi)| - 2|P(chi)| | for every primitive odd chi up to --max-base
and reports the worst case per base, so the line between "identity" and
"small-b accident" is visible at a glance.

Usage: python scripts/short_sum_scan.py [--max-base 61]
"""

import argparse
import sys

from collspec.spectrum import DOUBLING_VERIFIED_MAX, verify_base5_identities
from collspec.unit_group import is_odd_prime


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-base", type=int, default=61)
    args = parser.parse_args(argv)

    print(f"{'b':>4} {'max | |S_G| - 2|P| |':>22}   note")
    for b in range(3, args.max_base + 1):
        if not is_odd_prime(b):
            continue
        worst = verify_base5_identities(b)["doubling_residual"].max()
        if b <= DOUBLING_VERIFIED_MAX:
            note = "verified range" if worst < 1e-10 else "UNEXPECTED"
        else:
            note = "holds numerically" if worst < 1e-10 else "breaks"
        print(f"{b:>4} {worst:>22.3e}   {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
