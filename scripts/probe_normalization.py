"""Measure the normalization relating P(chi) to L(1, conj chi) + Delta(chi).

The short partial sum is claimed to satisfy P~ = L(1, conj chi) + Delta
after "normalizing by the Gauss sum", with the exact normalization left
unstated.  This script measures probe(chi) = (L1 + Delta) / P per
character and compares its magnitude against the natural candidates
built from Gauss sums (|tau| = b for primitive chi mod b^2, sqrt(b) for
chi mod b).

Finding: the measured probe is not constant in chi (magnitudes spread
over roughly an order of magnitude at b = 5 and 7), so no chi-uniform
Gauss-sum factor makes the stated identity exact with this packet.  The
probe stays measured, never assumed, and nothing downstream depends on
it.

Usage: python scripts/probe_normalization.py [--bases 5,7]
"""

import argparse
import cmath
import math
import sys

from collspec.packet import packet_records, probes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bases", type=str, default="5,7")
    args = parser.parse_args(argv)
    bases = [int(x) for x in args.bases.split(",")]

    for b in bases:
        print(f"--- b = {b}   (candidates: 1/b = {1 / b:.4f}, "
              f"1/sqrt(b) = {1 / math.sqrt(b):.4f}, 1 = 1.0000)")
        mags = []
        records = packet_records(b)
        values, defined = probes(records)
        for j, probe, ok in zip(records["j"].tolist(), values.tolist(), defined.tolist()):
            if not ok:  # |P| at or below the floor
                print(f"  j={j:>3}:  P below floor, probe UNDEFINED")
                continue
            mags.append(abs(probe))
            print(f"  j={j:>3}:  |probe| = {abs(probe):7.4f}  arg = {cmath.phase(probe):+7.4f}")
        if mags:
            spread = max(mags) / min(mags)
            print(f"  magnitude range [{min(mags):.4f}, {max(mags):.4f}]  "
                  f"spread x{spread:.1f}  ->  not a constant")
    return 0


if __name__ == "__main__":
    sys.exit(main())
