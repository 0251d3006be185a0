"""Decay-table study: which character family the table aggregates.

Computes the packet statistics at every tabulated base under the stated
formula over two families, the (b-1)^2/2 primitive odd chi mod b**2 and
all b(b-1)/2 odd chi mod b**2, plus one diagnostic variant of the
formula, prints them against the reference values, and marks which
cells fall outside the 0.05 band.

The stated packet sums tau(conj xi) * L(1, xi * conj chi) over even
nontrivial xi mod b with prefactor i/phi(b).  The diagnostic variant
extends the sum to the principal xi as well (whose Gauss sum is the
Ramanujan sum -1), equivalent to subtracting i*L(1, conj chi)/phi(b)
from each packet.  Measured result:

  * all odd chi, stated formula, population std: every cell at
    b = 5 ... 43 lies within 0.005 of the table and rounds to the
    printed value (b = 5: mean 0.79999, std 0.65001).  This is the
    table's family.
  * primitive odd chi only: b = 5 is high by about 0.06 in both mean
    and std; the other bases stay within 0.05.
  * include-principal variant (primitive family): fits b = 5 but misses
    the mean at 7, 13 and 19 by 0.05-0.07.

The stated formula was cross-checked against an independent
representation over both primitive and imprimitive records (see
--check-series), so the implementation side is pinned down.

Usage: python scripts/table1_experiment.py [--check-series]
"""

import argparse
import math
import sys

import numpy as np

from collspec.characters import Family, roots_of_unity
from collspec.packet import TABLE1_FAMILY, TABLE1_TARGETS, packet_records
from collspec.unit_group import Level, build_unit_group

BAND = 0.05


def moments(values):
    n = len(values)
    mean = math.fsum(values) / n
    var_pop = math.fsum((x - mean) ** 2 for x in values) / n
    var_smp = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, math.sqrt(var_pop), math.sqrt(var_smp)


def flag(x, ref):
    return f"{x:7.4f}{'*' if abs(x - ref) > BAND else ' '}"


def check_series(b, records, terms=2_000_000):
    """Independent route: Delta = i*T + i*L1/phi(b) with
    T = sum over n of conj(chi)(n) cos(2 pi n / b) / n.

    Returns the worst |stated - series route| over the primitive and over
    the imprimitive records separately (0.0 for a family with none)."""
    group = build_unit_group(b, Level.MOD_B_SQUARED)
    q, phi, units = group.q, group.phi, group.units
    n_eff = -(-terms // q) * q
    n = np.arange(1, n_eff + 1)
    cosine = np.cos(2 * np.pi * n / b)
    worst = {True: 0.0, False: 0.0}
    for j, l1, delta in zip(*(records[k].tolist() for k in ("j", "L1", "delta"))):
        vals = np.zeros(q, dtype=complex)  # conj(chi_j) = chi_{-j} by residue
        vals[units] = roots_of_unity(phi)[-j * group.dlog[units] % phi]
        t_sum = complex(np.sum(vals[n % q] * cosine / n))
        alt = 1j * t_sum + 1j * l1 / (b - 1)
        primitive = j % b != 0
        worst[primitive] = max(worst[primitive], abs(alt - delta))
    return worst[True], worst[False]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check-series", action="store_true",
                        help="cross-validate the packet at b=5,7 (slow-ish)")
    args = parser.parse_args(argv)

    print(f"{'b':>3} | {'mean':>8} {'std.pop':>8} {'std.smp':>8} | "
          f"{'mean+P':>8} {'std+P':>8} | {'odd.mean':>8} {'odd.std':>8} | "
          f"{'ref.mean':>8} {'ref.std':>7}")
    print("-" * 99)
    for b in sorted(TABLE1_TARGETS):
        records = packet_records(b)
        l1, delta = records["L1"].tolist(), records["delta"].tolist()
        variant = [abs(d - 1j * l / (b - 1)) / abs(l) for l, d in zip(l1, delta)]
        m1, sp1, ss1 = moments(records["ratio"].tolist())
        m2, sp2, _ = moments(variant)
        m3, sp3, _ = moments(packet_records(b, TABLE1_FAMILY)["ratio"].tolist())
        mref, sref = TABLE1_TARGETS[b]
        print(f"{b:>3} | {flag(m1, mref)} {flag(sp1, sref)} {flag(ss1, sref)} | "
              f"{flag(m2, mref)} {flag(sp2, sref)} | {flag(m3, mref)} {flag(sp3, sref)} | "
              f"{mref:8.2f} {sref:7.2f}")
    print("(* = outside the 0.05 band; the first five columns are over primitive odd chi,")
    print(" +P = include-principal variant; odd = all odd chi, the table's family)")

    if args.check_series:
        for b in (5, 7):
            prim, imprim = check_series(b, packet_records(b, Family.ODD))
            print(f"series cross-check b={b}: max |stated - series route| "
                  f"= {prim:.2e} primitive, {imprim:.2e} imprimitive "
                  f"(truncation-level agreement)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
