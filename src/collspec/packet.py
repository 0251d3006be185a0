"""Twisted-L-value packets behind the short partial sums.

For odd chi mod b**2 the packet

    Delta(chi) = (i / phi(b)) * sum_{xi even, xi != xi_0 mod b}
                 tau(conj xi) * L(1, xi * conj chi)

collects the (b-3)/2 twisted special values that separate the
Gauss-sum-normalized short sum P(chi) = sum_{k < b} conj(chi)(k) from
L(1, conj chi).  For primitive chi every twist xi * conj(chi) is again
primitive odd mod b**2 (the lift of xi shifts the index by a multiple
of b without changing parity), so the closed form applies term by term.

An imprimitive odd chi = chi_{b*k} mod b**2 is induced by the odd
character chi_k mod b, indexed against the reduction of the mod-b**2
root.  That is the least primitive root mod b, the root the mod-b group
is built on: for every odd prime b <= MAX_BASE the least root mod b is
a primitive root mod b**2, hence also the least one there (a guard
refuses any other pairing).  chi_k vanishes at b, so L(1, chi) equals
its L-value, and each twist xi * conj(chi) is induced by the odd, hence
primitive, character xi * conj(chi_k) mod b.  Those imprimitive records
take every L-value in closed form mod b.

packet_stats aggregates |Delta|/|L| and the phase gap over a family:
the (b-1)^2/2 primitive odd characters by default, or all b(b-1)/2 odd
ones.  The decay table TABLE1_TARGETS tabulates the second family: over
it every cell at b = 5 ... 43 lies within 0.005 of the table, while the
primitive family misses the b = 5 row by 0.06.  Aggregation uses fsum,
so the statistics are exactly permutation-invariant; the standard
deviation is the population one, with the sample variant carried
alongside, and the decay column is emitted against both ln b and
log10 b.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .characters import Family
from .errors import BaseOutOfRange, IncompatibleGroups
from .spectrum import dual_transforms, magnitudes, spectrum_of
from .unit_group import Level, build_unit_group


def packet_records(b: int, family: Family = Family.PRIMITIVE_ODD) -> dict[str, np.ndarray]:
    """Records for the primitive odd or all odd chi_j mod b**2, ascending j,
    gathered from the arrays.

    Columns: j; P_short; L1 = L(1, conj chi); delta; ratio = |delta|/|L1|;
    phase_cos = cos(arg delta - arg L1); twist_count, always (b-3)/2.

    The twist of conj(chi_j) by xi_k mod b is chi_{(b*k - j) mod phi}; for
    imprimitive j = b*k0 it is induced by chi_{(k - k0) mod (b-1)} mod b,
    and conj(chi_j) by chi_{-k0}.
    """
    if family not in (Family.PRIMITIVE_ODD, Family.ODD):
        raise ValueError(f"packet families are primitive-odd and odd, not {family.value}")
    spec = spectrum_of(b)
    js = spec.indices(family)
    phi, phi_b = spec.group.phi, b - 1
    mod_b = build_unit_group(b, Level.MOD_B)
    if mod_b.g != spec.group.g % b:
        raise IncompatibleGroups(
            f"root {spec.group.g} mod {b * b} does not reduce to the root {mod_b.g} mod {b}")
    _, tau_b, l1_b = dual_transforms(mod_b)
    primitive = spec.primitive[js]
    k0 = js // b
    l1 = np.where(primitive, spec.L1[-js % phi], l1_b[-k0 % phi_b])
    twists = range(2, b - 1, 2)  # the even nontrivial xi_k mod b
    total = np.zeros(len(js), dtype=complex)
    for k in twists:
        twisted = np.where(primitive, spec.L1[(b * k - js) % phi], l1_b[(k - k0) % phi_b])
        total += tau_b[-k % phi_b] * twisted
    delta = 1j / (b - 1) * total
    # Per cell in Python: np.cos(np.arctan2(...)) rounds differently.
    phase_cos = [math.cos(cmath.phase(d) - cmath.phase(l))
                 for d, l in zip(delta.tolist(), l1.tolist())]
    return {"j": js, "P_short": spec.P_short[js], "L1": l1, "delta": delta,
            "ratio": magnitudes(delta) / magnitudes(l1), "phase_cos": np.array(phase_cos),
            "twist_count": np.full(len(js), len(twists))}


def stats_from_records(b: int, records: dict[str, np.ndarray]) -> dict:
    """Aggregate ratio/phase statistics; fsum keeps them order-independent.

    Keys: b; mean_ratio; std_ratio, the population std; std_ln_b and
    std_log10_b, std_ratio * ln b and * log10 b; mean_phase_cos; count,
    (b-1)^2/2 primitive odd or b(b-1)/2 all odd; std_ratio_sample.
    """
    ratios = records["ratio"].tolist()
    n = len(ratios)
    mean = math.fsum(ratios) / n
    centered = math.fsum((x - mean) ** 2 for x in ratios)
    std_pop = math.sqrt(centered / n)
    return {"b": b, "mean_ratio": mean, "std_ratio": std_pop,
            "std_ln_b": std_pop * math.log(b), "std_log10_b": std_pop * math.log10(b),
            "mean_phase_cos": math.fsum(records["phase_cos"].tolist()) / n, "count": n,
            "std_ratio_sample": math.sqrt(centered / (n - 1)) if n > 1 else 0.0}


def packet_stats(b: int, family: Family = Family.PRIMITIVE_ODD) -> dict:
    """Statistics of |Delta|/|L| over an odd family mod b**2.

    The default is the (b-1)^2/2 primitive odd chi; Family.ODD adds the
    (b-1)/2 imprimitive ones.  Keys: those of stats_from_records.
    """
    if b < 5:
        raise BaseOutOfRange("packet statistics need b >= 5 (no even twists below)")
    return stats_from_records(b, packet_records(b, family))


# Decay table: b -> (mean, population std) of |Delta|/|L| over
# TABLE1_FAMILY, all b(b-1)/2 odd chi mod b**2.  The phase average is 0
# for every base (conjugate pairs cancel exactly).  The `table1` command
# still checks the primitive odd family against it, so its b = 5 row is
# red (mean 0.8602, std 0.7141).
TABLE1_FAMILY = Family.ODD
TABLE1_TARGETS: dict[int, tuple[float, float]] = {
    5: (0.80, 0.65),
    7: (1.03, 0.65),
    13: (1.11, 0.50),
    19: (1.10, 0.42),
    31: (1.07, 0.33),
    43: (1.06, 0.29),
}
TABLE1_TOLERANCE = 0.05


# ====== normalization probe ======


PROBE_FLOOR = 1e-12


def probes(records: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(probe, defined) per record: probe = (L(1, conj chi) + Delta(chi)) / P(chi),
    defined where |P| > PROBE_FLOOR (probe is 0 elsewhere).

    The factor is measured, never assumed: downstream nothing depends
    on its value, so the probe is reporting-only.
    """
    defined = ~(magnitudes(records["P_short"]) <= PROBE_FLOOR)  # a NaN P gives a NaN probe
    # Python's complex division per cell: numpy's rounds differently.
    cells = zip(records["L1"].tolist(), records["delta"].tolist(),
                records["P_short"].tolist(), defined.tolist())
    return np.array([(l1 + d) / p if ok else 0j for l1, d, p, ok in cells], dtype=complex), defined
