"""Twisted-L-value packets behind the short partial sums.

For odd chi mod b**2 the packet

    Delta(chi) = (i / phi(b)) * sum_{xi even, xi != xi_0 mod b}
                 tau(conj xi) * L(1, xi * conj chi)

collects the (b-3)/2 twisted special values that separate the
Gauss-sum-normalized short sum P(chi) = sum_{k < b} conj(chi)(k) from
L(1, conj chi).  Orthogonality of the even characters mod b gives
sum_{xi even, xi != xi_0} tau(conj xi) xi(n) = (b-1) cos(2 pi n/b) + 1
for n prime to b, so with the even kernel K(n) = cos(2 pi n/b) + 1/(b-1)

    Delta(chi) = i * sum_{n>=1} K(n) conj(chi)(n) / n,

which is spectrum.odd_l_values with the weight K: one length-phi
transform for every odd chi, primitive or induced, with no twist and no
Gauss sum.  The cos argument is folded to n mod b <= b/2, and K is
centered numerically (its mean over 1..b-1 is -1/(b-1)), so at b = 3,
which has no even nontrivial twist, K and the packets are exactly 0.
The twist sum itself is the tests' oracle (tests/oracles.py).

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
from .errors import BaseOutOfRange
from .spectrum import magnitudes, odd_l_values, spectrum_of


def packet_records(b: int, family: Family = Family.PRIMITIVE_ODD) -> dict[str, np.ndarray]:
    """Records for the primitive odd or all odd chi_j mod b**2, ascending j,
    gathered from the arrays.

    Columns: j; P_short; L1 = L(1, conj chi); delta; ratio = |delta|/|L1|;
    phase_cos = cos(arg delta - arg L1); twist_count, always (b-3)/2.

    conj(chi_j) = chi_{-j}, so L1 is the spectrum's L1[-j], and delta is
    i * odd_l_values(group, K)[-j] with the kernel K of the module docstring.
    """
    if family not in (Family.PRIMITIVE_ODD, Family.ODD):
        raise ValueError(f"packet families are primitive-odd and odd, not {family.value}")
    spec = spectrum_of(b)
    group, js = spec.group, spec.indices(family)
    conj_js = -js % group.phi
    r = np.arange(1, b)
    cos = np.cos(2 * np.pi / b * np.minimum(r, b - r))
    kernel = np.concatenate(([0.0], cos - cos.mean()))  # by residue mod b
    l1 = spec.L1[conj_js]
    delta = 1j * odd_l_values(group, kernel[group.units % b])[conj_js]
    # Per cell in Python: np.cos(np.arctan2(...)) rounds differently.
    phase_cos = [math.cos(cmath.phase(d) - cmath.phase(l))
                 for d, l in zip(delta.tolist(), l1.tolist())]
    return {"j": js, "P_short": spec.P_short[js], "L1": l1, "delta": delta,
            "ratio": magnitudes(delta) / magnitudes(l1), "phase_cos": np.array(phase_cos),
            "twist_count": np.full(len(js), (b - 3) // 2)}


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
