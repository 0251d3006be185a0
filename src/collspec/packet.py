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
character chi_k mod b on the companion group.  That character vanishes
at b, so L(1, chi) equals its L-value, and each twist xi * conj(chi) is
induced by the odd, hence primitive, character xi * conj(chi_k) mod b.
Those imprimitive records take every L-value in closed form mod b.

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
from dataclasses import dataclass

import numpy as np

from .characters import Character, Family, companion_mod_b
from .errors import BaseOutOfRange, IncompatibleGroups, NotPrimitiveOdd, WrongModulus
from .spectrum import dual_transforms, spectrum_of


@dataclass(frozen=True)
class PacketRecord:
    chi_index: int
    P_short: complex
    L1: complex  # L(1, conj chi)
    delta: complex
    ratio: float  # |delta| / |L1|
    phase_cos: float  # cos(arg delta - arg L1)
    twist_count: int  # always (b-3)/2


def _packet_records(b: int, js: np.ndarray) -> list[PacketRecord]:
    """Records for the odd chi_j mod b**2, j in js, gathered from the arrays.

    The twist of conj(chi_j) by xi_k mod b is chi_{(b*k - j) mod phi}; for
    imprimitive j = b*k0 it is induced by chi_{(k - k0) mod (b-1)} on the
    companion group, and conj(chi_j) by chi_{-k0}.
    """
    spec = spectrum_of(b)
    phi, phi_b = spec.group.phi, b - 1
    _, tau_b, l1_b = dual_transforms(companion_mod_b(spec.group))
    primitive = spec.primitive[js]
    k0 = js // b
    l1 = np.where(primitive, spec.L1[-js % phi], l1_b[-k0 % phi_b])
    twists = range(2, b - 1, 2)  # the even nontrivial xi_k mod b
    total = np.zeros(len(js), dtype=complex)
    for k in twists:
        twisted = np.where(primitive, spec.L1[(b * k - js) % phi], l1_b[(k - k0) % phi_b])
        total += tau_b[-k % phi_b] * twisted
    delta = 1j / (b - 1) * total

    columns = zip(js.tolist(), spec.P_short[js].tolist(), l1.tolist(), delta.tolist())
    return [
        PacketRecord(j, p_short, l1_j, delta_j, abs(delta_j) / abs(l1_j),
                     math.cos(cmath.phase(delta_j) - cmath.phase(l1_j)), len(twists))
        for j, p_short, l1_j, delta_j in columns
    ]


def packet_delta(chi: Character) -> PacketRecord:
    """Delta(chi) and its comparison against L(1, conj chi), chi odd mod b**2."""
    g = chi.group
    if g.q != g.b**2:
        raise WrongModulus("packets are defined for characters mod b**2")
    if not chi.is_odd:
        raise NotPrimitiveOdd(f"chi_{chi.index} mod {g.q} is even")
    if g.g != spectrum_of(g.b).group.g:
        raise IncompatibleGroups(f"packets index characters against the least root mod {g.q}")
    return _packet_records(g.b, np.array([chi.index]))[0]


@dataclass(frozen=True)
class PacketStats:
    b: int
    mean_ratio: float
    std_ratio: float  # population
    std_times_logb: float  # std_ratio * ln b
    std_times_log10b: float
    mean_phase_cos: float
    count: int  # (b-1)^2 / 2 primitive odd, b(b-1) / 2 all odd
    std_ratio_sample: float


def packet_records(b: int, family: Family = Family.PRIMITIVE_ODD) -> list[PacketRecord]:
    """Records for the primitive odd or all odd chi mod b**2, ascending index."""
    if family not in (Family.PRIMITIVE_ODD, Family.ODD):
        raise ValueError(f"packet families are primitive-odd and odd, not {family.value}")
    return _packet_records(b, spectrum_of(b).indices(family))


def stats_from_records(b: int, records: list[PacketRecord]) -> PacketStats:
    """Aggregate ratio/phase statistics; fsum keeps them order-independent."""
    n = len(records)
    ratios = [r.ratio for r in records]
    mean = math.fsum(ratios) / n
    centered = math.fsum((x - mean) ** 2 for x in ratios)
    std_pop = math.sqrt(centered / n)
    std_sample = math.sqrt(centered / (n - 1)) if n > 1 else 0.0
    return PacketStats(
        b=b,
        mean_ratio=mean,
        std_ratio=std_pop,
        std_times_logb=std_pop * math.log(b),
        std_times_log10b=std_pop * math.log10(b),
        mean_phase_cos=math.fsum(r.phase_cos for r in records) / n,
        count=n,
        std_ratio_sample=std_sample,
    )


def packet_stats(b: int, family: Family = Family.PRIMITIVE_ODD) -> PacketStats:
    """Statistics of |Delta|/|L| over an odd family mod b**2.

    The default is the (b-1)^2/2 primitive odd chi; Family.ODD adds the
    (b-1)/2 imprimitive ones.
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


@dataclass(frozen=True)
class ProbeResult:
    """(L(1, conj chi) + Delta(chi)) / P(chi), when P is usably nonzero."""

    defined: bool
    ratio_to_P: complex | None


PROBE_FLOOR = 1e-12


def probe_from_parts(l1: complex, delta: complex, p_short: complex) -> ProbeResult:
    if abs(p_short) <= PROBE_FLOOR:
        return ProbeResult(defined=False, ratio_to_P=None)
    return ProbeResult(defined=True, ratio_to_P=(l1 + delta) / p_short)


def normalization_probe(chi: Character) -> ProbeResult:
    """Measure the factor relating P(chi) to L(1, conj chi) + Delta(chi).

    The factor is measured, never assumed: downstream nothing depends
    on its value, so the probe is reporting-only.
    """
    record = packet_delta(chi)
    return probe_from_parts(record.L1, record.delta, record.P_short)
