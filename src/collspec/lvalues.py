"""Special values L(1, chi) for odd Dirichlet characters.

The library takes L(1, chi) = (pi/2q) sum_{0<a<q} chi(a) cot(pi a/q),
the cotangent formula for odd chi mod q, primitive or induced, for every
chi at once (spectrum.odd_l_values).  For odd primitive chi the closed
form L(1, chi) = i pi tau(chi) B1(conj chi)/q with |tau(chi)| = sqrt(q)
gives |B1| = (sqrt(q)/pi) |L(1, chi)|, on modulus b**2 |B1| = (b/pi) |L|:
lvalue-magnitude checks it between the independent transforms B1 and L1.
The independent oracle is the truncated series of chi_j, named by its
dual index j,

    sum_{n <= N} chi_j(n) / n,

summed over whole periods of chi so that partial summation gives the
tail bound M_chi / N with M_chi the exact one-period maximum of
|sum_{n <= t} chi(n)|.  l_value_series returns columns over the j it
is given.  The series is an oracle only; no identity verification
consumes it.

For a prime b = 3 (mod 4), b > 3, the Legendre character mod b is odd
with fundamental discriminant D = -b and |L(1, chi_D)| = pi*h(D)/sqrt(b)
ties the cotangent transform mod b to the class number h(D).  h is recomputed
independently by counting reduced primitive binary quadratic forms
(a, b', c) of discriminant D: b'^2 - 4ac = D, |b'| <= a <= c, and
b' >= 0 whenever |b'| = a or a = c.
"""

from __future__ import annotations

import math

import numpy as np

from .characters import roots_of_unity
from .errors import BadDiscriminant, CutoffTooShort, LimitTooLarge, PrincipalCharacter
from .front import is_odd_prime
from .spectrum import magnitudes, odd_l_values, spectrum_of
from .unit_group import Level, UnitGroup, build_unit_group


# Series truncation bound.  The harmonic sums take O(q) memory at any
# truncation; the bound caps their time (0.3-0.5 s at 10**8 terms).
SERIES_LIMIT = 100_000_000
SERIES_BLOCK = 1 << 16  # terms summed at a time, rounded down to whole periods


def _harmonic_by_residue(q: int, n_eff: int) -> np.ndarray:
    """H[r] = sum of 1/n over n <= n_eff with n = r (mod q)."""
    # Row i holds n = i*q + 1 .. i*q + q, so column c is residue (c+1) mod q.
    # Blocks of whole periods carry the running sums as their first row;
    # numpy adds rows in order, so this is the one-shot sum over all rows.
    step = max(1, SERIES_BLOCK // q) * q
    cols = np.zeros(q)
    for start in range(0, n_eff, step):
        block = 1.0 / np.arange(start + 1.0, min(start + step, n_eff) + 1.0)
        cols = np.concatenate([cols, block]).reshape(-1, q).sum(axis=0)
    out = np.empty(q)
    out[(np.arange(q) + 1) % q] = cols
    return out


def max_partial_sum(values: np.ndarray) -> float:
    """M_chi: exact one-period maximum of |sum_{n <= t} chi(n)|, from chi's
    length-q value table."""
    running = np.cumsum(values[1:])  # t = 1 .. q-1; t = 0 gives 0
    return float(np.max(np.abs(running)))


def series_truncation(q: int, cutoff: int) -> int:
    """The series' truncation for modulus q: cutoff rounded up to a whole
    number of periods, refused below q^2 and above SERIES_LIMIT."""
    if cutoff < q * q:
        raise CutoffTooShort(f"truncation {cutoff} too short; need at least q^2 = {q * q}")
    if cutoff > SERIES_LIMIT:
        raise LimitTooLarge(f"truncation {cutoff} exceeds the series bound {SERIES_LIMIT}")
    return -(-cutoff // q) * q


def l_value_series(group: UnitGroup, js: np.ndarray, cutoff: int) -> dict[str, np.ndarray]:
    """Truncated Dirichlet series oracle for chi_j on group, for each j of
    the integers js (read mod phi), with a valid tail bound, as columns.

    The truncation is rounded up to a whole number of periods, which is
    what makes the partial-summation bound M_chi / N correct (the
    running character sum returns to zero at the truncation point).
    Columns: series, the truncated sum; series_truncation, the rounded-up
    truncation N; tail_bound, M_chi / N.
    """
    js = np.asarray(js, dtype=np.int64)
    if (js % group.phi == 0).any():
        raise PrincipalCharacter("the series needs a non-principal character")
    n_eff = series_truncation(group.q, cutoff)
    harmonic = _harmonic_by_residue(group.q, n_eff)
    roots, exponents = roots_of_unity(group.phi), np.arange(group.phi)  # units[t] = g**t
    values = np.zeros(group.q, dtype=complex)  # chi_j by residue, 0 off the units
    series, tails = np.empty(len(js), dtype=complex), np.empty(len(js))
    for i, j in enumerate(js.tolist()):
        values[group.units] = roots[j * exponents % group.phi]
        series[i] = np.dot(values, harmonic)
        tails[i] = max_partial_sum(values) / n_eff
    return {"series": series, "series_truncation": np.full(len(js), n_eff),
            "tail_bound": tails}


# ====== L-encoding of the spectrum ======


def verify_encoding(b: int) -> dict[str, np.ndarray]:
    """|s0_hat| = (b/(pi*phi)) |L(1,chi)| |S_G(chi)|, as columns b, j over the primitive odd j."""
    spec = spectrum_of(b)
    js = np.flatnonzero(spec.odd & spec.primitive)
    s_hat_abs = magnitudes(spec.s_hat[js])
    predicted = b / (math.pi * spec.group.phi) * magnitudes(spec.L1[js]) * magnitudes(spec.S_G[js])
    return {"b": np.full(len(js), b), "j": js, "s_hat_abs": s_hat_abs, "predicted": predicted,
            "residual": np.abs(s_hat_abs - predicted)}


# ====== class numbers via reduced forms ======


def reduced_forms(d: int) -> list[tuple[int, int, int]]:
    """All reduced primitive forms (a, b', c) of discriminant d < 0."""
    if d >= 0 or d % 4 not in (0, 1):
        raise BadDiscriminant(f"{d} is not a negative discriminant")
    out = []
    for a in range(1, math.isqrt(-d // 3) + 1):
        for bb in range(-a, a + 1):
            num = bb * bb - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if bb < 0 and (abs(bb) == a or a == c):
                continue
            if math.gcd(math.gcd(a, abs(bb)), c) != 1:
                continue
            out.append((a, bb, c))
    return out


def class_number_check(b: int) -> dict:
    """h(-b) from the Legendre L-value against the reduced-forms count.

    Keys: b; D = -b; h_from_L; h_from_forms; pre_rounding, sqrt(b)|L|/pi
    before the integer snap.
    """
    if not is_odd_prime(b) or b % 4 != 3 or b <= 3:
        raise BadDiscriminant(f"need a prime b = 3 (mod 4), b > 3; got {b}")
    # The Legendre symbol is chi_{(b-1)/2} mod b, odd since b = 3 (mod 4).
    l_val = complex(odd_l_values(build_unit_group(b, Level.MOD_B))[(b - 1) // 2])
    raw = math.sqrt(b) * abs(l_val) / math.pi
    return {"b": b, "D": -b, "h_from_L": round(raw), "h_from_forms": len(reduced_forms(-b)),
            "pre_rounding": raw}
