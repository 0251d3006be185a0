"""Special values L(1, chi) for odd primitive Dirichlet characters.

Closed form (odd primitive chi mod q):

    L(1, chi) = i * pi * tau(chi) * B1(conj chi) / q,

so with |tau(chi)| = sqrt(q) the magnitudes obey
|B1| = (sqrt(q)/pi) * |L(1, chi)|; on modulus b**2 that reads
|B1| = (b/pi) * |L|.  The independent oracle is the truncated series

    sum_{n <= N} chi(n) / n,

summed over whole periods of chi so that partial summation gives the
tail bound M_chi / N with M_chi the exact one-period maximum of
|sum_{n <= t} chi(n)|.  The series is an oracle only; no identity
verification consumes it.

For a prime b = 3 (mod 4), b > 3, the Legendre character mod b is odd
with fundamental discriminant D = -b and |L(1, chi_D)| = pi*h(D)/sqrt(b)
ties the closed form to the class number h(D).  h is recomputed
independently by counting reduced primitive binary quadratic forms
(a, b', c) of discriminant D: b'^2 - 4ac = D, |b'| <= a <= c, and
b' >= 0 whenever |b'| = a or a = c.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .characters import Character, Family, enumerate_family, gauss_sum
from .errors import BadDiscriminant, CutoffTooShort, LimitTooLarge, PrincipalCharacter
from .spectrum import _require_primitive_odd, bernoulli_b1, dual_transforms, magnitudes, spectrum_of
from .unit_group import Level, build_unit_group, is_odd_prime


# Series truncation bound.  The harmonic sums take O(q) memory at any
# truncation; the bound caps their time (0.3-0.5 s at 10**8 terms).
SERIES_LIMIT = 100_000_000
SERIES_BLOCK = 1 << 16  # terms summed at a time, rounded down to whole periods


def l_value_closed(chi: Character) -> complex:
    """L(1, chi) = i pi tau(chi) B1(conj chi) / q for odd primitive chi."""
    _require_primitive_odd(chi)
    return 1j * math.pi * gauss_sum(chi) * bernoulli_b1(chi) / chi.group.q


@lru_cache(maxsize=8)
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
    out.flags.writeable = False
    return out


def max_partial_sum(chi: Character) -> float:
    """M_chi: exact one-period maximum of |sum_{n <= t} chi(n)|."""
    running = np.cumsum(chi.values_by_residue()[1:])  # t = 1 .. q-1; t = 0 gives 0
    return float(np.max(np.abs(running)))


def l_value_series(chi: Character, cutoff: int) -> dict:
    """Truncated Dirichlet series oracle with a valid tail bound.

    The truncation is rounded up to a whole number of periods, which is
    what makes the partial-summation bound M_chi / N correct (the
    running character sum returns to zero at the truncation point).
    Keys: series, the truncated sum; series_truncation, the rounded-up
    truncation N; tail_bound, M_chi / N.
    """
    if chi.is_principal:
        raise PrincipalCharacter("the series needs a non-principal character")
    q = chi.group.q
    if cutoff < q * q:
        raise CutoffTooShort(f"truncation {cutoff} too short; need at least q^2 = {q * q}")
    if cutoff > SERIES_LIMIT:
        raise LimitTooLarge(f"truncation {cutoff} exceeds the series bound {SERIES_LIMIT}")
    n_eff = -(-cutoff // q) * q
    harmonic = _harmonic_by_residue(q, n_eff)
    return {"series": complex(np.dot(chi.values_by_residue(), harmonic)),
            "series_truncation": n_eff, "tail_bound": max_partial_sum(chi) / n_eff}


# ====== L-encoding of the spectrum ======


def verify_encoding(b: int) -> dict[str, np.ndarray]:
    """|s0_hat| = (b/(pi*phi)) |L(1,chi)| |S_G(chi)|, as columns b, j over the primitive odd j."""
    spec = spectrum_of(b)
    js = spec.indices(Family.PRIMITIVE_ODD)
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
    _, _, l1 = dual_transforms(build_unit_group(b, Level.MOD_B))
    l_val = complex(l1[(b - 1) // 2])
    raw = math.sqrt(b) * abs(l_val) / math.pi
    return {"b": b, "D": -b, "h_from_L": round(raw), "h_from_forms": len(reduced_forms(-b)),
            "pre_rounding": raw}


def series_family(b: int, cutoff: int) -> list[tuple[complex, dict]]:
    """(closed, series) pairs for every primitive odd chi mod b**2."""
    group = build_unit_group(b, Level.MOD_B_SQUARED)
    return [
        (l_value_closed(chi), l_value_series(chi, cutoff))
        for chi in enumerate_family(group, Family.PRIMITIVE_ODD)
    ]
