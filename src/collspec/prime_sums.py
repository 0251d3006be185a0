"""Truncated prime sums and the finite spectral expansion.

Over primes m < p <= N (m = b**2) define

    P(s, chi) = sum chi(p) / p^s,
    F0(s)     = sum S0(p mod m) / p^s.

Dual-group inversion S0(a) = sum_chi s0_hat(chi) chi(a) is a finite
identity, so

    F0(s) = sum over primitive odd chi of s0_hat(chi) * P(s, chi)

holds exactly for any truncation: the even and imprimitive-odd terms
drop out because their coefficients vanish.  The triangle inequality
then gives the cross-moment bound

    |F0(s)| <= (1/phi) * sum |B1| |S_G| |P(s, chi)|,

whose margin is reported for (b, s, N) grids.  p^{-s} is evaluated as
exp(-s ln p), with ln p taken once per (base, cutoff) for every s, and
sums are numpy pairwise sums, not BLAS dots, whose threads make the last
digits and the run time follow the thread count and the load.

P has one route, p_all, which gives every chi at once: with c[t] the sum
of p^{-s} over the primes of dlog class t, P(s, chi_j) = sum_t c[t]
e(jt/phi) is one length-phi FFT.  Each c[t] is a pairwise sum over the
class's run of the primes, taken in a cached order that groups them by
dlog; bincount and add.reduceat would sum sequentially, which raises the
rounding by more than an order of magnitude.  verify_expansion and
cross_moment_bound both take it.  F0 is summed directly over the
ascending primes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .characters import Family
from .collision import CollisionTable
from .errors import CutoffBelowModulus, ExponentOutOfRange
from .spectrum import spectrum_of
from .unit_group import PrimeList, UnitGroup


def _primes_in_range(primes: PrimeList, m: int, cutoff: int) -> np.ndarray:
    if cutoff <= m:
        raise CutoffBelowModulus(f"cutoff {cutoff} does not exceed modulus {m}")
    if cutoff > primes.limit:
        raise ValueError(f"cutoff {cutoff} beyond sieve limit {primes.limit}")
    arr = primes.primes
    lo, hi = np.searchsorted(arr, m, side="right"), np.searchsorted(arr, cutoff, side="right")
    if lo == hi:
        raise CutoffBelowModulus(f"no prime in ({m}, {cutoff}]")
    return arr[lo:hi]


@lru_cache(maxsize=1)
def _log_primes(q: int, cutoff: int, primes: PrimeList) -> tuple[np.ndarray, np.ndarray]:
    """The primes of (q, cutoff], ascending, and their ln p, for every s of a run."""
    p_arr = _primes_in_range(primes, q, cutoff)
    log_p = np.log(p_arr.astype(float))
    log_p.flags.writeable = False
    return p_arr, log_p


@lru_cache(maxsize=1)
def _class_order(group: UnitGroup, cutoff: int, primes: PrimeList) -> tuple[np.ndarray, list[int]]:
    """The permutation that groups the primes of _log_primes by dlog p, ascending
    within a class, and the phi + 1 run bounds: class t is
    order[bounds[t]:bounds[t + 1]].  Shared by every s of a run."""
    p_arr, _ = _log_primes(group.q, cutoff, primes)
    # the least unsigned type: below phi = 2**16 numpy's stable sort is a radix sort
    keys = group.dlog[p_arr % group.q].astype(np.min_scalar_type(group.phi - 1))
    order = np.argsort(keys, kind="stable").astype(np.int32)  # pi(cutoff) < 2**31
    order.flags.writeable = False
    counts = np.bincount(keys, minlength=group.phi)  # integer counts: exact
    return order, [0, *np.cumsum(counts).tolist()]


def p_all(group: UnitGroup, s: float, cutoff: int, primes: PrimeList) -> np.ndarray:
    """P(s, chi_j) for j = 0..phi-1, by dlog class sums and one FFT."""
    p_arr, log_p = _log_primes(group.q, cutoff, primes)
    order, bounds = _class_order(group, cutoff, primes)
    with np.errstate(over="ignore"):  # -inf: p^-s underflows to 0, refused below
        weights = -s * log_p[order]
    np.exp(weights, out=weights)
    if not weights.any():  # every sum would be 0
        raise ExponentOutOfRange(f"at s = {s}, p^-s underflows to 0 from p = {p_arr[0]} on")
    c = np.array([weights[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])])
    return np.fft.ifft(c, norm="forward")  # unscaled: sum_t c[t] e(jt/phi)


def f_trunc(table: CollisionTable, s: float, cutoff: int, primes: PrimeList) -> float:
    """F0(s) = sum over m < p <= cutoff of S0(p mod m) p^{-s}."""
    p_arr, log_p = _log_primes(table.m, cutoff, primes)
    s0 = np.zeros(table.m)
    s0[table.units] = table.S0_num / table.b
    terms = s0[p_arr % table.m]  # first, and exp in place: two arrays of pi(N) at most
    with np.errstate(over="ignore"):  # -inf gives p^-s = 0, as it should
        weights = -s * log_p
    terms *= np.exp(weights, out=weights)
    return float(terms.sum())


def _record(b: int, s: float, cutoff: int, primes: PrimeList) -> dict:
    """Keys: b; s; N, the cutoff; F = F0(s), real since S0 is; expansion_residual;
    restriction_residual, |sum of s0_hat * P over the even and imprimitive odd
    chi|, the terms the restriction drops; bound_lhs = |F|; bound_rhs;
    margin = bound_rhs - bound_lhs.

    The dropped terms are summed on their own, not as the all-chi sum minus
    the primitive-odd one: that difference is the rounding of a sum of F's
    size, 0 or 2**-59 by chance at b = 7, and hides terms below its ulp.

    F is taken before P, so that F's temporaries are freed before P's
    per-run caches fill."""
    spec = spectrum_of(b)
    f_val = f_trunc(spec.table, s, cutoff, primes)
    p_val = p_all(spec.group, s, cutoff, primes).tolist()
    # Python scalars summed in order: a numpy sum would reorder the terms.
    s_hat, b1, s_g = spec.s_hat.tolist(), spec.B1.tolist(), spec.S_G.tolist()
    terms = [h * p for h, p in zip(s_hat, p_val)]
    js = spec.indices(Family.PRIMITIVE_ODD).tolist()
    expansion = sum((terms[j] for j in js), 0j)
    prim_odd = set(js)
    dropped = sum((t for j, t in enumerate(terms) if j not in prim_odd), 0j)
    bound_terms = (abs(b1[j]) * abs(s_g[j]) * abs(p_val[j]) for j in js)
    bound_rhs = math.fsum(bound_terms) / spec.group.phi
    bound_lhs = abs(f_val)
    return {"b": b, "s": s, "N": cutoff, "F": f_val,
            "expansion_residual": abs(f_val - expansion),
            "restriction_residual": abs(dropped),
            "bound_lhs": bound_lhs, "bound_rhs": bound_rhs, "margin": bound_rhs - bound_lhs}


def verify_expansion(b: int, s: float, cutoff: int, primes: PrimeList) -> dict:
    """Check F0 = sum s0_hat * P term by term at the given truncation (keys: _record)."""
    if not (math.isfinite(s) and s > 0):
        raise ExponentOutOfRange(f"need a finite s > 0, got {s}")
    return _record(b, s, cutoff, primes)


def cross_moment_bound(b: int, s: float, cutoff: int, primes: PrimeList) -> dict:
    """Triangle-inequality bound |F0| <= (1/phi) sum |B1||S_G||P| (keys: _record)."""
    if not (math.isfinite(s) and s > 0.5):
        raise ExponentOutOfRange(f"need a finite s > 0.5, got {s}")
    return _record(b, s, cutoff, primes)
