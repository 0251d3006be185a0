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

whose margin is reported for (b, s, N) grids.

A run is one pass: it checks every s and base, sieves once up to N,
then takes one base at a time.  Per base it takes the dlog class order
and S0(p mod m) once; per s, p^{-s} = exp(-s ln p) once, for F0 and for
P.  Per prime it holds about 17 bytes: the uint32 prime, a narrow S0,
the int32 order and the float64 p^{-s}; the int64 argsort of the narrow
keys is its peak.  Sums are numpy pairwise sums, not BLAS dots, whose
threads make the last digits and the run time follow the thread count
and the load.

P comes for every chi at once: with c[t] the sum of p^{-s} over the
primes of dlog class t, P(s, chi_j) = sum_t c[t] e(jt/phi) is one
length-phi FFT.  Each c[t] is a pairwise sum over the class's primes,
gathered in class order; bincount and add.reduceat would sum
sequentially, which raises the rounding by more than an order of
magnitude.  F0 is summed directly over the ascending primes.

The records stay in arrays over the mask odd & primitive and its
complement, with the bits of Python scalars: each term s0_hat * P is four
real products, as complex * rounds (numpy's complex * does not), and each
sum over ascending j is the last entry of a sequential cumsum.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from .errors import CutoffBelowModulus, ExponentOutOfRange
from .spectrum import Spectrum, magnitudes, spectrum_of
from .unit_group import sieve_primes

_BLOCK = 1 << 14  # primes per block of the setup and of F0's terms; primes or classes per run


def _sums(spec: Spectrum, s_values: Sequence[float], cutoff: int,
          primes: np.ndarray) -> Iterator[tuple[float, np.ndarray]]:
    """(F0(s), P(s, chi_j) for j = 0..phi-1) for each s in turn, over the
    primes m < p <= cutoff of the ascending array primes (m = b**2)."""
    group, table = spec.group, spec.table
    m = group.q
    start, stop = np.searchsorted(primes, [m, cutoff], side="right")
    if start == stop:
        raise CutoffBelowModulus(f"no prime in ({m}, {cutoff}]")
    p_arr = primes[start:stop]
    # The per-prime arrays set the pass's peak memory, so each is narrow and
    # built in blocks: the dlog key t in the least unsigned type (below
    # phi = 2**16 numpy's stable sort is a radix sort), S0(p mod m) = S0(g^t)
    # by its numerator over b in the least signed type, the int32 class order.
    keys = np.empty(p_arr.size, dtype=np.min_scalar_type(group.phi - 1))
    s0_by_t = table.S0_num.astype(np.min_scalar_type(-1 - np.abs(table.S0_num).max()))
    s0_num = np.empty(p_arr.size, dtype=s0_by_t.dtype)
    for lo in range(0, p_arr.size, _BLOCK):
        keys[lo : lo + _BLOCK] = group.dlog[p_arr[lo : lo + _BLOCK] % m]
        s0_num[lo : lo + _BLOCK] = s0_by_t[keys[lo : lo + _BLOCK]]
    order = np.argsort(keys, kind="stable").astype(np.int32)  # pi(cutoff) < 2**31
    bounds = np.zeros(group.phi + 1, dtype=np.int64)  # class t is order[bounds[t]:bounds[t+1]]
    np.cumsum(np.bincount(keys, minlength=group.phi), out=bounds[1:])
    del keys
    for s in s_values:
        weights = p_arr.astype(float)  # p^-s = exp(-s ln p), in place
        np.log(weights, out=weights)
        with np.errstate(over="ignore"):  # -inf: p^-s underflows to 0, refused below
            weights *= -s
        np.exp(weights, out=weights)
        if not weights.any():  # every sum would be 0
            raise ExponentOutOfRange(f"at s = {s}, p^-s underflows to 0 from p = {p_arr[0]} on")
        c, t = np.empty(group.phi), 0
        while t < group.phi:  # by runs of whole classes: to _BLOCK primes and classes, or one class
            u = int(np.searchsorted(bounds, bounds[t] + _BLOCK, side="right")) - 1
            u = max(t + 1, min(u, t + _BLOCK))
            edges = bounds[t : u + 1].tolist()
            run, at = weights[order[edges[0] : edges[-1]]], edges[0]
            c[t:u] = [run[i - at : j - at].sum() for i, j in zip(edges, edges[1:])]
            t = u
        for lo in range(0, p_arr.size, _BLOCK):  # the terms of F0, in place
            weights[lo : lo + _BLOCK] *= s0_num[lo : lo + _BLOCK] / float(table.b)
        f_val = float(weights.sum())
        del weights  # before the next s takes its own
        yield f_val, np.fft.ifft(c, norm="forward")  # unscaled: sum_t c[t] e(jt/phi)


def _base_records(spec: Spectrum, s_values: Sequence[float], cutoff: int,
                  primes: np.ndarray) -> list[dict]:
    """The records of base spec.b, one per s.

    Keys: b; s; N, the cutoff; F = F0(s), real since S0 is; expansion_residual;
    restriction_residual, |sum of s0_hat * P over the even and imprimitive odd
    chi|, the terms the restriction drops; bound_lhs = |F|; bound_rhs;
    margin = bound_rhs - bound_lhs.

    The dropped terms are summed on their own, not as the all-chi sum minus
    the primitive-odd one: that difference is the rounding of a sum of F's
    size, 0 or 2**-59 by chance at b = 7, and hides terms below its ulp."""
    family, h = spec.odd & spec.primitive, spec.s_hat
    # |B1| * |S_G| first, then * |P|, each as Python's abs(complex) rounds
    b1_sg = magnitudes(spec.B1[family]) * magnitudes(spec.S_G[family])
    records = []
    for s, (f_val, p) in zip(s_values, _sums(spec, s_values, cutoff, primes)):
        re, im = h.real * p.real - h.imag * p.imag, h.real * p.imag + h.imag * p.real
        expansion, dropped = (complex(np.cumsum(re[k])[-1], np.cumsum(im[k])[-1])
                              for k in (family, ~family))
        bound_rhs = math.fsum(b1_sg * magnitudes(p[family])) / spec.group.phi
        bound_lhs = abs(f_val)
        records.append({"b": spec.b, "s": s, "N": cutoff, "F": f_val,
                        "expansion_residual": abs(f_val - expansion),
                        "restriction_residual": abs(dropped),
                        "bound_lhs": bound_lhs, "bound_rhs": bound_rhs,
                        "margin": bound_rhs - bound_lhs})
    return records


def _records(bases: Sequence[int], s_values: Sequence[float], cutoff: int,
             least_s: float) -> list[dict]:
    """The records of every (b, s), base-major (keys: _base_records): every s
    and base is checked, then the primes up to cutoff are sieved once."""
    for s in s_values:
        if not (math.isfinite(s) and s > least_s):
            raise ExponentOutOfRange(f"need a finite s > {least_s:g}, got {s}")
    for b in bases:
        if cutoff <= b * b:
            raise CutoffBelowModulus(f"cutoff {cutoff} does not exceed modulus {b * b}")
    primes = sieve_primes(cutoff)
    return [r for b in bases for r in _base_records(spectrum_of(b), s_values, cutoff, primes)]


def verify_expansion(bases: Sequence[int], s_values: Sequence[float], cutoff: int) -> list[dict]:
    """Check F0 = sum s0_hat * P term by term at the given truncation, for
    every (b, s) (keys: _base_records)."""
    return _records(bases, s_values, cutoff, 0)


def cross_moment_bound(bases: Sequence[int], s_values: Sequence[float], cutoff: int) -> list[dict]:
    """Triangle-inequality bound |F0| <= (1/phi) sum |B1||S_G||P| for every
    (b, s) (keys: _base_records)."""
    return _records(bases, s_values, cutoff, 0.5)
