"""Cyclic unit groups of Z/qZ for q = b and q = b**2, b an odd prime.

For an odd prime b both unit groups are cyclic, so fixing a primitive
root g identifies the dual group with Z/phi(q)Z: every unit a equals
g**t for a unique exponent t = dlog(a), and character evaluation
downstream reduces to index arithmetic mod phi(q).  Residues are kept
canonical (in {0, ..., q-1}) throughout; "unit" always means
gcd(a, q) = 1.  The modulus names the group: build_unit_group(b * b)
carries the character family, build_unit_group(b) the class numbers.

The prime sieve shared by the truncated Dirichlet sums lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LimitTooLarge
from .front import check_base, prime_factors

# Sieve bound, below 2**32: the primes are uint32, 0.2 GB at the bound.
SIEVE_LIMIT = 1_000_000_000
SIEVE_SEGMENT = 1 << 20  # odd candidates sieved at a time, a byte each: within L2


@dataclass(frozen=True, eq=False)
class UnitGroup:
    """Multiplicative group of Z/qZ with a fixed primitive root.

    units[t] = g**t mod q for t = 0..phi-1, the order in which every
    character sum is a transform; dlog is its inverse, the length-q
    exponent lookup, a = g**dlog[a] (mod q) on the units and -1
    elsewhere.  Both are read-only int64 arrays.
    """

    q: int
    b: int
    phi: int
    g: int
    units: np.ndarray
    dlog: np.ndarray


def _group_with_root(q: int, b: int, phi: int, g: int) -> UnitGroup:
    # units[t] = g**t mod q, filled by doubling the known prefix; every
    # product stays below q**2 <= front.MAX_BASE**4 < 2**63.
    units = np.ones(phi, dtype=np.int64)
    n = 1
    while n < phi:
        k = min(n, phi - n)
        units[n : n + k] = units[:k] * pow(g, n, q) % q
        n += k
    dlog = np.full(q, -1, dtype=np.int64)
    dlog[units] = np.arange(phi)
    if pow(g, phi, q) != 1 or np.count_nonzero(dlog >= 0) != phi:
        raise ValueError(f"{g} is not a primitive root mod {q}")
    dlog.flags.writeable = units.flags.writeable = False
    return UnitGroup(q=q, b=b, phi=phi, g=g, units=units, dlog=dlog)


def build_unit_group(q: int) -> UnitGroup:
    """The unit group mod q = b or q = b**2, b an odd prime up to MAX_BASE, with
    the least primitive root.  Any other q is refused as check_base refuses b."""
    root = math.isqrt(q) if isinstance(q, int) and q > 0 else 0
    b = root if root * root == q else q
    check_base(b)
    phi = q - q // b
    factors = prime_factors(phi)
    # the gcd test first: no power of a non-unit is 1 mod q, so it passes the rest
    g = next(x for x in range(2, q)
             if math.gcd(x, q) == 1 and all(pow(x, phi // p, q) != 1 for p in factors))
    return _group_with_root(q, b, phi, g)


def sieve_primes(limit: int) -> np.ndarray:
    """The primes up to limit inclusive, ascending, as a read-only uint32 array:
    the sieve of Eratosthenes over the odd numbers, segmented (Bays and Hudson,
    1977) so that it holds one SIEVE_SEGMENT of them at a time."""
    if limit < 2:
        raise ValueError(f"sieve limit must be at least 2, got {limit}")
    if limit > SIEVE_LIMIT:
        raise LimitTooLarge(f"sieve limit {limit} exceeds bound {SIEVE_LIMIT}")
    root = math.isqrt(limit)  # the odd base primes, int64: used // 2 - lo wraps in uint32
    base = sieve_primes(root)[1:].astype(np.int64) if root > 1 else np.empty(0, np.int64)
    # pi(x) <= x/ln x * (1 + 1.2762/ln x) for x > 1 (Dusart 1999)
    log = math.log(limit)
    primes = np.empty(int(limit / log * (1 + 1.2762 / log)) + 1, dtype=np.uint32)
    n, n_odd = 0, (limit + 1) // 2  # odd candidate i stands for 2*i + 1, i = 0 for 2
    for lo in range(0, n_odd, SIEVE_SEGMENT):
        segment = np.ones(min(SIEVE_SEGMENT, n_odd - lo), dtype=bool)
        used = base[base * base < 2 * (lo + segment.size)]
        # the first odd multiple of p in the segment, and not below p*p
        starts = np.maximum(used * used // 2, lo + (used // 2 - lo) % used) - lo
        for p, i in zip(used.tolist(), starts.tolist()):
            segment[i::p] = False
        found = np.flatnonzero(segment)
        found *= 2
        found += 2 * lo + 1
        primes[n : n + found.size] = found
        n += found.size
        del segment, found  # before the next segment's
    primes = primes[:n]
    primes[0] = 2
    primes.flags.writeable = False
    return primes
