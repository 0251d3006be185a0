"""Cyclic unit groups of Z/qZ for q = b and q = b**2, b an odd prime.

For an odd prime b both unit groups are cyclic, so fixing a primitive
root g identifies the dual group with Z/phi(q)Z: every unit a equals
g**t for a unique exponent t = dlog(a), and character evaluation
downstream reduces to index arithmetic mod phi(q).  Residues are kept
canonical (in {0, ..., q-1}) throughout; "unit" always means
gcd(a, q) = 1.

The prime sieve shared by the truncated Dirichlet sums lives here too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import LimitTooLarge
from .front import MAX_BASE, check_base, is_odd_prime  # numpy-free; re-exported here

# Sieve memory bound: one byte per odd candidate, 0.5 GB at the bound.
SIEVE_LIMIT = 1_000_000_000


class Level(enum.Enum):
    """Which modulus the group lives on."""

    MOD_B = "b"
    MOD_B_SQUARED = "b^2"


def _prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def _is_primitive_root(x: int, q: int, phi: int, phi_factors: tuple[int, ...]) -> bool:
    if math.gcd(x, q) != 1:
        return False
    return all(pow(x, phi // p, q) != 1 for p in phi_factors)


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
    # product stays below q**2 <= MAX_BASE**4 < 2**63.
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


def build_unit_group(b: int, level: Level = Level.MOD_B_SQUARED) -> UnitGroup:
    """Build the unit group mod b or mod b**2 with the least primitive root."""
    check_base(b)
    if level is Level.MOD_B:
        q, phi = b, b - 1
    else:
        q, phi = b * b, b * (b - 1)
    factors = _prime_factors(phi)
    g = next(x for x in range(2, q) if _is_primitive_root(x, q, phi, factors))
    return _group_with_root(q, b, phi, g)


def sieve_primes(limit: int) -> np.ndarray:
    """The primes up to limit inclusive, ascending, as a read-only int64 array:
    the sieve of Eratosthenes over the odd numbers."""
    if limit < 2:
        raise ValueError(f"sieve limit must be at least 2, got {limit}")
    if limit > SIEVE_LIMIT:
        raise LimitTooLarge(f"sieve limit {limit} exceeds bound {SIEVE_LIMIT}")
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2*i + 1, odd[0] for 2
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2  # in place: the prime list is the largest array here
    primes += 1
    primes[0] = 2
    primes.flags.writeable = False
    return primes
