"""The collision invariant on (Z/b^2 Z)* and its exact centering.

With m = b**2, the invariant of a unit a is assembled from floor-count
slices along the diagonal set G of residues whose two base-b digits
agree:

    G = {n in [0, m) : floor(n/b) = n mod b} = {r*(b+1) : 0 <= r < b},
    d_n(a) = floor((n+1)*a/m) - floor(n*a/m),
    S(a)   = -1 - floor(a/b) + sum_{n in G} d_n(a).

The sum over G is two floor sums over r < b, each taken by a Euclid-like
reduction: O(phi log m) for the table rather than O(b*phi).

Centering subtracts the mean of S over the coset a = k (mod b).  Every
coset mean and every centered value S0 is a rational over the single
denominator b, so the table keeps the integer numerators
S0_num = b*S0 and no rational objects: the coset sums of S0 vanish and
the antisymmetry S0(m - a) = -S0(a) holds in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WrongModulus
from .unit_group import UnitGroup


def diagonal_set(b: int) -> tuple[int, ...]:
    """The residues mod b**2 whose quotient and remainder base b agree, by the
    closed form {r*(b+1) : 0 <= r < b}."""
    return tuple(r * (b + 1) for r in range(b))


def coset_sums(b: int, units: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Exact int64 sums of values over the cosets a = k (mod b), indexed by k."""
    sums = np.zeros(b, dtype=np.int64)
    np.add.at(sums, units % b, values)
    return sums


@dataclass(frozen=True, eq=False)
class CollisionTable:
    """S and its centered companion over the units mod m = b**2.

    units (the group's, a = g**t), S and S0_num are aligned read-only
    int64 arrays; the centered value is S0 = S0_num / b exactly.
    class_sums[k] is the sum of S over the coset a = k (mod b), so the
    coset mean is class_sums[k] / b and b*S = S0_num + class_sums[units % b].
    """

    m: int
    b: int
    units: np.ndarray
    S: np.ndarray
    S0_num: np.ndarray
    class_sums: np.ndarray


FLOOR_SUM_BLOCK = 1 << 14  # units per floor_sums call: temporaries of 128 KB each


def floor_sums(n, alpha, gamma, mu) -> np.ndarray:
    """sum_{i<n} floor((alpha*i + gamma)/mu) elementwise over broadcast int64
    arrays (n, alpha, gamma >= 0, mu > 0) by the Euclid-like reduction:
    O(log mu) passes, no intermediate above the result or mu*(n + 1)."""
    n, alpha, gamma, mu = np.broadcast_arrays(n, alpha, gamma, mu)
    total, live = np.zeros(n.shape, dtype=np.int64), np.arange(n.size)
    while live.size:  # take out alpha // mu and gamma // mu, then swap alpha and mu
        (q, alpha), (r, gamma) = np.divmod(alpha, mu), np.divmod(gamma, mu)
        total[live] += n * (n - 1) // 2 * q + n * r
        y = alpha * n + gamma
        go = y >= mu  # else every term is below mu: done
        live, (n, gamma), alpha, mu = live[go], np.divmod(y[go], mu[go]), mu[go], alpha[go]
    return total


def collision_invariant(group: UnitGroup) -> CollisionTable:
    """Tabulate S and S0 over the units of the mod-b**2 group."""
    if group.q != group.b**2:
        raise WrongModulus("the collision invariant lives mod b**2")
    b, m = group.b, group.q
    units = group.units

    # With n = r*(b+1) and A = (b+1)*a mod m (multiples of m cancel), the sum over
    # G is sum_{r<b} floor((r*A + a)/m) - floor(r*A/m), in blocks of units: O(phi)
    # memory.  As A, a < m, every value stays below m*(b + 1) <= MAX_BASE**3 < 2**63.
    s = -1 - units // b
    for lo in range(0, len(units), FLOOR_SUM_BLOCK):
        a = units[lo:lo + FLOOR_SUM_BLOCK]
        step = (b + 1) * a % m
        s[lo:lo + FLOOR_SUM_BLOCK] += floor_sums(b, step, a, m) - floor_sums(b, step, 0, m)

    class_sums = coset_sums(b, units, s)
    s0_num = class_sums[units % b]
    np.subtract(b * s, s0_num, out=s0_num)  # at most three length-phi arrays at once
    for arr in (s, s0_num, class_sums):
        arr.flags.writeable = False
    return CollisionTable(m=m, b=b, units=units, S=s, S0_num=s0_num, class_sums=class_sums)
