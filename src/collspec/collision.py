"""The collision invariant on (Z/b^2 Z)* and its exact centering.

With m = b**2, the invariant of a unit a is assembled from floor-count
slices along the diagonal set G of residues whose two base-b digits
agree:

    G = {n in [0, m) : floor(n/b) = n mod b} = {r*(b+1) : 0 <= r < b},
    d_n(a) = floor((n+1)*a/m) - floor(n*a/m),
    S(a)   = -1 - floor(a/b) + sum_{n in G} d_n(a).

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


@dataclass(frozen=True)
class DiagonalSet:
    """Residues mod b**2 whose quotient and remainder base b agree."""

    b: int
    members: tuple[int, ...]


def diagonal_set(b: int) -> DiagonalSet:
    """Closed form {r*(b+1) : 0 <= r < b}; see diagonal_set_by_scan."""
    return DiagonalSet(b=b, members=tuple(r * (b + 1) for r in range(b)))


def diagonal_set_by_scan(b: int) -> tuple[int, ...]:
    """Digit-coincidence scan over all of [0, b**2); the slow twin."""
    return tuple(n for n in range(b * b) if n // b == n % b)


def coset_sums(b: int, units: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Exact int64 sums of values over the cosets a = k (mod b), indexed by k."""
    sums = np.zeros(b, dtype=np.int64)
    np.add.at(sums, units % b, values)
    return sums


@dataclass(frozen=True, eq=False)
class CollisionTable:
    """S and its centered companion over the units mod m = b**2.

    units (ascending), S and S0_num are aligned read-only int64 arrays;
    the centered value is S0 = S0_num / b exactly.  class_sums[k] is the
    sum of S over the coset a = k (mod b), so the coset mean is
    class_sums[k] / b and b*S = S0_num + class_sums[units % b].
    """

    m: int
    b: int
    units: np.ndarray
    S: np.ndarray
    S0_num: np.ndarray
    class_sums: np.ndarray


def collision_invariant(group: UnitGroup) -> CollisionTable:
    """Tabulate S and S0 over the units of the mod-b**2 group."""
    if group.q != group.b**2:
        raise WrongModulus("the collision invariant lives mod b**2")
    b, m = group.b, group.q
    units = group.units

    # One diagonal slice at a time keeps the memory O(phi); every product
    # stays below m**2 <= MAX_BASE**4 < 2**63.
    s = -1 - units // b
    for n in diagonal_set(b).members:
        s += (n + 1) * units // m - n * units // m

    class_sums = coset_sums(b, units, s)
    s0_num = b * s - class_sums[units % b]
    for arr in (s, s0_num, class_sums):
        arr.flags.writeable = False
    return CollisionTable(m=m, b=b, units=units, S=s, S0_num=s0_num, class_sums=class_sums)
