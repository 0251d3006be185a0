"""Dirichlet characters on the cyclic groups (Z/bZ)* and (Z/b^2 Z)*.

A character is identified by its dual index j against the group's fixed
primitive root g:

    chi_j(g**t) = e(j*t / phi),      e(x) = exp(2*pi*i*x),

extended by chi_j(a) = 0 whenever gcd(a, q) > 1.  Index arithmetic gives
exact closure under conjugation and twisting, and exact answers to the
structural questions: chi_j(-1) = (-1)**j, and chi_j mod b**2 is
primitive exactly when b does not divide j (equivalently, when chi_j is
nontrivial on the subgroup {1 + t*b}).

The root-of-unity table e(k/phi) is evaluated trigonometrically once
per phi, so every character value is a table lookup accurate to a few
ulp; no value is produced by iterated multiplication.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IncompatibleGroups, WrongModulus
from .unit_group import (
    Level,
    UnitGroup,
    _group_with_root,
    _is_primitive_root,
    _prime_factors,
    build_unit_group,
)


class Family(enum.Enum):
    """Character subfamilies of the mod-b**2 dual group."""

    ALL = "all"
    ODD = "odd"
    EVEN = "even"
    PRIMITIVE_ODD = "primitive-odd"
    IMPRIMITIVE_ODD = "imprimitive-odd"


@lru_cache(maxsize=None)
def roots_of_unity(phi: int) -> np.ndarray:
    """e(k/phi) for k = 0..phi-1, each evaluated directly by exp."""
    w = np.exp((2j * np.pi / phi) * np.arange(phi))
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def _unit_phases(group: UnitGroup) -> np.ndarray:
    """Additive twist e(a/q) over ascending units; used by Gauss sums."""
    w = np.exp((2j * np.pi / group.q) * group.units)
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class Character:
    """The character chi_index on group, evaluated via the dlog table."""

    group: UnitGroup
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.group.phi:
            raise ValueError(f"character index {self.index} out of range")

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    @property
    def is_odd(self) -> bool:
        """True iff chi(-1) = -1, equivalently the index is odd."""
        return self.index % 2 == 1

    @property
    def is_even(self) -> bool:
        return not self.is_odd

    def value(self, a: int) -> complex:
        t = int(self.group.dlog[a % self.group.q])
        if t < 0:
            return 0j
        return complex(roots_of_unity(self.group.phi)[self.index * t % self.group.phi])

    def values_on_units(self) -> np.ndarray:
        """Values over the group's units in ascending unit order."""
        return _values_on_units(self)

    def values_by_residue(self) -> np.ndarray:
        """Length-q value table (zeros off the units)."""
        vals = np.zeros(self.group.q, dtype=complex)
        vals[self.group.units] = self.values_on_units()
        return vals

    def conjugate(self) -> "Character":
        return Character(self.group, -self.index % self.group.phi)

    def is_primitive(self) -> bool:
        """Primitivity mod b**2: b does not divide the index."""
        if self.group.q == self.group.b:
            raise WrongModulus("primitivity test is defined here only mod b**2")
        return self.index % self.group.b != 0

    def is_primitive_by_subgroup(self) -> bool:
        """Equivalent test: chi is nontrivial on {1 + t*b}.  Exact, via indices."""
        g = self.group
        if g.q == g.b:
            raise WrongModulus("primitivity test is defined here only mod b**2")
        t = g.dlog[1 + np.arange(1, g.b) * g.b]
        return bool(np.any(self.index * t % g.phi != 0))


@lru_cache(maxsize=512)
def _values_on_units(chi: Character) -> np.ndarray:
    g = chi.group
    vals = roots_of_unity(g.phi)[(chi.index * g.dlog[g.units]) % g.phi]
    vals.flags.writeable = False
    return vals


def family_mask(family: Family, odd: np.ndarray, primitive: np.ndarray) -> np.ndarray:
    """Membership of a family, from the parity and primitivity masks."""
    return {
        Family.ALL: np.ones_like(odd),
        Family.ODD: odd,
        Family.EVEN: ~odd,
        Family.PRIMITIVE_ODD: odd & primitive,
        Family.IMPRIMITIVE_ODD: odd & ~primitive,
    }[family]


def enumerate_family(group: UnitGroup, family: Family = Family.ALL) -> list[Character]:
    """Characters of the group in ascending index order, filtered.

    Parity filters work on either modulus; the primitivity filters need
    the mod-b**2 group.
    """
    if family in (Family.PRIMITIVE_ODD, Family.IMPRIMITIVE_ODD) and group.q == group.b:
        raise WrongModulus(f"{family.value} filter needs the mod-b**2 group")
    idx = np.arange(group.phi)
    keep = family_mask(family, idx % 2 == 1, idx % group.b != 0)
    return [Character(group, j) for j in np.flatnonzero(keep).tolist()]


@lru_cache(maxsize=None)
def gauss_sum(chi: Character) -> complex:
    """tau(chi) = sum_{a mod q} chi(a) e(a/q), by direct summation.

    No primitivity shortcut: imprimitive inputs are summed like any
    other, which is what lets tests observe |tau| = 0 for them.
    """
    return complex(np.dot(chi.values_on_units(), _unit_phases(chi.group)))


def lift_and_twist(xi: Character, chi: Character) -> Character:
    """The mod-b**2 character equal to xi(a) * chi(a) on units.

    xi lives mod b, chi mod b**2, and their primitive roots must be
    compatible (chi's root reduces to xi's).  The lift of xi has index
    b * k_xi, so the product is plain index addition.
    """
    gb, gb2 = xi.group, chi.group
    if gb.q != gb.b or gb2.q != gb2.b**2 or gb.b != gb2.b:
        raise WrongModulus("need xi mod b and chi mod b**2 over the same base")
    if gb2.g % gb.b != gb.g:
        raise IncompatibleGroups(
            f"roots {gb2.g} mod {gb2.q} and {gb.g} mod {gb.q} are not compatible"
        )
    return Character(gb2, (chi.index + gb.b * xi.index) % gb2.phi)


def companion_mod_b(group: UnitGroup) -> UnitGroup:
    """Mod-b group whose primitive root is the reduction of group.g."""
    if group.q == group.b:
        raise WrongModulus("companion is defined for mod-b**2 groups")
    b = group.b
    g = group.g % b
    if not _is_primitive_root(g, b, b - 1, _prime_factors(b - 1)):
        raise IncompatibleGroups(f"{group.g} mod {b} is not a primitive root")
    return _group_with_root(b, b, b - 1, g)


@dataclass(frozen=True, eq=False)
class GroupPair:
    """Unit groups mod b and mod b**2 with compatible primitive roots."""

    mod_b: UnitGroup
    mod_b_squared: UnitGroup


def build_group_pair(b: int) -> GroupPair:
    """Least primitive root mod b, then the least compatible root mod b**2.

    Almost always the least root mod b**2 already reduces correctly; if
    not, walk the progression g, g + b, ... for the least one that does.
    """
    gb = build_unit_group(b, Level.MOD_B)
    gb2 = build_unit_group(b, Level.MOD_B_SQUARED)
    if gb2.g % b != gb.g:
        q, phi = b * b, b * (b - 1)
        factors = _prime_factors(phi)
        g2 = next(
            x
            for x in range(gb.g, q, b)
            if _is_primitive_root(x, q, phi, factors)
        )
        gb2 = _group_with_root(q, b, phi, g2)
    return GroupPair(mod_b=gb, mod_b_squared=gb2)
