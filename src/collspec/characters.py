"""Dirichlet characters on the cyclic groups (Z/bZ)* and (Z/b^2 Z)*.

A character is named by its dual index j against the group's fixed
primitive root g:

    chi_j(g**t) = e(j*t / phi),      e(x) = exp(2*pi*i*x),

extended by chi_j(a) = 0 whenever gcd(a, q) > 1.  Index arithmetic gives
exact closure under conjugation (j -> -j) and twisting (adding b*k twists
by chi_k mod b), and exact answers to the structural questions:
chi_j(-1) = (-1)**j, and chi_j mod b**2 is primitive exactly when b does
not divide j.  The families are masks over j built from those two.

The root-of-unity table e(k/phi) is evaluated trigonometrically once
per phi, so every character value is a table lookup accurate to a few
ulp; no value is produced by iterated multiplication.

The library works on arrays over j and computes no Gauss sum: L(1, chi)
comes from the cotangent formula (spectrum.odd_l_values).  Character,
its value table _values_on_units and gauss_sum evaluate one chi_j at a
time; no command calls them, and they stay only because the benchmark's
tracer (perfbench/traced.py) hooks them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .unit_group import UnitGroup


@lru_cache(maxsize=None)
def roots_of_unity(phi: int) -> np.ndarray:
    """e(k/phi) for k = 0..phi-1, each evaluated directly by exp."""
    w = np.exp((2j * np.pi / phi) * np.arange(phi))
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

    def value(self, a: int) -> complex:
        t = int(self.group.dlog[a % self.group.q])
        if t < 0:
            return 0j
        return complex(roots_of_unity(self.group.phi)[self.index * t % self.group.phi])

    def values_on_units(self) -> np.ndarray:
        """Values over the group's units, in their order a = g**t."""
        return _values_on_units(self)


@lru_cache(maxsize=512)
def _values_on_units(chi: Character) -> np.ndarray:
    g = chi.group
    vals = roots_of_unity(g.phi)[chi.index * np.arange(g.phi) % g.phi]
    vals.flags.writeable = False
    return vals


@lru_cache(maxsize=None)
def gauss_sum(chi: Character) -> complex:
    """tau(chi) = sum_{a mod q} chi(a) e(a/q), by direct summation.

    No primitivity shortcut: imprimitive inputs are summed like any
    other, which is what lets tests observe |tau| = 0 for them.
    """
    g = chi.group
    return complex(np.dot(chi.values_on_units(), np.exp((2j * np.pi / g.q) * g.units)))
