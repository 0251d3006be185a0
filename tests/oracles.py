"""Per-character reference sums: the independent routes the tests hold the
library's arrays over the dual index j to.

Each function evaluates one character chi_j, as a `Character`, by direct
summation over its values.  None of them is on a command's path.
"""

import math

import numpy as np

from collspec.characters import Character, gauss_sum
from collspec.collision import CollisionTable, diagonal_set
from collspec.errors import NotPrimitiveOdd, WrongModulus


def conjugate(chi: Character) -> Character:
    """conj(chi_j) = chi_{-j}."""
    return Character(chi.group, -chi.index % chi.group.phi)


def fourier_coefficient(table: CollisionTable, chi: Character) -> complex:
    """s0_hat(chi) = (1/phi) sum_a S0(a) conj(chi(a))."""
    if chi.group.q != table.m:
        raise WrongModulus("table and character moduli differ")
    vals = np.conj(chi.values_on_units())
    return complex(np.dot(table.S0_num / table.b, vals)) / chi.group.phi


def bernoulli_b1(chi: Character) -> complex:
    """First generalized Bernoulli number of the conjugate character.

    (1/q) * sum_a a * conj(chi(a)) over a in [1, q).  Works on either
    modulus.
    """
    g = chi.group
    weights = g.units.astype(float)
    return complex(np.dot(weights, np.conj(chi.values_on_units()))) / g.q


def diagonal_sum(chi: Character) -> complex:
    """S_G(chi) = sum_{n in G} [conj(chi)(n+1) - conj(chi)(n)]."""
    chibar = conjugate(chi)
    total = 0j
    for n in diagonal_set(chi.group.b):
        total += chibar.value(n + 1) - chibar.value(n)
    return total


def short_partial_sum(chi: Character) -> complex:
    """P(chi) = sum_{k=1}^{b-1} conj(chi)(k), the short initial segment."""
    chibar = conjugate(chi)
    return sum((chibar.value(k) for k in range(1, chi.group.b)), 0j)


def _require_primitive_odd(chi: Character) -> None:
    odd = chi.index % 2 == 1
    if chi.group.q == chi.group.b:
        if not odd:
            raise NotPrimitiveOdd(f"chi_{chi.index} mod {chi.group.q} is even")
    elif not (odd and chi.index % chi.group.b != 0):
        raise NotPrimitiveOdd(
            f"chi_{chi.index} mod {chi.group.q} is not primitive odd"
        )


def l_value_closed(chi: Character) -> complex:
    """L(1, chi) = i pi tau(chi) B1(conj chi) / q for odd primitive chi."""
    _require_primitive_odd(chi)
    return 1j * math.pi * gauss_sum(chi) * bernoulli_b1(chi) / chi.group.q


def is_primitive_by_subgroup(chi: Character) -> bool:
    """Primitivity mod b**2 as chi nontrivial on {1 + t*b}.  Exact, via indices;
    the library's test is the index rule b does not divide j."""
    g = chi.group
    if g.q == g.b:
        raise WrongModulus("primitivity test is defined here only mod b**2")
    t = g.dlog[1 + np.arange(1, g.b) * g.b]
    return bool(np.any(chi.index * t % g.phi != 0))
