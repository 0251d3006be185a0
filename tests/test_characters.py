import math

import numpy as np
import pytest

from collspec.characters import Character, gauss_sum
from collspec.unit_group import Level, build_unit_group
from oracles import conjugate, is_primitive_by_subgroup

G9 = build_unit_group(3, Level.MOD_B_SQUARED)
G3 = build_unit_group(3, Level.MOD_B)


def test_principal_character():
    chi0 = Character(G9, 0)
    assert chi0.value(7) == 1
    assert chi0.value(6) == 0  # not a unit
    assert chi0.value(16) == 1  # reduces mod 9
    assert chi0.value(G9.q - 1) == 1  # even


def test_index_out_of_range():
    with pytest.raises(ValueError):
        Character(G9, 6)
    with pytest.raises(ValueError):
        Character(G9, -1)


def test_character_values_are_phi_th_roots():
    for j in range(G9.phi):
        chi = Character(G9, j)
        for a in G9.units:
            assert abs(chi.value(a) ** G9.phi - 1) < 1e-12


def test_quadratic_character_mod_9():
    # j = 3 has order 2: values are +-1 on units
    chi = Character(G9, 3)
    assert chi.value(1) == pytest.approx(1)
    # 5 = g^5, so chi(5) = (-1)^5 = -1
    assert chi.value(5) == pytest.approx(-1)
    assert chi.value(G9.q - 1) == pytest.approx(-1)  # odd


def test_parity_matches_value_at_minus_one():
    # chi_j(-1) = (-1)**j: the parity rule behind Spectrum.odd
    for j in range(G9.phi):
        v = Character(G9, j).value(G9.q - 1)
        assert v == pytest.approx((-1) ** j)


def test_conjugate_is_pointwise_conjugate():
    chi = Character(G9, 1)
    bar = conjugate(chi)  # index -j
    for a in G9.units:
        assert bar.value(a) == pytest.approx(chi.value(a).conjugate())


def test_multiplicativity():
    chi = Character(G9, 1)
    for a in G9.units:
        for c in G9.units:
            assert chi.value(a * c) == pytest.approx(chi.value(a) * chi.value(c))


@pytest.mark.parametrize("b", [3, 5, 7, 11, 13])
def test_primitivity_definitions_agree(b):
    """Index test (b does not divide j) vs restriction to 1 + tb."""
    g = build_unit_group(b, Level.MOD_B_SQUARED)
    for j in range(g.phi):
        assert (j % b != 0) == is_primitive_by_subgroup(Character(g, j))


@pytest.mark.parametrize("b", [3, 5, 7])
@pytest.mark.parametrize("level", [Level.MOD_B, Level.MOD_B_SQUARED])
def test_gauss_sum_magnitude(b, level):
    # |tau(chi)| = sqrt(q) for primitive chi
    g = build_unit_group(b, level)
    for j in range(1, g.phi):
        if level is Level.MOD_B_SQUARED and j % b == 0:  # imprimitive
            continue
        assert abs(gauss_sum(Character(g, j))) == pytest.approx(math.sqrt(g.q), abs=1e-10)


def test_gauss_sum_principal_is_mu():
    # Ramanujan sum at 1: sum of e(a/b) over units = mu(b) = -1 for prime b
    assert gauss_sum(Character(G3, 0)) == pytest.approx(-1)


def test_gauss_sum_imprimitive_vanishes():
    chi = Character(G9, 3)  # conductor 3
    assert abs(gauss_sum(chi)) < 1e-12


def test_gauss_sum_oracle_direct():
    chi = Character(G3, 1)
    direct = sum(
        chi.value(a) * complex(math.cos(2 * math.pi * a / 3),
                               math.sin(2 * math.pi * a / 3))
        for a in (1, 2)
    )
    assert gauss_sum(chi) == pytest.approx(direct)


def test_orthogonality():
    for b in (3, 5, 7):
        g = build_unit_group(b, Level.MOD_B_SQUARED)
        for j in range(g.phi):
            total = Character(g, j).values_on_units().sum()
            expected = g.phi if j == 0 else 0.0
            assert abs(total - expected) < 1e-9


@pytest.mark.parametrize("b", [3, 5, 7, 11, 13])
def test_primitive_characters_kill_cosets(b):
    # sum of chi over a coset of 1 + tb vanishes for primitive chi
    g = build_unit_group(b, Level.MOD_B_SQUARED)
    chi = Character(g, 1)
    assert is_primitive_by_subgroup(chi)
    coset = [(2 * (1 + t * b)) % g.q for t in range(b)]
    assert abs(sum(chi.value(a) for a in coset)) < 1e-10


def test_lift_and_twist_pointwise():
    """xi_k mod b times chi_j mod b**2 is chi_{j + b*k} on the units: the index
    rule packets twist by, with the mod-b root the reduction of the mod-b**2 one."""
    gb, gb2 = build_unit_group(3, Level.MOD_B), build_unit_group(3, Level.MOD_B_SQUARED)
    assert gb2.g % 3 == gb.g
    for jx in range(gb.phi):  # jx = 0: the principal xi leaves chi unchanged
        xi = Character(gb, jx)
        for jc in range(gb2.phi):
            chi = Character(gb2, jc)
            tw = Character(gb2, (jc + 3 * jx) % gb2.phi)
            for a in gb2.units:
                assert tw.value(a) == pytest.approx(xi.value(a % 3) * chi.value(a))


def test_lift_principal_is_identity():
    """The principal xi mod b leaves chi mod b**2 unchanged: index j + b*0 = j."""
    gb, gb2 = build_unit_group(5, Level.MOD_B), build_unit_group(5, Level.MOD_B_SQUARED)
    xi0, chi = Character(gb, 0), Character(gb2, 3)
    assert (chi.index + 5 * xi0.index) % gb2.phi == chi.index
    for a in gb2.units:
        assert xi0.value(a % 5) * chi.value(a) == chi.value(a)
