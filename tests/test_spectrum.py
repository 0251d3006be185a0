"""Spectrum layer: Fourier coefficients, B1, diagonal sums, the
factorization, its proof steps, and the moment identity."""

import math
from fractions import Fraction

import pytest

from collspec.characters import Character, Family, companion_mod_b, enumerate_family, gauss_sum
from collspec.collision import collision_invariant
from collspec.errors import NotPrimitiveOdd, WrongModulus
from collspec.lvalues import l_value_closed
from collspec.spectrum import (
    DOUBLING_VERIFIED_MAX,
    bernoulli_b1,
    centered_square_sum,
    diagonal_sum,
    dual_transforms,
    fourier_coefficient,
    short_partial_sum,
    spectrum_of,
    verify_base5_identities,
    verify_moment,
    verify_proof_steps,
)
from collspec.unit_group import Level, build_unit_group

SMALL_BASES = (3, 5, 7, 11, 13)
G9 = build_unit_group(3, Level.MOD_B_SQUARED)
G3 = build_unit_group(3, Level.MOD_B)
T9 = collision_invariant(G9)


def test_hand_coefficient_b3():
    # s0_hat(chi_1) = (1/6) sum S0(a) conj(chi_1(a)) = 1/3 - i/sqrt(3)
    chi = Character(G9, 1)
    val = fourier_coefficient(T9, chi)
    assert val.real == pytest.approx(1 / 3, abs=1e-14)
    assert val.imag == pytest.approx(-1 / math.sqrt(3), abs=1e-14)


def test_principal_coefficient_vanishes():
    assert abs(fourier_coefficient(T9, Character(G9, 0))) < 1e-14


def test_coefficient_conjugate_symmetry():
    # S0 is real, so s0_hat(conj chi) = conj(s0_hat(chi))
    for j in range(1, 6):
        chi = Character(G9, j)
        a = fourier_coefficient(T9, chi)
        c = fourier_coefficient(T9, chi.conjugate())
        assert c == pytest.approx(a.conjugate(), abs=1e-14)


def test_fourier_inversion_b5():
    g = build_unit_group(5, Level.MOD_B_SQUARED)
    t = collision_invariant(g)
    chars = enumerate_family(g, Family.ALL)
    coeffs = {c.index: fourier_coefficient(t, c) for c in chars}
    for a, num in list(zip(t.units.tolist(), t.S0_num.tolist()))[:5]:
        rebuilt = sum(coeffs[c.index] * c.value(a) for c in chars)
        assert rebuilt.real == pytest.approx(float(Fraction(num, 5)), abs=1e-12)
        assert abs(rebuilt.imag) < 1e-12


def test_table_group_mismatch():
    with pytest.raises(WrongModulus):
        fourier_coefficient(T9, Character(G3, 1))


def test_bernoulli_principal_mod_9():
    # (1/9) * (1+2+4+5+7+8) = 3
    assert bernoulli_b1(Character(G9, 0)) == pytest.approx(3.0)


def test_bernoulli_legendre_mod_3():
    # (1/3)(1*1 + 2*(-1)) = -1/3
    assert bernoulli_b1(Character(G3, 1)) == pytest.approx(-1 / 3)


def test_bernoulli_even_nonprincipal_vanishes():
    for j in (2, 4):
        assert abs(bernoulli_b1(Character(G9, j))) < 1e-12


def test_bernoulli_b3_primitive():
    # hand value for chi_1 mod 9 (B1 of the conjugate character)
    val = bernoulli_b1(Character(G9, 1))
    assert val.real == pytest.approx(-1.0, abs=1e-14)
    assert val.imag == pytest.approx(1 / math.sqrt(3), abs=1e-14)


def test_diagonal_sum_hand_b3():
    # G = {0,4,8}: S_G(chi) = sum conj(chi)(n+1) - conj(chi)(n)
    chi = Character(G9, 1)
    bar = chi.conjugate()
    expected = (bar.value(1) - bar.value(0)) + (bar.value(5) - bar.value(4)) + (
        bar.value(9) - bar.value(8)
    )
    assert diagonal_sum(chi) == pytest.approx(expected)
    assert abs(diagonal_sum(Character(G9, 3))) < 1e-14  # imprimitive odd


def test_short_partial_sum_b3():
    chi = Character(G9, 1)
    bar = chi.conjugate()
    assert short_partial_sum(chi) == pytest.approx(bar.value(1) + bar.value(2))


@pytest.mark.parametrize("b", [3, 5, 13])
def test_decomposition_residuals(b):
    spec = spectrum_of(b)
    group = build_unit_group(b, Level.MOD_B_SQUARED)
    assert spec.factorization_residual.shape == (group.phi,)
    prim_odd = spec.indices(Family.PRIMITIVE_ODD)
    assert len(prim_odd) == (b - 1) ** 2 // 2
    assert spec.factorization_residual[prim_odd].max() < 1e-12


@pytest.mark.parametrize("b", [3, 5, 7, 11, 13])
def test_vanishing_families(b):
    spec = spectrum_of(b)
    for j in spec.indices(Family.EVEN):
        assert abs(spec.s_hat[j]) < 1e-12
    for j in spec.indices(Family.IMPRIMITIVE_ODD):
        assert abs(spec.s_hat[j]) < 1e-12
        assert abs(spec.S_G[j]) < 1e-13


@pytest.mark.parametrize("b", [5, 7])
def test_proof_steps(b):
    group = build_unit_group(b, Level.MOD_B_SQUARED)
    for chi in enumerate_family(group, Family.PRIMITIVE_ODD):
        rep = verify_proof_steps(b, chi)
        assert rep.max_residual < 1e-12
        assert rep.endpoint_bottom_residual == 0.0  # d_0 is identically zero


def test_proof_steps_reject_non_primitive():
    with pytest.raises(NotPrimitiveOdd):
        verify_proof_steps(3, Character(G9, 2))
    with pytest.raises(NotPrimitiveOdd):
        verify_proof_steps(3, Character(G9, 3))


def test_moment_b3_exact_target():
    # both sides equal 32 pi^2 / 9 at b = 3
    rep = verify_moment(3)
    target = 32 * math.pi ** 2 / 9
    assert rep.lhs == pytest.approx(target, rel=1e-12)
    assert rep.rhs == pytest.approx(target, rel=1e-12)
    assert rep.rel_err < 1e-12
    assert rep.parseval_rel_err < 1e-12


@pytest.mark.parametrize("b", [5, 7, 13])
def test_moment_identity(b):
    rep = verify_moment(b)
    assert rep.rel_err < 1e-10
    assert rep.parseval_rel_err < 1e-10


def test_centered_square_sum_b3():
    assert centered_square_sum(T9) == Fraction(16, 3)


@pytest.mark.parametrize("b", [3, 5, 7, 11, 13])
def test_short_sum_doubling(b):
    rep = verify_base5_identities(b)
    assert rep.in_verified_range
    assert rep.max_doubling_residual < 1e-12


def test_base5_extras():
    rep = verify_base5_identities(5)
    assert rep.max_sqrt5_residual < 1e-12
    assert rep.fourth_moment.rel_err < 1e-12
    # the constant: 4 pi^4 / 625
    assert rep.fourth_moment.rhs == pytest.approx(
        4 * math.pi ** 4 / 625 * float(centered_square_sum(
            collision_invariant(build_unit_group(5, Level.MOD_B_SQUARED))
        ))
    )


def test_beyond_doubling_range_is_reported_not_gated():
    assert DOUBLING_VERIFIED_MAX == 13
    rep = verify_base5_identities(17)
    assert not rep.in_verified_range
    assert rep.fourth_moment is None
    assert rep.max_sqrt5_residual is None
    assert len(rep.rows) == (17 - 1) ** 2 // 2


# ====== the Spectrum arrays against the per-character direct sums ======


@pytest.mark.parametrize("b", SMALL_BASES)
def test_spectrum_arrays_match_direct_sums(b):
    spec = spectrum_of(b)
    for chi in enumerate_family(spec.group, Family.ALL):
        j = chi.index
        b1, tau = bernoulli_b1(chi), gauss_sum(chi)
        if chi.is_odd and chi.is_primitive():
            l1 = l_value_closed(chi).value
        else:
            l1 = 1j * math.pi * tau * b1 / spec.group.q  # the formula, off its domain
        assert abs(spec.s_hat[j] - fourier_coefficient(spec.table, chi)) < 1e-12
        assert abs(spec.B1[j] - b1) < 1e-12
        assert abs(spec.tau[j] - tau) < 1e-12
        assert abs(spec.L1[j] - l1) < 1e-12
        # the short sums are accumulated term by term in the direct order
        assert spec.S_G[j] == diagonal_sum(chi)
        assert spec.P_short[j] == short_partial_sum(chi)
        assert spec.odd[j] == chi.is_odd
        assert spec.primitive[j] == chi.is_primitive()


@pytest.mark.parametrize("b", SMALL_BASES)
def test_companion_transforms_match_direct_sums(b):
    group = companion_mod_b(spectrum_of(b).group)
    b1, tau, l1 = dual_transforms(group)
    for chi in enumerate_family(group, Family.ALL):
        j = chi.index
        assert abs(b1[j] - bernoulli_b1(chi)) < 1e-12
        assert abs(tau[j] - gauss_sum(chi)) < 1e-12
        if chi.is_odd:
            assert abs(l1[j] - l_value_closed(chi).value) < 1e-12


@pytest.mark.parametrize("b", SMALL_BASES)
def test_spectrum_families_match_enumeration(b):
    spec = spectrum_of(b)
    for family in Family:
        expected = [chi.index for chi in enumerate_family(spec.group, family)]
        assert spec.indices(family).tolist() == expected
