"""Spectrum layer: Fourier coefficients, B1, diagonal sums, the
factorization, its proof steps, and the moment identity."""

import math
import weakref
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from collspec import cli, spectrum
from collspec.characters import Character
from collspec.collision import collision_invariant, diagonal_set
from collspec.errors import WrongModulus
from collspec.spectrum import (
    centered_square_sum,
    doubling_certificate,
    spectrum_of,
    verify_base5_identities,
    verify_fourth_moment,
    verify_moment,
    verify_proof_steps,
)
from collspec.unit_group import UnitGroup, build_unit_group, sieve_primes
from oracles import (
    _require_primitive_odd,
    ascending,
    bernoulli_b1,
    conjugate,
    diagonal_sum,
    fourier_coefficient,
    is_primitive_by_subgroup,
    l_value_closed,
    short_partial_sum,
)

SMALL_BASES = (3, 5, 7, 11, 13)
G9 = build_unit_group(9)
G3 = build_unit_group(3)
T9 = collision_invariant(G9)
STEP_NAMES = ("centering", "constant", "fractional", "floor", "lemma", "slice",
              "endpoint_bottom", "endpoint_top", "total")


# ====== oracle: the proof steps one character at a time ======


@dataclass(frozen=True)
class ProofStepReport:
    """Residuals of the individual steps behind the factorization.

    All fields are absolute values of float sums that are exactly zero
    in the underlying algebra, except floor/lemma/slice/total which
    compare two computed quantities.
    """

    b: int
    chi_index: int
    centering_residual: float  # sum_a mean(a mod b) conj(chi(a))
    constant_residual: float  # sum_a conj(chi(a))
    fractional_residual: float  # sum_a {a/b} conj(chi(a))
    floor_residual: float  # sum_a floor(a/b) conj(chi(a))  vs  b*B1
    lemma_residual: float  # max_n |sum_a conj(chi(a)){na/m} - chi(n)B1|
    slice_residual: float  # max interior n: sum_a d_n(a)conj(chi(a)) vs (1+chi(n)-chi(n+1))B1
    endpoint_bottom_residual: float  # max_a |d_0(a)|, exact integers
    endpoint_top_residual: float  # |sum_a d_{m-1}(a) conj(chi(a))|
    total_residual: float  # sum_a S(a) conj(chi(a))  vs  -B1*conj(S_G)

    @property
    def max_residual(self) -> float:
        return max(getattr(self, f.name) for f in fields(self) if f.name.endswith("_residual"))


@lru_cache(maxsize=4)
def _fractional_matrix(group: UnitGroup) -> np.ndarray:
    """{n*a/m} for all unit pairs (n, a), ascending; exact small rationals in float."""
    u = np.sort(group.units)
    mat = (u[:, None] * u[None, :] % group.q) / group.q
    mat.flags.writeable = False
    return mat


def per_character_proof_steps(b: int, chi: Character) -> ProofStepReport:
    """Re-derive the factorization for one primitive odd chi, slice by slice."""
    _require_primitive_odd(chi)
    group = chi.group
    if group.q != group.b**2:
        raise WrongModulus("proof steps run on the mod-b**2 group")
    m, phi = group.q, group.phi
    table = spectrum_of(b).table
    order = ascending(group)  # the sums run over ascending a
    units = group.units[order]
    chibar = np.conj(chi.values_on_units()[order])
    b1 = bernoulli_b1(chi)

    means = table.class_sums[units % b] / b
    centering = abs(complex(np.dot(means, chibar)))
    constant = abs(complex(chibar.sum()))
    fractional = abs(complex(np.dot((units % b) / b, chibar)))
    floor_test = abs(complex(np.dot((units // b).astype(float), chibar)) - b * b1)

    # Lemma: sum_a conj(chi(a)) {n a / m} = chi(n) B1, for every unit n.
    chi_vals = chi.values_on_units()[order]
    lemma_vec = _fractional_matrix(group) @ chibar
    lemma = float(np.max(np.abs(lemma_vec - chi_vals * b1)))

    # Interior diagonal slices; endpoints handled separately below.
    diag = diagonal_set(b)
    slice_worst = 0.0
    for n in diag:
        if n == 0 or n == m - 1:
            continue
        d_n = (n + 1) * units // m - n * units // m
        lhs = complex(np.dot(d_n.astype(float), chibar))
        rhs = (1 + chi.value(n) - chi.value(n + 1)) * b1
        slice_worst = max(slice_worst, abs(lhs - rhs))

    d_bottom = units // m  # d_0(a) = floor(a/m), identically zero here
    bottom = float(np.max(np.abs(d_bottom)))
    d_top = m * units // m - (m - 1) * units // m
    top = abs(complex(np.dot(d_top.astype(float), chibar)))

    s_g = diagonal_sum(chi)
    s_vals = table.S[order].astype(float)
    total = abs(complex(np.dot(s_vals, chibar)) + b1 * s_g.conjugate())

    return ProofStepReport(
        b=b,
        chi_index=chi.index,
        centering_residual=centering,
        constant_residual=constant,
        fractional_residual=fractional,
        floor_residual=floor_test,
        lemma_residual=lemma,
        slice_residual=slice_worst,
        endpoint_bottom_residual=bottom,
        endpoint_top_residual=top,
        total_residual=total,
    )


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
        c = fourier_coefficient(T9, conjugate(chi))
        assert c == pytest.approx(a.conjugate(), abs=1e-14)


def test_fourier_inversion_b5():
    g = build_unit_group(25)
    t = collision_invariant(g)
    chars = [Character(g, j) for j in range(g.phi)]
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
    bar = conjugate(chi)
    expected = (bar.value(1) - bar.value(0)) + (bar.value(5) - bar.value(4)) + (
        bar.value(9) - bar.value(8)
    )
    assert diagonal_sum(chi) == pytest.approx(expected)
    assert abs(diagonal_sum(Character(G9, 3))) < 1e-14  # imprimitive odd


def test_short_partial_sum_b3():
    chi = Character(G9, 1)
    bar = conjugate(chi)
    assert short_partial_sum(chi) == pytest.approx(bar.value(1) + bar.value(2))


@pytest.mark.parametrize("b", [3, 5, 13])
def test_decomposition_residuals(b):
    spec = spectrum_of(b)
    group = build_unit_group(b * b)
    assert spec.factorization_residual.shape == (group.phi,)
    prim_odd = spec.odd & spec.primitive
    assert np.count_nonzero(prim_odd) == (b - 1) ** 2 // 2
    assert spec.factorization_residual[prim_odd].max() < 1e-12


@pytest.mark.parametrize("b", [3, 5, 7, 11, 13])
def test_vanishing_families(b):
    spec = spectrum_of(b)
    for j in np.flatnonzero(~spec.odd):
        assert abs(spec.s_hat[j]) < 1e-12
    for j in np.flatnonzero(spec.odd & ~spec.primitive):
        assert abs(spec.s_hat[j]) < 1e-12
        assert abs(spec.S_G[j]) < 1e-13


@pytest.mark.parametrize("b", [5, 7])
def test_proof_steps(b):
    steps, spec = verify_proof_steps(b), spectrum_of(b)
    assert list(steps) == ["b", "j", *STEP_NAMES]
    assert (steps["b"] == b).all()
    assert steps["j"].tolist() == np.flatnonzero(spec.odd & spec.primitive).tolist()
    assert max(steps[name].max() for name in STEP_NAMES) < 1e-12
    assert not steps["endpoint_bottom"].any()  # d_0 is identically zero
    # on the units d_{m-1} is identically 1, so its transform is the constant one's
    assert steps["endpoint_top"].tolist() == steps["constant"].tolist()


@pytest.mark.parametrize("b", [5, 7, 11, 13, 31])
def test_proof_steps_match_per_character_oracle(b):
    steps = verify_proof_steps(b)
    group = spectrum_of(b).group
    for row, j in enumerate(steps["j"].tolist()):
        rep = per_character_proof_steps(b, Character(group, j))
        for name in STEP_NAMES:
            assert abs(steps[name][row] - getattr(rep, f"{name}_residual")) < 1e-12, (j, name)


@pytest.mark.parametrize("b", [5, 13, 31])
def test_proof_steps_take_six_transforms(monkeypatch, b):
    # the slices come from the lemma's transform, the top endpoint from the
    # constant step's: no transform per diagonal slice
    spectrum_of(b)
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kw: calls.append(1) or fft(*args, **kw))
    verify_proof_steps(b)
    assert len(calls) == 6


def test_broken_units_fail_the_lemma_certificate(monkeypatch, capsys):
    # Two units swapped: the units are no longer g**t mod m, so the rows of the
    # lemma are not row 1 rolled, and every lemma and slice cell fails.
    spec = spectrum_of(13)
    units = spec.group.units.copy()
    units[[2, 3]] = units[[3, 2]]
    broken = replace(spec, group=replace(spec.group, units=units))
    monkeypatch.setattr(spectrum, "spectrum_of", lambda b: broken)
    steps = verify_proof_steps(13)
    assert np.isinf(steps["lemma"]).all()
    assert np.isinf(steps["slice"]).all()
    assert cli.main(["verify", "steps", "--base", "13"]) == 1
    assert '"passed": false' in capsys.readouterr().out


def test_a_non_unit_fails_the_endpoint_step(monkeypatch, capsys):
    # A unit replaced by 0, where d_{m-1} is 0 rather than 1: the top endpoint
    # is no longer the constant step's transform, and every cell of it fails.
    spec = spectrum_of(13)
    units = spec.group.units.copy()
    units[5] = 0
    broken = replace(spec, group=replace(spec.group, units=units))
    monkeypatch.setattr(spectrum, "spectrum_of", lambda b: broken)
    steps = verify_proof_steps(13)
    assert np.isinf(steps["endpoint_top"]).all()
    assert np.isfinite(steps["constant"]).all()
    assert cli.main(["verify", "steps", "--base", "13"]) == 1
    assert '"passed": false' in capsys.readouterr().out


def test_broken_dlog_fails_the_total_step(monkeypatch, capsys):
    # The dlogs of 2 and 14 = 1 + b swapped in the group a spectrum is built
    # from: the histograms behind S_G read dlog, so the total step fails.
    group = build_unit_group(169)
    dlog = group.dlog.copy()
    dlog[[2, 14]] = dlog[[14, 2]]
    monkeypatch.setattr(spectrum, "build_unit_group", lambda *args: replace(group, dlog=dlog))
    monkeypatch.setattr(spectrum, "_held", {})
    steps = verify_proof_steps(13)
    assert np.isfinite(steps["lemma"]).all()
    assert steps["total"].max() > 1
    assert cli.main(["verify", "steps", "--base", "13"]) == 1
    assert '"passed": false' in capsys.readouterr().out


def test_moment_b3_exact_target():
    # both sides equal 32 pi^2 / 9 at b = 3
    rep = verify_moment(3)
    target = 32 * math.pi ** 2 / 9
    assert rep["lhs"] == pytest.approx(target, rel=1e-12)
    assert rep["rhs"] == pytest.approx(target, rel=1e-12)
    assert rep["rel_err"] < 1e-12
    assert rep["parseval_rel_err"] < 1e-12


@pytest.mark.parametrize("b", [5, 7, 13])
def test_moment_identity(b):
    rep = verify_moment(b)
    assert rep["rel_err"] < 1e-10
    assert rep["parseval_rel_err"] < 1e-10


def test_centered_square_sum_b3():
    assert centered_square_sum(T9) == 48  # 16/3 over the denominator b^2 = 9


@pytest.mark.parametrize("b", [3, 5, 7, 11, 13, 17, 97])
def test_short_sum_doubling(b):
    columns = verify_base5_identities(b)
    assert columns["doubling_residual"].max() < 1e-12
    # np.hypot is Python's abs(complex) bit for bit, so the columns equal
    # the per-character arithmetic exactly.
    spec = spectrum_of(b)
    for row, j in enumerate(columns["j"].tolist()):
        s_g, p_short, b1 = (complex(spec.S_G[j]), complex(spec.P_short[j]), complex(spec.B1[j]))
        assert columns["S_G_abs"][row] == abs(s_g)
        assert columns["doubling_residual"][row] == abs(abs(s_g) - 2 * abs(p_short))
        if b == 5:
            assert columns["sqrt5_residual"][row] == abs(abs(p_short) - math.sqrt(5) / 2 * abs(b1))


def test_base5_extras():
    assert verify_base5_identities(5)["sqrt5_residual"].max() < 1e-12
    fourth = verify_fourth_moment()
    assert fourth["b"] == 5
    assert fourth["rel_err"] < 1e-12
    # the constant: 4 pi^4 / 625
    assert fourth["rhs"] == pytest.approx(
        4 * math.pi ** 4 / 625 * centered_square_sum(
            collision_invariant(build_unit_group(25))
        ) / 25
    )


def test_broken_dlog_fails_the_doubling_certificate(monkeypatch, capsys):
    # The dlogs of 2 (a term of P) and 14 = 1 + b (a term of S_G) swapped: the
    # diagonal histogram is no longer P's rolled, so every doubling cell fails.
    # A swap inside P's terms, as [2, 3], would leave the certificate true.
    spec = spectrum_of(13)
    dlog = spec.group.dlog.copy()
    dlog[[2, 14]] = dlog[[14, 2]]
    broken = replace(spec, group=replace(spec.group, dlog=dlog))
    monkeypatch.setattr(spectrum, "spectrum_of", lambda b: broken)
    columns = verify_base5_identities(13)
    assert list(columns) == ["b", "j", "S_G_abs", "P_short_abs", "doubling_residual"]
    assert np.isinf(columns["doubling_residual"]).all()
    assert cli.main(["verify", "base5", "--base", "13"]) == 1
    assert '"passed": false' in capsys.readouterr().out


def test_doubling_certificate_at_every_odd_prime_below_1000():
    # The certificate holds at every base, and P's histogram rolled one step too
    # far fails it at every base.
    for b in sieve_primes(1000)[1:].tolist():
        group = build_unit_group(b * b)
        assert doubling_certificate(group), b
        members = np.array(diagonal_set(b))
        h = spectrum._term_histogram(group, members + 1, members)
        p = spectrum._term_histogram(group, np.arange(1, b))
        d = int(group.dlog[1 + b]) + 1
        shifted = np.roll(p, d + group.phi // 2) - np.roll(p, d)
        assert not np.array_equal(h, shifted), b


@pytest.mark.parametrize("b", [5, 13, 97])
def test_factorization_in_the_theorems_form(b):
    # With S_G = -2 conj(chi)(1+b) P on odd chi, s0_hat = 2 chi(1+b) B1 conj(P) / phi,
    # where chi_j(1+b) = e(j d / phi), d = dlog(1+b).
    spec = spectrum_of(b)
    phi, js = spec.group.phi, np.flatnonzero(spec.odd & spec.primitive)
    d = int(spec.group.dlog[1 + b])
    chi_1b = np.exp(2j * np.pi * (js * d % phi) / phi)
    b1, p_short = spec.B1[js], spec.P_short[js]
    assert np.abs(spec.s_hat[js] - 2 * chi_1b * b1 * np.conj(p_short) / phi).max() < 1e-14
    if b == 5:
        # |P| = (sqrt5/2)|B1| turns it into |s0_hat| = sqrt5 |B1|^2 / phi: |S0_hat| ~ |L(1)|^2
        assert np.abs(np.abs(spec.s_hat[js]) - math.sqrt(5) * np.abs(b1) ** 2 / phi).max() < 1e-14


# ====== the Spectrum arrays against the per-character direct sums ======


@pytest.mark.parametrize("b", SMALL_BASES)
def test_spectrum_arrays_match_direct_sums(b):
    spec = spectrum_of(b)
    mod_b = build_unit_group(b)  # chi_{b*k} mod b**2 is induced by chi_k mod b
    assert mod_b.g == spec.group.g % b
    for j in range(spec.group.phi):
        chi = Character(spec.group, j)
        assert abs(spec.s_hat[j] - fourier_coefficient(spec.table, chi)) < 1e-12
        assert abs(spec.B1[j] - bernoulli_b1(chi)) < 1e-12
        if j % 2 == 1 and j % b != 0:
            assert abs(spec.L1[j] - l_value_closed(chi)) < 1e-12
        elif j % 2 == 1:  # L(1) of the inducing character: chi_{b*k}(b) = 0 drops no term
            assert abs(spec.L1[j] - l_value_closed(Character(mod_b, j // b))) < 1e-12
        assert abs(spec.S_G[j] - diagonal_sum(chi)) < 1e-12
        assert abs(spec.P_short[j] - short_partial_sum(chi)) < 1e-12
        if j % b == 0:  # from the exact fold of the histogram mod b - 1
            assert spec.S_G[j] == 0
            assert abs(diagonal_sum(chi)) < 1e-14
        assert spec.odd[j] == (chi.value(-1).real < 0)  # chi(-1) = -1
        assert spec.primitive[j] == is_primitive_by_subgroup(chi)


def test_building_a_spectrum_frees_the_last_one(monkeypatch):
    # Every caller takes one base at a time: base 7's spectrum is built only
    # after base 5's is gone, and asking for base 7 again builds nothing.
    ref = weakref.ref(spectrum_of(5))
    build, alive = spectrum.build_unit_group, []

    def recording(*args):
        alive.append(ref() is not None)
        return build(*args)

    monkeypatch.setattr(spectrum, "build_unit_group", recording)
    spec = spectrum_of(7)
    assert alive == [False]
    assert spectrum_of(7) is spec and alive == [False]


@pytest.mark.parametrize("b", [31, 59, 61])
def test_imprimitive_diagonal_sums_are_the_direct_sums(b):
    # The vanishing S_G of spectrum-scan's bases: the fold of the histogram mod
    # b - 1 is exactly 0, where a length-phi transform would round to 8.9e-15 at b = 61.
    spec = spectrum_of(b)
    assert not spec.S_G[::b].any()
    for j in range(0, spec.group.phi, b):
        assert abs(diagonal_sum(Character(spec.group, j))) < 1e-14


@pytest.mark.parametrize("b", SMALL_BASES)
def test_companion_transforms_match_direct_sums(b):
    group = build_unit_group(b)  # class numbers' group
    l1 = spectrum.odd_l_values(group)
    for j in range(1, group.phi, 2):  # every odd chi mod b is primitive
        assert abs(l1[j] - l_value_closed(Character(group, j))) < 1e-12


@pytest.mark.parametrize("b", SMALL_BASES)
def test_spectrum_families_match_enumeration(b):
    # the masks against the definitions: chi(-1) = -1, and chi nontrivial on {1 + tb}
    spec = spectrum_of(b)
    phi = spec.group.phi
    chars = [Character(spec.group, j) for j in range(phi)]
    odd = {chi.index for chi in chars if chi.value(-1).real < 0}
    primitive = {chi.index for chi in chars if is_primitive_by_subgroup(chi)}
    even, prim_odd, imprim_odd = ~spec.odd, spec.odd & spec.primitive, spec.odd & ~spec.primitive
    for mask, expected in [(spec.odd, odd), (spec.primitive, primitive),
                           (even, set(range(phi)) - odd), (prim_odd, odd & primitive),
                           (imprim_odd, odd - primitive)]:
        assert np.flatnonzero(mask).tolist() == sorted(expected)
    # even, primitive odd and imprimitive odd partition the dual group
    assert (even.astype(int) + prim_odd + imprim_odd == 1).all()
    assert np.count_nonzero(prim_odd) == {3: 2, 5: 8, 7: 18, 11: 50, 13: 72}[b]  # (b-1)^2/2
