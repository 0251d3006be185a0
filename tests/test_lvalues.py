import math
import tracemalloc

import pytest

import numpy as np

from collspec import lvalues
from collspec.characters import Character
from collspec.errors import (
    BadDiscriminant,
    CutoffTooShort,
    LimitTooLarge,
    PrincipalCharacter,
)
from collspec.lvalues import (
    SERIES_LIMIT,
    _harmonic_by_residue,
    class_number_check,
    l_value_series,
    max_partial_sum,
    reduced_forms,
    series_truncation,
    verify_encoding,
)
from collspec.spectrum import spectrum_of
from collspec.unit_group import Level, build_unit_group
from oracles import NotPrimitiveOdd, bernoulli_b1, l_value_closed


def legendre(b):
    group = build_unit_group(b, Level.MOD_B)
    return Character(group, (b - 1) // 2)


def test_closed_form_legendre_mod_7():
    # L(1, chi_{-7}) = pi / sqrt(7) by the class number formula, h = 1
    val = l_value_closed(legendre(7))
    assert abs(val) == pytest.approx(math.pi / math.sqrt(7), rel=1e-13)


def test_closed_form_legendre_mod_3():
    # h(-3) = 1 with 6 units: L = pi / (3 sqrt 3)
    val = l_value_closed(legendre(3))
    assert abs(val) == pytest.approx(math.pi / (3 * math.sqrt(3)), rel=1e-13)


def test_closed_form_rejects_even_and_principal():
    g = build_unit_group(5, Level.MOD_B_SQUARED)
    with pytest.raises(NotPrimitiveOdd):
        l_value_closed(Character(g, 0))
    with pytest.raises(NotPrimitiveOdd):
        l_value_closed(Character(g, 2))
    with pytest.raises(NotPrimitiveOdd):
        l_value_closed(Character(g, 5))  # odd but imprimitive


def test_magnitude_law_mod_25():
    # |B1| = (b/pi) |L| for primitive odd chi mod b^2
    spec = spectrum_of(5)
    for j in np.flatnonzero(spec.odd & spec.primitive).tolist():
        chi = Character(spec.group, j)
        lval = abs(l_value_closed(chi))
        assert abs(bernoulli_b1(chi)) == pytest.approx(5 / math.pi * lval, abs=1e-13)


def test_series_agrees_with_closed_form():
    g = build_unit_group(3, Level.MOD_B_SQUARED)
    closed = l_value_closed(Character(g, 1))
    columns = l_value_series(g, [1], 200_000)
    assert list(columns) == ["series", "series_truncation", "tail_bound"]
    series, n_eff, tail = (columns[k].item() for k in columns)
    assert abs(closed - series) <= tail
    assert n_eff % 9 == 0
    assert n_eff >= 200_000


def test_series_legendre_mod_3():
    # direct alternating structure: 1 - 1/2 + 1/4 - 1/5 + ...
    chi = legendre(3)
    [series] = l_value_series(chi.group, [chi.index], 100_000)["series"]
    assert series.real == pytest.approx(math.pi / (3 * math.sqrt(3)), abs=1e-5)
    assert abs(series.imag) < 1e-15


def test_series_guards():
    g = build_unit_group(3, Level.MOD_B_SQUARED)
    with pytest.raises(PrincipalCharacter):
        l_value_series(g, [1, 0], 10 ** 5)
    with pytest.raises(PrincipalCharacter):
        l_value_series(g, [g.phi], 10 ** 5)  # j is read mod phi
    with pytest.raises(ValueError):
        l_value_series(g, [1], 80)  # below q^2
    with pytest.raises(LimitTooLarge):
        l_value_series(g, [1], SERIES_LIMIT + 1)
    # the range is checked on q alone, before any group or spectrum exists
    assert series_truncation(9, 81) == 81 and series_truncation(9, 82) == 90
    with pytest.raises(CutoffTooShort):
        series_truncation(997 ** 2, SERIES_LIMIT)


def test_series_memory_is_linear_in_q():
    # summing all 10**7 terms at once would peak near 150 MB
    g = build_unit_group(5, Level.MOD_B_SQUARED)
    tracemalloc.start()
    try:
        l_value_series(g, [1], 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_series_family_shapes(monkeypatch):
    spec = spectrum_of(3)
    indices = np.flatnonzero(spec.odd & spec.primitive).tolist()
    assert len(indices) == 2
    tables = []  # one harmonic table serves every j of a call
    monkeypatch.setattr(lvalues, "_harmonic_by_residue",
                        lambda *args: tables.append(args) or _harmonic_by_residue(*args))
    columns = l_value_series(spec.group, indices, 10 ** 5)
    assert tables == [(9, 100_008)]
    for j, series, tail in zip(indices, columns["series"], columns["tail_bound"]):
        closed = l_value_closed(Character(spec.group, j))
        assert abs(closed - series) <= tail + 1e-9


def test_max_partial_sum_bounds():
    g = build_unit_group(5, Level.MOD_B_SQUARED)
    js = [1, 3, 7]
    columns = l_value_series(g, js, 10**5)
    for j, series, n_eff, tail in zip(js, *columns.values()):
        values = np.zeros(g.q, dtype=complex)
        values[g.units] = Character(g, j).values_on_units()
        m = max_partial_sum(values)
        assert 0 < m <= g.phi
        # the series sums this residue table, bit for bit
        assert series == complex(np.dot(values, _harmonic_by_residue(g.q, n_eff)))
        assert tail == m / n_eff
    # j is read mod phi, and each column is the one-j series
    shifted = l_value_series(g, [j - g.phi for j in js], 10**5)
    for key, column in columns.items():
        assert np.array_equal(shifted[key], column)
        assert [l_value_series(g, [j], 10**5)[key][0] for j in js] == column.tolist()


@pytest.mark.parametrize("b", [3, 5, 7, 13])
def test_encoding_rows(b):
    columns = verify_encoding(b)
    assert list(columns) == ["b", "j", "s_hat_abs", "predicted", "residual"]
    assert len(columns["j"]) == (b - 1) ** 2 // 2
    assert columns["residual"].max() < 1e-12
    # np.hypot is Python's abs(complex) bit for bit, so the columns equal
    # the per-character arithmetic exactly.
    spec = spectrum_of(b)
    for row, j in enumerate(columns["j"].tolist()):
        s_hat, l_val, s_g = complex(spec.s_hat[j]), complex(spec.L1[j]), complex(spec.S_G[j])
        predicted = b / (math.pi * spec.group.phi) * abs(l_val) * abs(s_g)
        assert columns["s_hat_abs"][row] == abs(s_hat)
        assert columns["predicted"][row] == predicted
        assert columns["residual"][row] == abs(abs(s_hat) - predicted)


def test_reduced_forms_7():
    assert reduced_forms(-7) == [(1, 1, 2)]


def test_reduced_forms_23():
    assert sorted(reduced_forms(-23)) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]


def test_reduced_forms_4():
    assert reduced_forms(-4) == [(1, 0, 1)]


def test_reduced_forms_guards():
    with pytest.raises(BadDiscriminant):
        reduced_forms(9)
    with pytest.raises(BadDiscriminant):
        reduced_forms(-5)  # -5 = 3 (mod 4): not a discriminant


@pytest.mark.parametrize("b,h", [(7, 1), (11, 1), (19, 1), (23, 3), (43, 1),
                                 (47, 5), (71, 7), (163, 1)])
def test_class_numbers(b, h):
    rec = class_number_check(b)
    assert rec["h_from_L"] == h
    assert rec["h_from_forms"] == h
    assert rec["D"] == -b
    assert abs(rec["pre_rounding"] - h) < 1e-9  # formula is exact, snap is cosmetic


def test_class_number_guards():
    with pytest.raises(BadDiscriminant):
        class_number_check(5)  # 5 = 1 (mod 4)
    with pytest.raises(BadDiscriminant):
        class_number_check(3)  # excluded small case
    with pytest.raises(BadDiscriminant):
        class_number_check(9)
