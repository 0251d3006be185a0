import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collspec.characters import Character
from collspec.lvalues import l_value_series
from collspec.packet import (
    PROBE_FLOOR,
    TABLE1_FAMILY,
    TABLE1_TARGETS,
    TABLE1_TOLERANCE,
    packet_records,
    packet_stats,
    probes,
    stats_from_records,
)
from collspec.unit_group import Level, build_unit_group
from oracles import conjugate, packet_twist_sum


def test_b3_packet_is_empty_sum():
    # no even nontrivial characters mod 3
    recs = packet_records(3)
    assert len(recs["j"]) == 2
    assert (recs["delta"] == 0).all()
    assert (recs["ratio"] == 0.0).all()
    assert (recs["twist_count"] == 0).all()


@pytest.mark.parametrize("b,count", [(5, 8), (7, 18), (13, 72)])
def test_record_counts(b, count):
    recs = packet_records(b)
    assert list(recs) == ["j", "P_short", "L1", "delta", "ratio", "phase_cos", "twist_count"]
    assert len(recs["j"]) == count == (b - 1) ** 2 // 2
    assert recs["twist_count"].dtype == np.int64
    for r in rows(recs):
        assert r["twist_count"] == (b - 3) // 2
        assert r["ratio"] >= 0
        assert -1 <= r["phase_cos"] <= 1
        # the per-cell arithmetic, bit for bit
        assert r["ratio"] == abs(r["delta"]) / abs(r["L1"])
        assert r["phase_cos"] == math.cos(cmath.phase(r["delta"]) - cmath.phase(r["L1"]))


def test_delta_conjugate_antisymmetry():
    # conj(Delta(chi)) = -Delta(conj chi); this forces mean cos = 0
    recs = {r["j"]: r for r in rows(packet_records(7))}
    g = build_unit_group(7, Level.MOD_B_SQUARED)
    for j, r in recs.items():
        jbar = (-j) % g.phi
        assert recs[jbar]["delta"] == pytest.approx(-r["delta"].conjugate(), abs=1e-12)


def test_mean_phase_cos_is_zero():
    for b in (5, 7, 13):
        assert abs(packet_stats(b)["mean_phase_cos"]) < 1e-12
        assert abs(packet_stats(b, all_odd=True)["mean_phase_cos"]) < 1e-12


def test_stats_b5_frozen():
    st5 = packet_stats(5)
    assert st5["b"] == 5
    assert st5["count"] == 8
    assert st5["mean_ratio"] == pytest.approx(0.86023870029448346, abs=1e-12)
    assert st5["std_ratio"] == pytest.approx(0.71413540628907179, abs=1e-12)
    assert st5["std_ln_b"] == pytest.approx(st5["std_ratio"] * math.log(5))
    assert st5["std_log10_b"] == pytest.approx(st5["std_ratio"] * math.log10(5))


def test_table_targets_shape():
    assert set(TABLE1_TARGETS) == {5, 7, 13, 19, 31, 43}
    # the table is over all odd chi; the primitive odd family alone
    # misses its b=5 row by 0.06 and agrees within 0.05 from b=7 on
    st13 = packet_stats(13)
    mean_ref, std_ref = TABLE1_TARGETS[13]
    assert abs(st13["mean_ratio"] - mean_ref) < 0.05
    assert abs(st13["std_ratio"] - std_ref) < 0.05


def test_stats_need_b_at_least_5():
    with pytest.raises(ValueError):
        packet_stats(3)


@given(st.permutations(range(8)))
@settings(max_examples=25, deadline=None)
def test_stats_permutation_invariant(perm):
    recs = packet_records(5)
    shuffled = {k: v[list(perm)] for k, v in recs.items()}
    a = stats_from_records(5, recs)
    c = stats_from_records(5, shuffled)
    assert a == c  # fsum aggregation is exactly order-independent


def test_probe_guard():
    records = {"L1": np.array([1 + 0j, 1 + 0j]), "delta": np.array([0j, 1j]),
               "P_short": np.array([PROBE_FLOOR / 2, 2 + 0j])}
    probe, defined = probes(records)
    assert defined.tolist() == [False, True]
    assert probe.tolist() == [0j, (1 + 1j) / 2]


def test_probe_defining_relation():
    # probe * P = L1 + Delta; no conjugate symmetry is asserted because
    # Delta is conjugate-antisymmetric, not equivariant (see the
    # antisymmetry test above), so (L1 + Delta) does not conjugate cleanly
    recs = packet_records(5)
    probe, defined = probes(recs)
    assert defined.all()
    for row, r in enumerate(rows(recs)):
        assert probe[row] * r["P_short"] == pytest.approx(r["L1"] + r["delta"], abs=1e-12)


@pytest.mark.parametrize("b,spread", [(5, 4.8), (7, 10.0)])
def test_probe_is_not_constant(b, spread):
    # (L1 + Delta) / P varies with chi, so no chi-uniform Gauss-sum factor
    # (1/b, 1/sqrt(b) or 1) turns P into L(1, conj chi) + Delta with this packet
    probe, defined = probes(packet_records(b))
    assert defined.all()
    ratio = np.abs(probe).max() / np.abs(probe).min()
    assert ratio > 4 and round(ratio, 1) == spread


# ====== imprimitive odd chi and the decay table's family ======


def rows(records):
    """The records one dict of Python scalars at a time."""
    return [dict(zip(records, cells)) for cells in zip(*(v.tolist() for v in records.values()))]


def imprimitive_records(b):
    return [r for r in rows(packet_records(b, all_odd=True)) if r["j"] % b == 0]


def cosine_series_delta(chi, l1, terms=10**6):
    """Independent route Delta = i*T + i*L1/phi(b), with the tail bound of T.

    T = sum_n conj(chi)(n) cos(2 pi n / b) / n, truncated at a whole
    number of periods; one period of the weights sums to zero, so
    partial summation bounds the tail by the one-period maximum of the
    running weight sum over the truncation point.
    """
    g = chi.group
    n_eff = -(-terms // g.q) * g.q
    n = np.arange(1, n_eff + 1)
    chibar = np.zeros(g.q, dtype=complex)
    chibar[g.units] = conjugate(chi).values_on_units()
    weights = chibar[n % g.q] * np.cos(2 * np.pi * n / g.b)
    t_sum = complex(np.sum(weights / n))
    tail = float(np.max(np.abs(np.cumsum(weights[: g.q])))) / n_eff
    return 1j * t_sum + 1j * l1 / (g.b - 1), tail


@pytest.mark.parametrize("b", [5, 7])
def test_imprimitive_l1_matches_series(b):
    g = build_unit_group(b, Level.MOD_B_SQUARED)
    recs = imprimitive_records(b)
    assert len(recs) == (b - 1) // 2
    columns = l_value_series(g, [-r["j"] for r in recs], 10**6)  # conj(chi_j) = chi_{-j}
    for r, series, tail in zip(recs, columns["series"], columns["tail_bound"]):
        assert abs(r["L1"] - series) <= tail + 1e-9


@pytest.mark.parametrize(
    "b,primitive",
    [
        pytest.param(5, False, id="5"),
        pytest.param(7, False, id="7"),
        pytest.param(5, True, id="5-primitive"),
        pytest.param(7, True, id="7-primitive"),
    ],
)
def test_imprimitive_delta_matches_cosine_series(b, primitive):
    g = build_unit_group(b, Level.MOD_B_SQUARED)
    records = rows(packet_records(b)) if primitive else imprimitive_records(b)
    for r in records:
        alt, tail = cosine_series_delta(Character(g, r["j"]), r["L1"])
        assert abs(alt - r["delta"]) <= tail + 1e-9


@pytest.mark.parametrize("b", [5, 7, 13])
def test_odd_family_extends_primitive(b):
    odd = packet_records(b, all_odd=True)
    assert len(odd["j"]) == b * (b - 1) // 2
    assert [r for r in rows(odd) if r["j"] % b] == rows(packet_records(b))
    assert (odd["twist_count"] == (b - 3) // 2).all()


def test_table_family_b5_row():
    # all odd chi mod 25 give the tabulated 0.80 / 0.65
    assert TABLE1_FAMILY is True
    st5 = packet_stats(5, TABLE1_FAMILY)
    assert st5["count"] == 10
    assert st5["mean_ratio"] == pytest.approx(0.7999943591105763, abs=1e-12)
    assert st5["std_ratio"] == pytest.approx(0.6500069425715838, abs=1e-12)
    mean_ref, std_ref = TABLE1_TARGETS[5]
    assert abs(st5["mean_ratio"] - mean_ref) < 5e-4
    assert abs(st5["std_ratio"] - std_ref) < 5e-4


def test_include_principal_variant_misses_the_table():
    # Extending the twist sum to the principal xi mod b, whose Gauss sum is
    # -1, subtracts i*L1/phi(b) from every packet.  Over the primitive odd
    # family that variant fits the b = 5 row but not b = 7, 13 and 19, so
    # it is not the table's formula.
    means = {}
    for b in TABLE1_TARGETS:
        recs = packet_records(b)
        variant = np.abs(recs["delta"] - 1j * recs["L1"] / (b - 1)) / np.abs(recs["L1"])
        means[b] = stats_from_records(b, {**recs, "ratio": variant})["mean_ratio"]
    gaps = {b: abs(mean - TABLE1_TARGETS[b][0]) for b, mean in means.items()}
    assert {b for b, gap in gaps.items() if gap > TABLE1_TOLERANCE} == {7, 13, 19}
    assert [round(means[b], 4) for b in (5, 7, 13, 19)] == [0.7694, 0.9566, 1.0477, 1.0462]


@pytest.mark.parametrize("all_odd", [False, True], ids=["primitive-odd", "all-odd"])
@pytest.mark.parametrize("b", [5, 13, 43])
def test_records_match_the_twist_sum(b, all_odd):
    # One cotangent transform against the (b-3)/2 twists, each weighted by its Gauss sum
    recs = packet_records(b, all_odd)
    l1, delta = packet_twist_sum(b, recs["j"])
    assert np.abs(recs["L1"] - l1).max() < 1e-13
    assert np.abs(recs["delta"] - delta).max() < 1e-13
