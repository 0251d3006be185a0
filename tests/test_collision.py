"""Exact integer layer: S, the centering numerators, and the diagonal set."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collspec.collision import (
    coset_sums,
    collision_invariant,
    diagonal_set,
    floor_sums,
)
from collspec.errors import WrongModulus
from collspec.front import is_odd_prime
from collspec.unit_group import Level, build_unit_group

PRIMES_TO_97 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                61, 67, 71, 73, 79, 83, 89, 97]


def table(b):
    return collision_invariant(build_unit_group(b, Level.MOD_B_SQUARED))


def test_diagonal_set_b3():
    assert diagonal_set(3) == (0, 4, 8)


def test_diagonal_set_b5():
    assert diagonal_set(5) == (0, 6, 12, 18, 24)


def diagonal_set_by_scan(b):
    """Digit-coincidence scan over all of [0, b**2)."""
    return tuple(n for n in range(b * b) if n // b == n % b)


@pytest.mark.parametrize("b", PRIMES_TO_97)
def test_diagonal_set_matches_digit_scan(b):
    # oracle: brute scan for n whose two base-b digits agree
    assert diagonal_set(b) == diagonal_set_by_scan(b)


def test_hand_table_b3():
    t = table(3)
    assert t.units.tolist() == [1, 2, 4, 8, 7, 5]  # 2**t mod 9
    assert t.S.tolist() == [0, 1, 0, -1, -2, -1]
    # S0 = S0_num / 3: 2/3, 4/3, 2/3, -2/3, -4/3, -2/3
    assert t.S0_num.tolist() == [2, 4, 2, -2, -4, -2]
    assert t.class_sums.tolist() == [0, -2, -1]
    for arr in (t.units, t.S, t.S0_num, t.class_sums):
        assert arr.dtype == np.int64 and not arr.flags.writeable


def test_rejects_mod_b_group():
    with pytest.raises(WrongModulus):
        collision_invariant(build_unit_group(3, Level.MOD_B))


@pytest.mark.parametrize("b", [3, 5, 7, 11, 13])
def test_direct_sum_oracle(b):
    # definition, term by term, no vectorization
    t = table(b)
    m = b * b
    diag = diagonal_set(b)
    pairs = list(zip(t.units.tolist(), t.S.tolist()))
    for a, s in pairs[:: max(1, len(pairs) // 10)]:
        expected = -1 - a // b + sum(
            (n + 1) * a // m - n * a // m for n in diag
        )
        assert s == expected


def collision_by_rows(group):
    """Oracle: one diagonal row at a time, two int64 floor divisions over all
    units per row, O(b*phi); every product stays below m**2 < 2**63."""
    b, m, units = group.b, group.q, group.units
    s = -1 - units // b
    for n in diagonal_set(b):
        s += (n + 1) * units // m - n * units // m
    class_sums = coset_sums(b, units, s)
    return s, b * s - class_sums[units % b], class_sums


@pytest.mark.parametrize("b", [b for b in range(3, 252) if is_odd_prime(b)] + [499])
def test_floor_sums_match_row_oracle(b):
    group = build_unit_group(b, Level.MOD_B_SQUARED)
    t = collision_invariant(group)
    for got, want in zip((t.S, t.S0_num, t.class_sums), collision_by_rows(group)):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 10**6),
                          st.integers(0, 10**6), st.integers(1, 10**6)), min_size=1, max_size=8))
def test_floor_sums_brute_force(cases):
    n, alpha, gamma, mu = map(np.array, zip(*cases))
    want = [sum((a * i + g) // u for i in range(k)) for k, a, g, u in cases]
    assert floor_sums(n, alpha, gamma, mu).tolist() == want


@pytest.mark.parametrize("b", PRIMES_TO_97)
def test_centered_values_exact(b):
    t = table(b)
    # S0 = S0_num / b with integer numerators: every denominator divides b
    assert t.S0_num.dtype == np.int64
    for k in range(1, b):
        assert t.S0_num[t.units % b == k].sum() == 0


@pytest.mark.parametrize("b", PRIMES_TO_97)
def test_antisymmetry_exact(b):
    t = table(b)
    s0 = dict(zip(t.units.tolist(), t.S0_num.tolist()))
    for a, num in s0.items():
        assert s0[t.m - a] == -num
    # -1 = g**(phi/2), so a -> m - a is the roll by phi/2 along t
    half = len(t.units) // 2
    assert np.array_equal(np.roll(t.units, half), t.m - t.units)
    assert np.array_equal(np.roll(t.S0_num, half), -t.S0_num)


@pytest.mark.parametrize("b", [3, 5, 13])
def test_centering_recovers_s(b):
    t = table(b)
    assert np.array_equal(b * t.S, t.S0_num + t.class_sums[t.units % b])


def test_class_means_structure():
    t = table(5)
    assert t.class_sums.shape == (5,)
    assert t.class_sums[0] == 0  # no unit is divisible by b
    for k in range(1, 5):
        members = t.units % 5 == k
        # each residue class mod b contains exactly b units
        assert members.sum() == 5
        assert t.class_sums[k] == t.S[members].sum()


def test_memory_is_linear_in_phi():
    # b x phi temporaries would peak near 480 MB at b = 251 (phi = 63,000)
    group = build_unit_group(251, Level.MOD_B_SQUARED)
    tracemalloc.start()
    try:
        collision_invariant(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
