import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collspec.errors import BaseOutOfRange, LimitTooLarge, NotOddPrime
from collspec.front import MAX_BASE, is_odd_prime
from collspec.unit_group import (
    SIEVE_SEGMENT,
    Level,
    _group_with_root,
    build_unit_group,
    sieve_primes,
)
from oracles import mask_sieve

SMALL_PRIMES = [3, 5, 7, 11, 13]


def test_is_odd_prime():
    assert is_odd_prime(3)
    assert is_odd_prime(97)
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)
    assert not is_odd_prime(9)
    assert not is_odd_prime(-7)
    assert not is_odd_prime(True)


def test_group_mod_9_dlog_table():
    # g = 2 generates (Z/9Z)*: 1, 2, 4, 8, 7, 5
    g = build_unit_group(3, Level.MOD_B_SQUARED)
    assert g.q == 9
    assert g.phi == 6
    assert g.g == 2
    # dlog[a] = t with 2**t = a; -1 off the units 0, 3, 6
    assert g.dlog.tolist() == [-1, 0, 1, -1, 2, 5, -1, 4, 3]
    assert g.units.tolist() == [1, 2, 4, 8, 7, 5]  # units[t] = 2**t


@pytest.mark.parametrize("b", [3, 5, 131])  # at 131, phi exceeds FLOOR_SUM_BLOCK
@pytest.mark.parametrize("level", list(Level))
def test_units_are_the_powers_of_the_root(b, level):
    g = build_unit_group(b, level)
    assert g.units.tolist() == [pow(g.g, t, g.q) for t in range(g.phi)]
    assert g.dlog[g.units].tolist() == list(range(g.phi))


def test_group_mod_25():
    g = build_unit_group(5, Level.MOD_B_SQUARED)
    assert g.phi == 20
    assert len(g.units) == 20
    assert sorted(g.dlog[g.units].tolist()) == list(range(20))
    assert g.g == 2


def test_group_mod_b():
    g = build_unit_group(7, Level.MOD_B)
    assert g.q == 7
    assert g.phi == 6
    assert pow(g.g, g.phi, 7) == 1


def test_least_root_mod_b_is_a_root_mod_b_squared():
    # For every accepted base the least primitive root mod b stays primitive
    # mod b**2 (g**(b-1) != 1 there), so it is also the least root mod b**2
    # and the mod-b group is built on the reduction of the mod-b**2 root.
    bases = [b for b in range(3, MAX_BASE + 1) if is_odd_prime(b)]
    assert len(bases) == 501
    for b in bases:
        g = build_unit_group(b, Level.MOD_B).g
        assert pow(g, b - 1, b * b) != 1, b


@pytest.mark.parametrize("bad", [2, 4, 9, 1, 0, -3])
def test_rejects_non_odd_prime(bad):
    with pytest.raises(NotOddPrime):
        build_unit_group(bad, Level.MOD_B_SQUARED)


@pytest.mark.parametrize("big", [3593, 2**61 - 1, 2**62])  # primes, then an even number
def test_rejects_base_above_bound_before_primality(big):
    # trial division of 2**61 - 1 would run for hours
    with pytest.raises(BaseOutOfRange):
        build_unit_group(big, Level.MOD_B)


@pytest.mark.parametrize("b", SMALL_PRIMES)
def test_dlog_inverts_power(b):
    g = build_unit_group(b, Level.MOD_B_SQUARED)
    for a in range(g.q):
        t = int(g.dlog[a])
        if a % b == 0:
            assert t == -1
        else:
            assert pow(g.g, t, g.q) == a


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=40, deadline=None)
def test_dlog_is_homomorphism(b, data):
    g = build_unit_group(b, Level.MOD_B_SQUARED)
    x = data.draw(st.sampled_from(g.units.tolist()))
    y = data.draw(st.sampled_from(g.units.tolist()))
    assert g.dlog[x * y % g.q] == (g.dlog[x] + g.dlog[y]) % g.phi


@pytest.mark.parametrize("b", SMALL_PRIMES)
def test_minus_one_has_half_order(b):
    g = build_unit_group(b, Level.MOD_B_SQUARED)
    assert g.dlog[g.q - 1] == g.phi // 2


def test_dlog_by_residue_array():
    g = build_unit_group(3, Level.MOD_B_SQUARED)
    arr = g.dlog
    assert arr[0] == -1 and arr[3] == -1 and arr[6] == -1
    assert arr[2] == 1 and arr[5] == 5
    assert not arr.flags.writeable


@pytest.mark.parametrize("q, b, phi, g", [(9, 3, 6, 4), (9, 3, 6, 3), (25, 5, 20, 7)])
def test_rejects_non_primitive_root(q, b, phi, g):
    # 4 has order 3 mod 9, 3 is no unit mod 9, 7 has order 4 mod 25
    with pytest.raises(ValueError):
        _group_with_root(q, b, phi, g)


def _trial_primes(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p)) and p > 1]


def test_sieve_small():
    # the sieve seeds itself with the primes up to isqrt(limit): every limit
    # up to 200 passes through each base case of that recursion
    for limit in range(2, 201):
        assert sieve_primes(limit).tolist() == _trial_primes(limit), limit
    primes = sieve_primes(100)  # the array itself, read-only
    assert primes.dtype == np.uint32 and not primes.flags.writeable


def test_sieve_matches_trial_division():
    assert list(sieve_primes(10 ** 4)) == _trial_primes(10 ** 4)


def test_sieve_limits():
    with pytest.raises(ValueError):
        sieve_primes(1)
    with pytest.raises(LimitTooLarge):
        sieve_primes(10 ** 9 + 1)


@pytest.mark.parametrize("limit", [2, 3, 4, 9, 2 * SIEVE_SEGMENT - 1, 2 * SIEVE_SEGMENT,
                                   2 * SIEVE_SEGMENT + 1, 4 * SIEVE_SEGMENT + 1])
def test_segmented_sieve_matches_one_mask(limit):
    # a segment holds SIEVE_SEGMENT odd candidates, 2 * SIEVE_SEGMENT integers
    primes = sieve_primes(limit)
    assert primes.dtype == np.uint32 and not primes.flags.writeable
    assert np.array_equal(primes, mask_sieve(limit))
    if limit < 100:
        assert primes.tolist() == _trial_primes(limit)


def test_sieve_counts_the_primes_below_ten_million():
    primes = sieve_primes(10 ** 7)
    assert len(primes) == 664_579 and primes[-1] == 9_999_991
    assert np.array_equal(primes, mask_sieve(10 ** 7))


@pytest.mark.parametrize("k, count", [(1, 4), (2, 25), (3, 168), (4, 1229), (5, 9592),
                                      (6, 78_498), (8, 5_761_455)])  # 10**7 above
def test_sieve_counts_pi_of_powers_of_ten(k, count):
    # pi(10**k) as tabulated literals: an oracle that shares nothing with any
    # sieve, where the self-seeded sieve would carry its own errors upward
    assert len(sieve_primes(10 ** k)) == count


def test_prime_count_bound_sizes_the_sieve():
    # f(x) = x/ln x * (1 + 1.2762/ln x) >= pi(x) sizes the array the sieve
    # fills.  f increases from x = e**2 on, below which pi(x) <= 4 < f(x), and
    # pi steps up only at the primes: checking f(p_k) against pi(p_k) = k
    # checks every limit up to 10**7
    p = mask_sieve(10 ** 7).astype(float)
    log = np.log(p)
    assert np.all(p / log * (1 + 1.2762 / log) + 1 >= np.arange(1, len(p) + 1))


def test_sieve_memory_is_four_bytes_a_prime_and_one_segment():
    # numpy reports its buffers to tracemalloc; the one-mask sieve needs one
    # byte per odd number and 8 per prime, 10.3 MB here against about 5 MB
    limit = 10 ** 7
    tracemalloc.start()
    try:
        primes = sieve_primes(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    first_segment = np.searchsorted(primes, 2 * SIEVE_SEGMENT)  # the most primes a segment finds
    log = math.log(limit)
    assert len(primes) <= limit / log * (1 + 1.2762 / log) <= 1.01 * len(primes)
    assert peak <= 4.04 * len(primes) + SIEVE_SEGMENT + 8 * first_segment + 2 ** 16
