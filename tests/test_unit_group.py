import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collspec.errors import BaseOutOfRange, LimitTooLarge, NotOddPrime
from collspec.unit_group import (
    MAX_BASE,
    Level,
    _group_with_root,
    build_unit_group,
    is_odd_prime,
    sieve_primes,
)

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
    assert g.units.tolist() == [1, 2, 4, 5, 7, 8]


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
    assert list(sieve_primes(10).primes) == [2, 3, 5, 7]
    assert list(sieve_primes(2).primes) == [2]
    assert list(sieve_primes(3).primes) == [2, 3]
    assert list(sieve_primes(4).primes) == [2, 3]
    assert list(sieve_primes(9).primes) == [2, 3, 5, 7]
    assert len(sieve_primes(100)) == 25
    assert sieve_primes(100).primes[-1] == 97


def test_sieve_matches_trial_division():
    assert list(sieve_primes(10 ** 4).primes) == _trial_primes(10 ** 4)


def test_sieve_limits():
    with pytest.raises(ValueError):
        sieve_primes(1)
    with pytest.raises(LimitTooLarge):
        sieve_primes(10 ** 9 + 1)
