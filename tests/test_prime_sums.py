import math
from fractions import Fraction

import numpy as np
import pytest

from collspec.characters import Character, roots_of_unity
from collspec.collision import collision_invariant
from collspec.errors import CutoffBelowModulus, ExponentOutOfRange
from collspec.prime_sums import (
    _class_order,
    _log_primes,
    cross_moment_bound,
    f_trunc,
    p_all,
    verify_expansion,
)
from collspec.spectrum import spectrum_of
from collspec.unit_group import Level, build_unit_group, sieve_primes


def primes_between(m, n):
    return [p for p in range(m + 1, n + 1)
            if p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))]


def p_trunc(chi, s, cutoff, primes):
    """P(s, chi) = sum over m < p <= cutoff of chi(p) p^{-s}: one character summed
    directly over the ascending primes, the oracle p_all is held to."""
    group = chi.group
    p_arr = primes.primes[(primes.primes > group.q) & (primes.primes <= cutoff)]
    weights, dlogs = np.exp(-s * np.log(p_arr.astype(float))), group.dlog[p_arr % group.q]
    # chi(g^t) = e(index * t / phi), tabulated over t = 0..phi-1
    phases = roots_of_unity(group.phi)[(chi.index * np.arange(group.phi)) % group.phi]
    return complex((weights * phases.real[dlogs]).sum(), (weights * phases.imag[dlogs]).sum())


def test_principal_sum_exact_oracle():
    # s = 2 keeps everything rational: sum of 1/p^2 over 9 < p <= 100
    # for the oracle and for the principal entry of the transform route
    g = build_unit_group(3, Level.MOD_B_SQUARED)
    primes = sieve_primes(100)
    expected = sum(Fraction(1, p * p) for p in primes_between(9, 100))
    for val in (p_trunc(Character(g, 0), 2.0, 100, primes), p_all(g, 2.0, 100, primes)[0]):
        assert val.real == pytest.approx(float(expected), rel=1e-14)
        assert val.imag == 0.0


def test_f_trunc_two_line_oracle():
    g = build_unit_group(3, Level.MOD_B_SQUARED)
    t = collision_invariant(g)
    primes = sieve_primes(1000)
    val = f_trunc(t, 2.0, 1000, primes)
    s0 = dict(zip(t.units.tolist(), t.S0_num.tolist()))
    expected = math.fsum(
        float(Fraction(s0[p % 9], 3)) / p ** 2 for p in primes_between(9, 1000)
    )
    assert val == pytest.approx(expected, rel=1e-13)


def test_character_sum_matches_termwise():
    g = build_unit_group(3, Level.MOD_B_SQUARED)
    chi = Character(g, 1)
    primes = sieve_primes(5000)
    val = p_trunc(chi, 1.2, 5000, primes)
    terms = [chi.value(p) / p ** 1.2 for p in primes_between(9, 5000)]
    resummed = sum(reversed(terms))  # worst-case reassociation
    assert abs(val - resummed) < 1e-9


def test_expansion_identity_small():
    rec = verify_expansion(3, 2.0, 1000, sieve_primes(1000))
    assert rec["expansion_residual"] < 1e-11
    assert rec["restriction_residual"] < 1e-11
    assert rec["margin"] >= -1e-10


def test_expansion_identity_b5():
    rec = verify_expansion(5, 1.2, 10 ** 5, sieve_primes(10 ** 5))
    assert list(rec) == ["b", "s", "N", "F", "expansion_residual", "restriction_residual",
                         "bound_lhs", "bound_rhs", "margin"]
    assert rec["expansion_residual"] < 1e-9
    assert rec["restriction_residual"] < 1e-11


def test_restriction_residual_is_the_dropped_terms():
    # At b = 7 the imprimitive s_hat entries are FFT rounding of ~1e-16: their
    # terms lie below the ulp of F and must still show.
    b, s, cutoff = 7, 1.2, 10 ** 5
    primes = sieve_primes(cutoff)
    spec = spectrum_of(b)
    p = p_all(spec.group, s, cutoff, primes)
    dropped = ~(spec.odd & spec.primitive)
    want = abs(sum((complex(spec.s_hat[j] * p[j]) for j in np.flatnonzero(dropped)), 0j))
    rec = verify_expansion(b, s, cutoff, primes)
    assert rec["restriction_residual"] == want
    assert 0 < want < math.ulp(rec["F"])


def test_no_primes_below_cutoff_is_refused():
    # m = 9 < cutoff = 10 but no primes in (9, 10]: every sum would be vacuously 0
    with pytest.raises(CutoffBelowModulus):
        verify_expansion(3, 1.2, 10, sieve_primes(10))
    with pytest.raises(CutoffBelowModulus):
        cross_moment_bound(3, 1.2, 10, sieve_primes(10))


def test_cutoff_guards():
    primes = sieve_primes(100)
    with pytest.raises(CutoffBelowModulus):
        verify_expansion(3, 1.2, 9, primes)
    with pytest.raises(ValueError):
        verify_expansion(3, -1.0, 100, primes)
    with pytest.raises(ValueError):
        cross_moment_bound(3, 0.5, 100, primes)


@pytest.mark.parametrize("b", [3, 5])
@pytest.mark.parametrize("s", [0.8, 1.2, 2.0])
def test_margin_nonnegative(b, s):
    rec = cross_moment_bound(b, s, 20_000, sieve_primes(20_000))
    assert rec["margin"] >= -1e-10
    assert rec["bound_lhs"] == abs(rec["F"])


def test_cross_moment_builds_the_spectrum_once():
    spectrum_of.cache_clear()
    primes = sieve_primes(5000)
    for s in (0.8, 1.0, 1.2, 1.5):
        cross_moment_bound(7, s, 5000, primes)
    assert spectrum_of.cache_info().misses == 1


def test_expansion_orders_primes_once_per_base_and_cutoff():
    # the two s of one base share the dlog-grouped prime list
    _class_order.cache_clear()
    primes = sieve_primes(5000)
    for s in (0.8, 1.2):
        verify_expansion(7, s, 5000, primes)
    info = _class_order.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("cutoff", [2000, 10 ** 5])
@pytest.mark.parametrize("b", [3, 5, 7, 13, 43])
def test_transform_route_matches_per_character_sums(b, cutoff):
    group = spectrum_of(b).group
    primes = sieve_primes(cutoff)
    for s in (0.8, 1.2):
        ref = np.array([p_trunc(Character(group, j), s, cutoff, primes)
                        for j in range(group.phi)])
        got = p_all(group, s, cutoff, primes)
        # ref[0] = sum p^-s bounds every |P| and sets the scale of the rounding
        assert np.abs(got - ref).max() <= 1e-15 * max(1.0, ref[0].real)


def test_transform_route_refuses_underflow():
    group = spectrum_of(5).group
    with pytest.raises(ExponentOutOfRange):
        p_all(group, 1e300, 2000, sieve_primes(2000))


@pytest.mark.parametrize("b", [5, 7, 13, 97, 257])  # uint8, uint8, uint8, uint16, uint32 keys
def test_class_order_matches_int64_stable_argsort(b):
    group = build_unit_group(b)
    cutoff = 3 * group.q
    primes = sieve_primes(cutoff)
    order, bounds = _class_order(group, cutoff, primes)
    p_arr, _ = _log_primes(group.q, cutoff, primes)
    keys = group.dlog[p_arr % group.q]
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    assert bounds == [0, *np.cumsum(np.bincount(keys, minlength=group.phi)).tolist()]

def test_class_order_is_built_once_per_base_and_cutoff():
    # the four s of a sweep base share one dlog-grouped prime list
    # and, with F0, one ln p
    _class_order.cache_clear()
    _log_primes.cache_clear()
    primes = sieve_primes(5000)
    for b in (5, 7):
        for s in (0.8, 1.0, 1.2, 1.5):
            cross_moment_bound(b, s, 5000, primes)
    info = _class_order.cache_info()
    assert (info.misses, info.hits) == (2, 2 * 3)
    assert _log_primes.cache_info().misses == 2
