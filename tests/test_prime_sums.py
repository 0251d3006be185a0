import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from collspec import prime_sums
from collspec.characters import Character, roots_of_unity
from collspec.collision import collision_invariant
from collspec.errors import CutoffBelowModulus, ExponentOutOfRange, LimitTooLarge
from collspec.prime_sums import _sums, cross_moment_bound, verify_expansion
from collspec.spectrum import spectrum_of
from collspec.unit_group import SIEVE_SEGMENT, Level, build_unit_group, sieve_primes
from oracles import full_array_sums, list_records


def primes_between(m, n):
    return [p for p in range(m + 1, n + 1)
            if p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))]


def p_trunc(chi, s, cutoff, primes):
    """P(s, chi) = sum over m < p <= cutoff of chi(p) p^{-s}: one character summed
    directly over the ascending primes, the oracle the pass's P is held to."""
    group = chi.group
    p_arr = primes[(primes > group.q) & (primes <= cutoff)]
    weights, dlogs = np.exp(-s * np.log(p_arr.astype(float))), group.dlog[p_arr % group.q]
    # chi(g^t) = e(index * t / phi), tabulated over t = 0..phi-1
    phases = roots_of_unity(group.phi)[(chi.index * np.arange(group.phi)) % group.phi]
    return complex((weights * phases.real[dlogs]).sum(), (weights * phases.imag[dlogs]).sum())


def pass_sums(b, s_values, cutoff):
    """[(F0(s), P(s, chi_j) for every j)] of base b, from the pass."""
    return list(_sums(spectrum_of(b), s_values, cutoff, sieve_primes(cutoff)))


class LoggingNumpy:
    """numpy as prime_sums sees it, with the calls of some functions logged."""

    def __init__(self, logged=("exp", "argsort")):
        self.logged, self.calls = logged, []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.logged:
            return attr

        def logging(*args, **kwargs):
            result = attr(*args, **kwargs)
            self.calls.append((name, args, result))
            return result
        return logging

    def count(self, name):
        return sum(logged == name for logged, _, _ in self.calls)


@pytest.fixture
def counted(monkeypatch):
    """Call counts of the pass: sieves, spectra, dlog sorts and exps."""
    fake_np, calls = LoggingNumpy(), Counter()
    for name, fn in (("sieve_primes", prime_sums.sieve_primes),
                     ("spectrum_of", prime_sums.spectrum_of)):
        def wrapper(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(prime_sums, name, wrapper)
    monkeypatch.setattr(prime_sums, "np", fake_np)
    return lambda: {**calls, "argsort": fake_np.count("argsort"), "exp": fake_np.count("exp")}


def test_principal_sum_exact_oracle():
    # s = 2 keeps everything rational: sum of 1/p^2 over 9 < p <= 100
    # for the oracle and for the principal entry of the pass's P
    g = build_unit_group(3, Level.MOD_B_SQUARED)
    primes = sieve_primes(100)
    expected = sum(Fraction(1, p * p) for p in primes_between(9, 100))
    [(_, p_all)] = pass_sums(3, [2.0], 100)
    for val in (p_trunc(Character(g, 0), 2.0, 100, primes), p_all[0]):
        assert val.real == pytest.approx(float(expected), rel=1e-14)
        assert val.imag == 0.0


def test_f_trunc_two_line_oracle():
    t = collision_invariant(build_unit_group(3, Level.MOD_B_SQUARED))
    [(val, _)] = pass_sums(3, [2.0], 1000)
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
    [rec] = verify_expansion([3], [2.0], 1000)
    assert rec["expansion_residual"] < 1e-11
    assert rec["restriction_residual"] < 1e-11
    assert rec["margin"] >= -1e-10


def test_expansion_identity_b5():
    [rec] = verify_expansion([5], [1.2], 10 ** 5)
    assert list(rec) == ["b", "s", "N", "F", "expansion_residual", "restriction_residual",
                         "bound_lhs", "bound_rhs", "margin"]
    assert rec["expansion_residual"] < 1e-9
    assert rec["restriction_residual"] < 1e-11


def test_restriction_residual_is_the_dropped_terms():
    # At b = 7 the imprimitive s_hat entries are FFT rounding of ~1e-16: their
    # terms lie below the ulp of F and must still show.
    b, s, cutoff = 7, 1.2, 10 ** 5
    [(_, p)] = pass_sums(b, [s], cutoff)
    spec = spectrum_of(b)
    dropped = ~(spec.odd & spec.primitive)
    want = abs(sum((complex(spec.s_hat[j] * p[j]) for j in np.flatnonzero(dropped)), 0j))
    [rec] = verify_expansion([b], [s], cutoff)
    assert rec["restriction_residual"] == want
    assert 0 < want < math.ulp(rec["F"])


def test_no_primes_below_cutoff_is_refused():
    # m = 9 < cutoff = 10 but no primes in (9, 10]: every sum would be vacuously 0
    with pytest.raises(CutoffBelowModulus, match=r"no prime in \(9, 10\]"):
        verify_expansion([3], [1.2], 10)
    with pytest.raises(CutoffBelowModulus):
        cross_moment_bound([3], [1.2], 10)


def test_cutoff_guards(counted):
    # every refusal comes before the sieve and the spectra: the bad cell may be
    # the last s or the last base
    with pytest.raises(CutoffBelowModulus):
        verify_expansion([3], [1.2], 9)
    with pytest.raises(CutoffBelowModulus, match="modulus 25"):
        verify_expansion([3, 5], [1.2], 20)
    with pytest.raises(ValueError):
        verify_expansion([3], [1.2, -1.0], 100)
    with pytest.raises(ValueError):
        cross_moment_bound([3], [1.2, 0.5], 100)
    with pytest.raises(ExponentOutOfRange, match="got 0.3"):
        cross_moment_bound([5], [0.3], 10 ** 9)
    assert counted() == {"argsort": 0, "exp": 0}
    with pytest.raises(LimitTooLarge):
        cross_moment_bound([5], [1.2], 10 ** 9 + 1)


@pytest.mark.parametrize("b", [3, 5])
@pytest.mark.parametrize("s", [0.8, 1.2, 2.0])
def test_margin_nonnegative(b, s):
    [rec] = cross_moment_bound([b], [s], 20_000)
    assert rec["margin"] >= -1e-10
    assert rec["bound_lhs"] == abs(rec["F"])


def test_cross_moment_builds_the_spectrum_once(counted):
    records = cross_moment_bound([7], [0.8, 1.0, 1.2, 1.5], 5000)
    assert [r["s"] for r in records] == [0.8, 1.0, 1.2, 1.5]
    assert counted() == {"sieve_primes": 1, "spectrum_of": 1, "argsort": 1, "exp": 4}


def test_expansion_orders_primes_once_per_base_and_cutoff(counted):
    # the two s of one base share the dlog-grouped prime list
    records = verify_expansion([7], [0.8, 1.2], 5000)
    assert [(r["b"], r["s"]) for r in records] == [(7, 0.8), (7, 1.2)]
    assert counted() == {"sieve_primes": 1, "spectrum_of": 1, "argsort": 1, "exp": 2}


@pytest.mark.parametrize("cutoff", [2000, 10 ** 5])
@pytest.mark.parametrize("b", [3, 5, 7, 13, 43])
def test_transform_route_matches_per_character_sums(b, cutoff):
    group = spectrum_of(b).group
    primes = sieve_primes(cutoff)
    for s, (_, got) in zip((0.8, 1.2), pass_sums(b, (0.8, 1.2), cutoff)):
        ref = np.array([p_trunc(Character(group, j), s, cutoff, primes)
                        for j in range(group.phi)])
        # ref[0] = sum p^-s bounds every |P| and sets the scale of the rounding
        assert np.abs(got - ref).max() <= 1e-15 * max(1.0, ref[0].real)


def test_transform_route_refuses_underflow():
    with pytest.raises(ExponentOutOfRange, match="underflows"):
        pass_sums(5, [1e300], 2000)
    with pytest.raises(ExponentOutOfRange, match="underflows"):
        cross_moment_bound([5], [1.2, 1e300], 2000)


@pytest.mark.parametrize("b", [5, 7, 13, 97, 257])  # uint8, uint8, uint8, uint16, uint32 keys
def test_class_order_matches_int64_stable_argsort(monkeypatch, b):
    # the pass sorts the narrow dlog keys; the order must be int64's stable one
    fake_np = LoggingNumpy(logged=("argsort",))
    monkeypatch.setattr(prime_sums, "np", fake_np)
    group = build_unit_group(b)
    cutoff = 3 * group.q
    pass_sums(b, [1.2], cutoff)
    [(_, (keys,), order)] = fake_np.calls
    assert keys.dtype == np.min_scalar_type(group.phi - 1) and keys.dtype.itemsize < 8
    primes = sieve_primes(cutoff)
    p_arr = primes[primes > group.q]
    assert np.array_equal(order, np.argsort(group.dlog[p_arr % group.q], kind="stable"))


def test_class_order_is_built_once_per_base_and_cutoff(counted):
    # the four s of a sweep base share one dlog-grouped prime list,
    # each s takes one exp; the run shares one sieve
    records = cross_moment_bound([5, 7], [0.8, 1.0, 1.2, 1.5], 5000)
    assert [r["b"] for r in records] == [5] * 4 + [7] * 4
    assert counted() == {"sieve_primes": 1, "spectrum_of": 2, "argsort": 2, "exp": 8}


def bit_identity_cutoffs(b):
    """Cutoffs that leave (b**2, N] fewer primes than one block, one block
    -1, 0 and +1 primes, a sieve segment's end -1, 0 and +1, and near 10**7."""
    primes = sieve_primes(10 ** 5)
    at = np.searchsorted(primes, b * b, side="right") + prime_sums._BLOCK - 1  # the block's last
    return [10 ** 4, *primes[at - 1 : at + 2].tolist(),
            2 * SIEVE_SEGMENT - 1, 2 * SIEVE_SEGMENT, 2 * SIEVE_SEGMENT + 1, 9_999_991, 10 ** 7]


@pytest.mark.parametrize("b", [3, 5, 7, 13, 97])
def test_blocked_pass_is_bit_identical_to_full_arrays(b):
    # the expansion residual is a few ulps of |F0|: any reordering of a sum
    # moves it, so the blocked pass keeps every sum's terms and tree
    spec, s_values = spectrum_of(b), (0.8, 1.2, 2.0)
    for cutoff in bit_identity_cutoffs(b):
        primes = sieve_primes(cutoff)
        got = list(_sums(spec, s_values, cutoff, primes))
        want = full_array_sums(spec, s_values, cutoff, primes)
        for (f, p), (f_ref, p_ref) in zip(got, want, strict=True):
            assert np.float64(f).tobytes() == np.float64(f_ref).tobytes(), (cutoff, f, f_ref)
            assert p.tobytes() == p_ref.tobytes(), cutoff


def test_pass_memory_is_under_twenty_bytes_a_prime():
    # numpy reports its buffers to tracemalloc, so this does not depend on
    # the allocator.  Beside the uint32 primes given to it, the pass holds a
    # 1-byte key and S0, the int32 order and the float64 p^-s (the int64
    # argsort is the transient peak); the full-array route took about 30 bytes
    b, cutoff = 7, 10 ** 6
    primes, spec = sieve_primes(cutoff), spectrum_of(b)
    n = len(primes) - np.searchsorted(primes, b * b, side="right")
    tracemalloc.start()
    try:
        for _ in _sums(spec, [0.8, 1.2], cutoff, primes):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * n


def test_runs_cut_at_block_classes_are_bit_identical_to_full_arrays():
    # b = 199 has phi > _BLOCK classes but fewer than _BLOCK primes in
    # (b**2, 10**5], so only the class cap ends its runs
    spec, cutoff = spectrum_of(199), 10 ** 5
    primes = sieve_primes(cutoff)
    assert spec.group.phi > prime_sums._BLOCK > np.count_nonzero(primes > spec.group.q)
    got = list(_sums(spec, (0.8, 2.0), cutoff, primes))
    want = full_array_sums(spec, (0.8, 2.0), cutoff, primes)
    for (f, p), (f_ref, p_ref) in zip(got, want, strict=True):
        assert np.float64(f).tobytes() == np.float64(f_ref).tobytes()
        assert p.tobytes() == p_ref.tobytes()


@pytest.mark.parametrize("b", [3, 5, 7, 13, 97, 199])
def test_records_are_bit_identical_to_python_scalars(b):
    # four real products round as complex *, a sequential cumsum adds as
    # sum(..., 0j), and the bound's terms keep their order of multiplication
    spec, s_values = spectrum_of(b), (0.8, 1.2, 2.0)
    for cutoff in (10 ** 5, 10 ** 6):
        primes = sieve_primes(cutoff)
        got = prime_sums._base_records(spec, s_values, cutoff, primes)
        want = list_records(spec, s_values, cutoff, primes)
        assert got == want, cutoff
        types = [[list(map(type, r.values())) for r in records] for records in (got, want)]
        assert types[0] == types[1]


def test_records_memory_is_under_160_bytes_a_character():
    # the records hold arrays over the family, not Python lists of phi
    # complex numbers: oracles.list_records takes about 360 bytes per phi
    b, cutoff = 199, 10 ** 6
    primes, spec = sieve_primes(cutoff), spectrum_of(b)
    tracemalloc.start()
    try:
        prime_sums._base_records(spec, [0.8, 1.2], cutoff, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * spec.group.phi
