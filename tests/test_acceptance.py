"""Acceptance gate: the eleven headline checks, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines.  Each
test computes its own pass condition at the stated tolerance, prints the
outcome, then asserts it, so a red criterion is visible both in the text
stream and in the pytest summary.

Criterion 7 aggregates the packet ratio over all odd characters mod
b**2, the family the decay table tabulates; over the primitive odd
family alone the b = 5 row misses the table by 0.06.  If it fails, the
printed block is the discrepancy report.  The README's decay-table
section lists both families side by side.
"""

import math
import time
from fractions import Fraction

import numpy as np

from collspec.characters import Character
from collspec.collision import collision_invariant, diagonal_set
from collspec.lvalues import class_number_check, l_value_series
from collspec.packet import TABLE1_FAMILY, TABLE1_TARGETS, packet_stats
from collspec.prime_sums import verify_expansion
from collspec.spectrum import (
    spectrum_of,
    verify_base5_identities,
    verify_encoding,
    verify_fourth_moment,
    verify_moment,
    verify_proof_steps,
)
from collspec.front import is_odd_prime
from collspec.unit_group import build_unit_group
from oracles import l_value_closed

DECOMPOSE_BASES = (3, 5, 7, 11, 13, 19, 31, 43)
PRIMES_TO_13 = (3, 5, 7, 11, 13)
PRIMES_TO_43 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
PRIMES_TO_97 = PRIMES_TO_43 + (47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
KNOWN_H = {7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 43: 1, 47: 5, 59: 3, 67: 1,
           71: 7, 79: 5, 83: 3, 103: 5, 107: 3, 127: 5, 131: 5, 139: 3,
           151: 7, 163: 1}


def report(k, name, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {k}] {name}: {flag}{suffix}")


def test_criterion_1_decomposition():
    t0 = time.perf_counter()
    worst = 0.0
    for b in DECOMPOSE_BASES:
        spec = spectrum_of(b)
        worst = max(worst, spec.factorization_residual[spec.odd & spec.primitive].max())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, "decomposition", ok, f"worst {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_proof_steps():
    worst = 0.0
    for b in PRIMES_TO_13:
        steps = verify_proof_steps(b)
        worst = max(worst, max(v.max() for k, v in steps.items() if k not in ("b", "j")))
    ok = worst < 1e-10
    report(2, "proof steps", ok, f"worst {worst:.2e}")
    assert ok


def test_criterion_3_vanishing():
    worst_hat = worst_sg = 0.0
    for b in PRIMES_TO_43:
        spec = spectrum_of(b)
        vanishing = ~spec.odd, spec.odd & ~spec.primitive
        for mask in vanishing:
            worst_hat = max(worst_hat, abs(spec.s_hat[mask]).max())
        worst_sg = max(worst_sg, abs(spec.S_G[vanishing[1]]).max())
    ok = worst_hat < 1e-11 and worst_sg < 1e-12
    report(3, "vanishing families", ok,
           f"coeff {worst_hat:.2e}, diag {worst_sg:.2e}")
    assert ok


def test_criterion_4_moment():
    worst = 0.0
    for b in (3, 5, 7, 13):
        rep = verify_moment(b)
        worst = max(worst, rep["rel_err"], rep["parseval_rel_err"])
    ok = worst < 1e-9
    report(4, "moment identity", ok, f"worst rel {worst:.2e}")
    assert ok


def test_criterion_5_encoding():
    worst = 0.0
    for b in PRIMES_TO_43:
        worst = max(worst, verify_encoding(b)["residual"].max())
    ok = worst < 1e-10
    report(5, "L-encoding", ok, f"worst {worst:.2e}")
    assert ok


def test_criterion_6_short_sums():
    worst_doubling = 0.0
    for b in PRIMES_TO_13:
        worst_doubling = max(worst_doubling,
                             verify_base5_identities(b)["doubling_residual"].max())
    sqrt5 = verify_base5_identities(5)["sqrt5_residual"].max()
    fourth = verify_fourth_moment()
    ok = worst_doubling < 1e-10 and sqrt5 < 1e-10 and fourth["rel_err"] < 1e-9
    report(6, "short-sum identities", ok,
           f"doubling {worst_doubling:.2e}, sqrt5 {sqrt5:.2e}, fourth {fourth['rel_err']:.2e}")
    assert ok


def test_criterion_7_decay_table():
    """Table 1 over its family, all b(b-1)/2 odd chi mod b**2."""
    t0 = time.perf_counter()
    failures = []
    for b in sorted(TABLE1_TARGETS):
        stats = packet_stats(b, TABLE1_FAMILY)
        mean_ref, std_ref = TABLE1_TARGETS[b]
        mean_gap = abs(stats["mean_ratio"] - mean_ref)
        std_gap = abs(stats["std_ratio"] - std_ref)  # the table's std is the population one
        phase_gap = abs(stats["mean_phase_cos"])
        in_band = mean_gap <= 0.05 and std_gap <= 0.05 and phase_gap <= 0.05
        if not in_band:
            failures.append(
                f"b={b}: mean {stats['mean_ratio']:.4f} vs {mean_ref} "
                f"(gap {mean_gap:.4f}), population std {stats['std_ratio']:.4f} "
                f"vs {std_ref} (gap {std_gap:.4f})"
            )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report(7, "decay-table reproduction", ok, f"{elapsed:.1f}s")
    if failures:
        print("    discrepancy report:")
        for line in failures:
            print(f"      {line}")
        print(f"      family: {'all' if TABLE1_FAMILY else 'primitive'} odd characters mod b^2; the")
        print("      packet formula and the closed-form L-values are")
        print("      cross-validated in tests/test_packet.py.  see the")
        print("      README's decay table for both families.")
    assert ok


def test_criterion_8_series_oracle():
    worst = -math.inf
    for b in (3, 5, 7):
        spec = spectrum_of(b)
        js = np.flatnonzero(spec.odd & spec.primitive)
        columns = l_value_series(spec.group, js, 10 ** 7)
        for j, series, tail in zip(js.tolist(), columns["series"], columns["tail_bound"]):
            closed = l_value_closed(Character(spec.group, j))
            worst = max(worst, abs(closed - series) - tail)
    ok = worst <= 1e-9
    report(8, "series vs closed form", ok, f"worst gap-tail {worst:.2e}")
    assert ok


def test_criterion_9_class_numbers():
    bad = []
    for b in range(7, 164):
        if not (is_odd_prime(b) and b % 4 == 3):
            continue
        rec = class_number_check(b)
        if rec["h_from_L"] != rec["h_from_forms"] or rec["h_from_forms"] != KNOWN_H[b]:
            bad.append((b, rec["h_from_L"], rec["h_from_forms"]))
    ok = not bad
    report(9, "class numbers", ok, f"{len(KNOWN_H)} discriminants" if ok else str(bad))
    assert ok


def test_criterion_10_expansion():
    worst_resid, worst_margin = 0.0, math.inf
    for rec in verify_expansion([5, 7], [0.8, 1.2, 2.0], 10 ** 5):
        worst_resid = max(worst_resid, rec["expansion_residual"])
        worst_margin = min(worst_margin, rec["margin"])
    ok = worst_resid < 1e-9 and worst_margin >= -1e-10
    report(10, "expansion identity", ok,
           f"resid {worst_resid:.2e}, min margin {worst_margin:+.4f}")
    assert ok


def test_criterion_11_exact_structure():
    ok = True
    for b in PRIMES_TO_97:
        table = collision_invariant(build_unit_group(b * b))
        m = table.m
        for k in range(1, b):
            if table.S0_num[table.units % b == k].sum() != 0:
                ok = False
        s0 = dict(zip(table.units.tolist(), table.S0_num.tolist()))
        for a, num in s0.items():
            if s0[m - a] != -num:
                ok = False
        if len(diagonal_set(b)) != b:
            ok = False
    report(11, "exact rational structure", ok, f"b up to {PRIMES_TO_97[-1]}")
    assert ok
