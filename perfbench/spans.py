"""Span arithmetic shared by the traced runner (traced.py) and run.py.

A span is (name, start, end, parent) where parent is the index of the
span that caused it, or -1 for a root.  Times are seconds.
"""

from __future__ import annotations

from collections import defaultdict


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed duration and summed self time."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += own
    return out


def module_of(name: str) -> str:
    """'spectrum.verify_decomposition' -> 'spectrum'."""
    return name.split(".", 1)[0]
