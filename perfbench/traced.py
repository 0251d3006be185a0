"""Run one collspec command with its library layers traced.

    PYTHONPATH=src python3 perfbench/traced.py SIDECAR.json <collspec args...>

Every public function of the eight library modules is wrapped in each
collspec namespace that binds it (modules import by name, so e.g.
lvalues' own binding of verify_decomposition is wrapped too).  A wrapper
records a span (name, start, end, parent) in memory; hot per-element
calls are counted instead of spanned.  collspec.cli.main then runs as
usual, and at exit the spans are reduced to per-function call counts,
inclusive and self seconds, which are written to SIDECAR.json together
with the layer counters the benchmark reports.  The report and the exit
code are those of `python -m collspec`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import spans as spanlib

MODULES = (
    "unit_group", "characters", "collision", "spectrum",
    "lvalues", "packet", "prime_sums", "cli",
)

# Per-element calls: a span each would cost more than the call itself.
COUNTED = {"characters.roots_of_unity", "characters.lift_and_twist", "cli.fmt_float"}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.decomposed: set[int] = set()
        self.decompose_samples: list[tuple[int, int, float]] = []  # (b, phi, s), first call per b
        self.collision_peak_mb = 0.0
        self.prime_terms_memo: dict[tuple, int] = {}

    # ---- wrappers ----

    def spanned(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = getattr(self, "_after_" + name.replace(".", "__"), None)
        around = getattr(self, "_around_" + name.replace(".", "__"), None)
        call = functools.partial(around, fn) if around else fn
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.ids)
            self.ids.append(nid)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.starts.append(clock())
            self.ends.append(0.0)
            self.stack.append(idx)
            try:
                result = call(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self.stack.pop()
            if hook is not None:
                hook(args, kwargs, result, self.ends[idx] - self.starts[idx])
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- per-layer counters, taken at the layer boundary ----

    def _after_unit_group__sieve_primes(self, args, kwargs, result, dur):
        self.counts["unit_group.sieved_n"] += _arg(args, kwargs, 0, "limit")

    def _around_collision__collision_invariant(self, fn, *args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            self.collision_peak_mb = max(self.collision_peak_mb, peak)
            if started:
                tracemalloc.stop()

    def _after_collision__collision_invariant(self, args, kwargs, result, dur):
        self.counts["collision.units"] += len(result.S)

    def _after_spectrum__verify_decomposition(self, args, kwargs, result, dur):
        b = _arg(args, kwargs, 0, "b")
        self.counts["spectrum.characters"] += len(result)
        if b in self.decomposed:
            self.counts["spectrum.decompose_repeats"] += 1
        else:
            self.decomposed.add(b)
            self.decompose_samples.append((b, b * (b - 1), dur))

    def _after_prime_sums__p_trunc(self, args, kwargs, result, dur):
        chi = _arg(args, kwargs, 0, "chi")
        cutoff = _arg(args, kwargs, 2, "cutoff")
        primes = _arg(args, kwargs, 3, "primes")
        key = (chi.group.q, cutoff, id(primes))
        if key not in self.prime_terms_memo:
            prime_sums = sys.modules["collspec.prime_sums"]
            self.prime_terms_memo[key] = int(
                prime_sums._primes_in_range(primes, chi.group.q, cutoff).size
            )
        self.counts["prime_sums.prime_terms"] += self.prime_terms_memo[key]

    def _after_packet__packet_delta(self, args, kwargs, result, dur):
        self.counts["packet.twists"] += result.twist_count

    # ---- installation and output ----

    def install(self) -> None:
        import collspec

        mods = {short: importlib.import_module(f"collspec.{short}") for short in MODULES}
        self.gauss_cache = mods["characters"].gauss_sum.cache_info
        self.values_cache = mods["characters"]._values_on_units.cache_info
        namespaces = [collspec, importlib.import_module("collspec.errors"), *mods.values()]
        replaced = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # bound here by import; wrapped under its home module
                qual = f"{short}.{name}"
                replaced[id(obj)] = (self.counted if qual in COUNTED else self.spanned)(qual, obj)
        # Rebind by name in every namespace, and inside module-level dispatch
        # tables such as cli._RENDERERS, which captured the originals at import.
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    setattr(ns, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]
        character = mods["characters"].Character
        character.value = self.counted("characters.Character.value", character.value)
        character.values_on_units = self.counted(
            "characters.Character.values_on_units", character.values_on_units
        )

    def summary(self) -> dict:
        spans = [
            (self.names[i], s, e, p)
            for i, s, e, p in zip(self.ids, self.starts, self.ends, self.parents)
        ]
        gauss = self.gauss_cache()
        values = self.values_cache()
        return {
            "functions": spanlib.aggregate(spans),
            "root_s": math.fsum(e - s for _, s, e, p in spans if p < 0),
            "counts": dict(self.counts),
            "gauss_cache": {"hits": gauss.hits, "misses": gauss.misses},
            "values_cache": {"hits": values.hits, "misses": values.misses},
            "decompose_samples": self.decompose_samples,
            "collision_peak_mb": self.collision_peak_mb,
        }


def main() -> int:
    sidecar, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from collspec import cli  # after install: main is the wrapped binding

    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(sidecar, "w", encoding="utf-8") as fp:
            json.dump(tracer.summary(), fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
