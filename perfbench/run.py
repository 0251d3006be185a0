"""End-to-end and per-layer benchmark of the collspec command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each op is one fresh
`python -m collspec ...` process (PYTHONPATH=src), run in a closed loop
with one client: the next op starts only after the previous one has
exited.  The workload's op list is repeated until --seconds is used up
(the first pass always completes; an op is not started when its median
so far would overrun).  Every report is checked (see check.py) and the
last line of stdout is one JSON object:

  --trace 0  end-to-end metrics, tracing off:
    setup_s           median wall time of `collspec --help` (interpreter,
                      import, parser), SETUP_REPEATS spawns after a warm-up
    wall_s            wall time of the op list: per-op medians, summed
    cpu_s             child user+sys CPU of the op list, same reduction
    peak_rss_mb       largest child ru_maxrss over all ops (os.wait4)
    ok_ratio          ops that succeeded / ops attempted
    headroom_decades  min log10(tolerance / worst residual), passing gated verdicts

  --trace 1  per-layer metrics: one pass through traced.py, which wraps the
    library's public functions in spans, then untraced passes for the
    overhead ratio.

The seed picks the inputs from narrow bands; seed 0 gives the inputs the
golden reports in golden/ were captured with.  See README.md.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 0
SETUP_REPEATS = 7
OP_TIMEOUT_S = 120.0
HARD_LIMIT_S = 160.0  # the whole run, set-up included, ends well inside 180 s
LAYERS = ("unit_group", "characters", "collision", "spectrum",
          "lvalues", "packet", "prime_sums", "cli")
SCAN_BASES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


# ====== workloads ======


def workload_ops(name: str, seed: int) -> list[tuple[str, ...]]:
    """The workload's op list (collspec argv per op) for this seed.

    Bands are narrow on purpose: the largest-memory op of each workload
    is pinned, and the others move cost by a few percent at most, so
    that seeds differ in inputs but not in the amount of work.  Where a
    neighbouring base would cost 5% or more of the pass, the seed only
    reorders the bases.
    """
    rng = random.Random(seed)
    default = seed == DEFAULT_SEED

    def pick(band, bold):
        return bold if default else rng.choice(band)

    if name == "spectrum-scan":
        scan = list(SCAN_BASES)
        if not default:
            rng.shuffle(scan)  # report order changes, work does not
        b_moment = pick((59, 61), 61)
        return [
            ("verify", "decompose", "--bases", ",".join(map(str, scan))),
            ("verify", "decompose", "--base", "97"),
            ("verify", "moment", "--bases", f"43,{b_moment}"),
            ("verify", "vanishing", "--base", str(b_moment)),
            ("verify", "steps", "--base", "31"),
        ]
    if name == "prime-sums":
        n = 10**7 if default else rng.randrange(9_800_000, 10_200_001)
        return [
            ("sweep",),
            ("cross-moment", "--bases", "5,7", "--s", "0.8,1.2", "--cutoff", str(n)),
            ("expansion", "--base", "7", "--cutoff", str(n)),
        ]
    if name == "packets":
        return [
            ("table1",),
            ("table1", "--bases", pick(("61,73", "73,61"), "61,73")),
            ("packet", "--base", "43"),
            ("lvalue", "--base", "43", "--cutoff", "4000000"),
            ("classnumber",),
        ]
    if name == "exact-dump":
        return [
            ("dump-collision", "--base", "251", "--format", "csv"),
            ("dump-collision", "--base", str(pick((193, 197, 199), 199)), "--format", "json"),
        ]
    raise KeyError(name)


WORKLOADS = ("spectrum-scan", "prime-sums", "packets", "exact-dump")


def golden_path(argv) -> Path:
    slug = re.sub(r"[^A-Za-z0-9]+", "-", " ".join(argv)).strip("-")
    return GOLDEN / f"{slug}.{'csv' if check.is_csv(argv) else 'json'}.gz"


def read_golden(argv) -> bytes | None:
    path = golden_path(argv)
    return gzip.decompress(path.read_bytes()) if path.is_file() else None


# ====== one child process ======


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    out: Path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("COLLSPEC_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], out: Path, timeout: float) -> tuple[float, float, float, int]:
    """Run cmd to completion; (wall s, cpu s, maxrss MB, exit code)."""
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=child_env(), cwd=WORK)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


# ====== the measured loop ======


class Run:
    def __init__(self, ops, seconds: int) -> None:
        self.ops = ops
        self.seconds = seconds
        self.t_start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.verdicts: dict[tuple, tuple[list[str], float | None]] = {}
        self.goldens: dict[tuple, bytes | None] = {}
        self.headrooms: list[float] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.t_start)

    def golden(self, argv) -> bytes | None:
        if argv not in self.goldens:
            self.goldens[argv] = read_golden(argv)
        return self.goldens[argv]

    def op(self, argv, slot: int, traced: bool = False) -> Sample | None:
        """Spawn and check one op; None when it could not be completed."""
        self.attempted += 1
        if self.remaining() <= 0:
            self.failed += 1
            print(f"FAIL {' '.join(argv)}: run time limit reached", file=sys.stderr)
            return None
        out = WORK / f"op{slot}.out"
        sidecar = out.with_suffix(".trace.json")
        sidecar.unlink(missing_ok=True)
        prog = [str(HERE / "traced.py"), str(sidecar)] if traced else ["-m", "collspec"]
        wall, cpu, rss, code = spawn(
            [sys.executable, *prog, *argv], out, min(OP_TIMEOUT_S, self.remaining())
        )
        data = out.read_bytes()
        key = (argv, code, hashlib.sha256(data).digest())
        if key not in self.verdicts:
            self.verdicts[key] = check.check_report(argv, code, data, self.golden(argv))
        problems, headroom = self.verdicts[key]
        if problems:
            self.failed += 1
            print(f"FAIL {' '.join(argv)}: " + "; ".join(problems), file=sys.stderr)
        elif headroom is not None:
            self.headrooms.append(headroom)
        return Sample(wall, cpu, rss, out)

    def setup_times(self) -> list[float]:
        """Wall time of `collspec --help`, after one warm-up spawn."""
        times = []
        for i in range(SETUP_REPEATS + 1):
            self.attempted += 1
            wall, _, _, code = spawn([sys.executable, "-m", "collspec", "--help"],
                                     WORK / "setup.out", min(OP_TIMEOUT_S, self.remaining()))
            if code != 0:
                self.failed += 1
                print(f"FAIL collspec --help: exit code {code}", file=sys.stderr)
            elif i > 0:
                times.append(wall)
        return times

    def loop(self, deadline: float) -> dict[tuple, list[Sample]]:
        """Repeat the op list until the deadline; the first pass always completes."""
        samples: dict[tuple, list[Sample]] = {argv: [] for argv in self.ops}
        k = 0
        while True:
            slot = k % len(self.ops)
            argv = self.ops[slot]
            if k >= len(self.ops):
                walls = [s.wall for s in samples[argv]]
                if not walls or time.perf_counter() + statistics.median(walls) > deadline:
                    break
            sample = self.op(argv, slot)
            if sample is not None:
                samples[argv].append(sample)
            k += 1
        return samples


def median_sum(samples: dict[tuple, list[Sample]], field: str) -> float:
    """Sum over the op list of each op's median; 0 for an op with no sample."""
    return math.fsum(
        statistics.median(getattr(s, field) for s in group) if group else 0.0
        for group in samples.values()
    )


# ====== end-to-end run ======


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    setup = run.setup_times()
    samples = run.loop(time.perf_counter() + run.seconds)
    flat = [s for group in samples.values() for s in group]
    for argv, group in samples.items():
        walls = ", ".join(f"{s.wall:.3f}" for s in group)
        print(f"op {' '.join(argv)}: n={len(group)} wall_s=[{walls}]")
    return {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "wall_s": (median_sum(samples, "wall"), "s"),
        "cpu_s": (median_sum(samples, "cpu"), "s"),
        "peak_rss_mb": (max((s.rss_mb for s in flat), default=0.0), "MB"),
        "ok_ratio": (1 - run.failed / max(run.attempted, 1), "ratio"),
        "headroom_decades": (min(run.headrooms, default=0.0), "decades"),
    }


# ====== traced run ======


def scaling_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log seconds against log phi; 0 below two phis."""
    pts = [(math.log(phi), math.log(sec)) for phi, sec in points if sec > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = math.fsum((x - mx) ** 2 for x, _ in pts)
    return math.fsum((x - mx) * (y - my) for x, y in pts) / sxx


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    traced_wall, report_bytes, identical = 0.0, 0, 0
    functions: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    gauss = {"hits": 0, "misses": 0}
    values = {"hits": 0, "misses": 0}
    decompose_points, collision_peak = [], 0.0
    for slot, argv in enumerate(run.ops):
        sample = run.op(argv, slot, traced=True)
        if sample is None:
            continue
        traced_wall += sample.wall
        data = sample.out.read_bytes()
        report_bytes += len(data)
        identical += data == run.golden(argv)
        sidecar_path = sample.out.with_suffix(".trace.json")
        if not sidecar_path.is_file():  # killed before exit; already counted as failed
            continue
        sidecar = json.loads(sidecar_path.read_text())
        for name, row in sidecar["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, value in sidecar["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for acc, key in ((gauss, "gauss_cache"), (values, "values_cache")):
            for field in acc:
                acc[field] += sidecar[key][field]
        decompose_points += [(phi, sec) for b, phi, sec in sidecar["decompose_samples"] if b >= 13]
        collision_peak = max(collision_peak, sidecar["collision_peak_mb"])
    untraced = run.loop(run.t_start + run.seconds)
    wall, cpu = median_sum(untraced, "wall"), median_sum(untraced, "cpu")

    def fn(name: str, field: str) -> float:
        return functions.get(name, {}).get(field, 0)

    self_s = {layer: 0.0 for layer in LAYERS}
    for name, row in functions.items():
        self_s[spanlib.module_of(name)] += row["self_s"]
    total_self = math.fsum(self_s.values())
    print("self-time share: " + ", ".join(
        f"{layer} {_ratio(t, total_self):.1%}" for layer, t in self_s.items()))
    decompositions = fn("spectrum.verify_decomposition", "calls")
    m = {f"{layer}.self_s": (t, "s") for layer, t in self_s.items()}
    m.update({
        "unit_group.sieve_s": (fn("unit_group.sieve_primes", "incl_s"), "s"),
        "unit_group.sieved_n": (counts.get("unit_group.sieved_n", 0), "count"),
        "characters.value_calls": (counts.get("characters.Character.value", 0), "count"),
        "characters.values_hit_ratio":
            (_ratio(values["hits"], values["hits"] + values["misses"]), "ratio"),
        "characters.gauss_sums": (gauss["misses"], "count"),
        "characters.gauss_hit_ratio":
            (_ratio(gauss["hits"], gauss["hits"] + gauss["misses"]), "ratio"),
        "collision.units": (counts.get("collision.units", 0), "count"),
        "collision.peak_alloc_mb": (collision_peak, "MB"),
        "spectrum.decompositions": (decompositions, "count"),
        "spectrum.characters": (counts.get("spectrum.characters", 0), "count"),
        "spectrum.steps_s": (fn("spectrum.verify_proof_steps", "incl_s"), "s"),
        "spectrum.scaling_exp": (scaling_exponent(decompose_points), "1"),
        "spectrum.decompose_repeat_ratio":
            (_ratio(counts.get("spectrum.decompose_repeats", 0), decompositions), "ratio"),
        "lvalues.closed_calls": (fn("lvalues.l_value_closed", "calls"), "count"),
        "lvalues.series_s": (fn("lvalues.l_value_series", "incl_s"), "s"),
        "packet.twists": (counts.get("packet.twists", 0), "count"),
        "prime_sums.p_trunc_calls": (fn("prime_sums.p_trunc", "calls"), "count"),
        "prime_sums.prime_terms": (counts.get("prime_sums.prime_terms", 0), "count"),
        "cli.render_s": (math.fsum(fn(f"cli.render_{kind}", "incl_s")
                                   for kind in ("json", "csv", "pretty")), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "cli.reports_identical": (identical, "count"),
        "process.cpu_s": (cpu, "s"),
        "process.cpu_per_wall": (_ratio(cpu, wall), "ratio"),
        "process.trace_overhead": (_ratio(traced_wall, wall), "ratio"),
    })
    return m


# ====== provenance ======


def _git_commit() -> str | None:
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _blas() -> tuple[str | None, int | None]:
    """(OpenBLAS version, thread count) of the numpy the children import."""
    import ctypes

    import numpy

    version = None
    try:
        version = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        pass
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getter = getattr(handle, sym)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return version, int(getter())
    return version, None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "collspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    openblas, threads = _blas()
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": openblas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# ====== entry point ======


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "collspec" / "cli.py").is_file():
        print(f"error: no collspec sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    print("provenance: " + json.dumps(provenance(args.seed)))
    ops = workload_ops(args.workload, args.seed)
    run = Run(ops, args.seconds)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
