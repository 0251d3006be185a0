import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from collspec import cli, collision, front, lvalues, packet, prime_sums, spectrum, unit_group
from collspec.cli import main


def run_main(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def strict_json(text: str):
    """json.loads that refuses the non-standard NaN/Infinity literals."""
    def refuse(literal):
        raise ValueError(f"non-standard JSON literal {literal}")
    return json.loads(text, parse_constant=refuse)


def test_verify_decompose_passes(capsys):
    code, out, _ = run_main(capsys, "verify", "decompose", "--base", "5")
    assert code == 0
    doc = json.loads(out)  # non-tty default is JSON
    assert doc["command"] == "verify-decompose"
    assert doc["passed"] is True
    assert len(doc["verdicts"]) == 1
    v = doc["verdicts"][0]
    assert v["worst_residual"] < v["tolerance"]
    assert len(v["details"]) == 20


def test_non_prime_base_is_usage_error(capsys):
    code, _, err = run_main(capsys, "verify", "decompose", "--base", "4")
    assert code == 2
    assert "NotOddPrime" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "decompose", "--base", "3593"),  # the first prime above MAX_BASE
        ("table1", "--base", "3"),  # packet statistics need b >= 5
        ("lvalue", "--base", "5", "--cutoff", "100"),  # series needs q^2 terms
        ("cross-moment", "--base", "5", "--s", "0.3"),  # bound needs s > 0.5
        ("cross-moment", "--base", "5", "--s", "nan", "--cutoff", "2000"),  # s must be finite
        ("sweep", "--bases", "3,5", "--s", "inf", "--cutoff", "2000"),
        ("lvalue", "--base", "5", "--cutoff", "10000000000"),  # series above SERIES_LIMIT
        ("cross-moment", "--base", "5", "--s", "1e300", "--cutoff", "2000"),  # p^-s underflows
        ("cross-moment", "--base", "5", "--s", "300", "--cutoff", "2000"),
        ("expansion", "--base", "5", "--s", "1e300", "--cutoff", "2000"),
        ("cross-moment", "--base", "5", "--cutoff", "28"),  # no prime in (25, 28]
        ("verify", "decompose", "--base", "5", "--out", "no-such-dir/x.json"),
        ("verify", "decompose", "--base", "5", "--out", "."),  # a directory
        ("expansion", "--base", "5", "--cutoff", "1"),  # below the sieve's least limit
        ("verify", "decompose", "--base", "2305843009213693951"),  # 2**61 - 1: see below
    ],
)
def test_bad_input_is_usage_error(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


def test_huge_prime_base_is_refused_before_primality():
    # trial division of 2**61 - 1 would run for hours; the bound comes first
    proc = subprocess.run([sys.executable, "-m", "collspec", "verify", "decompose",
                           "--base", "2305843009213693951"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: BaseOutOfRange")


def test_unwritable_out_dir_is_usage_error(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLLSPEC_OUT_DIR", str(tmp_path / "no-such-dir"))
    code, out, err = run_main(capsys, "verify", "decompose", "--base", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: FileNotFoundError") and len(err.splitlines()) == 1


MISSING = "FileNotFoundError: [Errno 2] No such file or directory"


@pytest.mark.parametrize("where,error", [
    ("out", MISSING),
    ("out-is-dir", "IsADirectoryError: [Errno 21] Is a directory"),
    ("out-dir", MISSING),
    ("out-dir-is-file", "NotADirectoryError: [Errno 20] Not a directory"),
])
def test_unwritable_report_is_refused_before_the_check(capsys, monkeypatch, tmp_path,
                                                       where, error):
    def refuse(b):
        raise AssertionError("the check ran")

    monkeypatch.setattr(spectrum, "spectrum_of", refuse)
    out_dir = tmp_path / "no-such-dir"
    argv = ["verify", "decompose", "--base", "5"]
    if where == "out":
        path = out_dir / "r.json"
        argv += ["--out", str(path)]
    elif where == "out-is-dir":
        path = tmp_path
        argv += ["--out", str(path)]
    else:
        if where == "out-dir-is-file":
            out_dir.write_text("")
        monkeypatch.setenv("COLLSPEC_OUT_DIR", str(out_dir))
        path = out_dir / "verify-decompose.json"
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {error}: {str(path)!r}\n"


LIBRARY_REFUSALS = [
    (("cross-moment", "--base", "5", "--s", "0.3", "--cutoff", "1000000000"),
     "ExponentOutOfRange: need a finite s > 0.5, got 0.3"),
    (("expansion", "--bases", "3,5", "--s", "1.2,-1", "--cutoff", "2000"),
     "ExponentOutOfRange: need a finite s > 0, got -1.0"),
    (("expansion", "--base", "1999", "--cutoff", "5000"),
     "CutoffBelowModulus: cutoff 5000 does not exceed modulus 3996001"),
    (("sweep", "--bases", "3,5", "--cutoff", "20"),
     "CutoffBelowModulus: cutoff 20 does not exceed modulus 25"),
    (("lvalue", "--base", "997", "--cutoff", "1000"),
     "CutoffTooShort: truncation 1000 too short; need at least q^2 = 988053892081"),
    (("lvalue", "--base", "97", "--cutoff", "100000001"),
     "LimitTooLarge: truncation 100000001 exceeds the series bound 100000000"),
    (("lvalue", "--bases", "97,997", "--cutoff", "100000000"),  # refused before base 97's work
     "CutoffTooShort: truncation 100000000 too short; need at least q^2 = 988053892081"),
]


@pytest.mark.parametrize("argv,error", LIBRARY_REFUSALS,
                         ids=[" ".join(a) for a, _ in LIBRARY_REFUSALS])
def test_refused_input_costs_no_sieve_or_spectrum(capsys, monkeypatch, argv, error):
    def refuse(*args):
        raise AssertionError("the work began")

    for module in (unit_group, spectrum, prime_sums, lvalues):  # every binding of the two
        for name in ("sieve_primes", "spectrum_of"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    code, out, err = run_main(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("argv,lines", [
    (("dump-collision", "--base", "97", "--format", "csv"), 1),  # more than a pipe buffer
    (("verify", "vanishing", "--base", "3"), 0),  # written by the final flush
])
def test_closed_pipe_is_usage_error(argv, lines):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # block-buffered
    proc = subprocess.Popen([sys.executable, "-m", "collspec", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err.startswith("error: BrokenPipeError") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("expansion", "--base", "5", "--s", "1e308", "--cutoff", "2000"),
    ("cross-moment", "--base", "5", "--s", "1e308", "--cutoff", "2000"),
    ("sweep", "--bases", "5", "--s", "1e308", "--cutoff", "2000"),
])
def test_overflowing_exponent_is_one_error_line(argv):
    # -s ln p overflows to -inf; numpy must not warn on stderr before the error
    proc = subprocess.run([sys.executable, "-m", "collspec", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ExponentOutOfRange")

def test_bad_tol_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "decompose", "--base", "5", "--tol", "0"])
    assert exc.value.code == 2


def test_unknown_bases_string(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "moment", "--bases", "3;5"])
    assert exc.value.code == 2


def test_repeated_base_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "decompose", "--bases", "5,7,5"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == ["collspec: error: --bases repeats a base: 5,7,5"]


def test_failing_check_exits_1(capsys):
    # `table1` aggregates the primitive odd family, whose b=5 row misses
    # the table (which is over all odd chi) by 0.06
    code, out, _ = run_main(capsys, "table1", "--bases", "5")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False


def test_doubling_is_gated_at_every_base(capsys):
    _, out, _ = run_main(capsys, "verify", "base5", "--bases", "13,17")
    names = [v["check"] for v in json.loads(out)["verdicts"]]
    assert names == ["short-sum-doubling[b=13]", "short-sum-doubling[b=17]"]


def test_table1_known_good_base(capsys):
    code, out, _ = run_main(capsys, "table1", "--bases", "13")
    assert code == 0


def test_reruns_are_byte_identical(capsys):
    _, out1, _ = run_main(capsys, "verify", "moment", "--bases", "3,5")
    _, out2, _ = run_main(capsys, "verify", "moment", "--bases", "3,5")
    assert out1 == out2


def test_table1_csv_header(capsys):
    code, out, _ = run_main(capsys, "table1", "--bases", "7", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "b,mean_ratio,std_ratio,std_ln_b,std_log10_b,mean_phase_cos,count"
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "7"
    assert lines[1].split(",")[-1] == "18"


def test_dump_collision_csv(capsys):
    code, out, _ = run_main(capsys, "dump-collision", "--base", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,S,S_centered_num,S_centered_den"
    assert lines[1] == "1,0,2,3"
    assert lines[4] == "5,-1,-2,3"
    assert len(lines) == 7


def test_dump_collision_fails_a_broken_antisymmetry(capsys, monkeypatch):
    # S0 at a = 1 and 21 (one coset mod 5) swapped: the coset sums still vanish,
    # but S0(m - a) = -S0(a), the roll by phi/2 along t, fails.
    table = collision.collision_invariant(unit_group.build_unit_group(5))
    i, k = (table.units.tolist().index(a) for a in (1, 21))
    num = table.S0_num.copy()
    num[[i, k]] = num[[k, i]]
    assert num[i] != num[k] and not collision.coset_sums(5, table.units, num).any()
    monkeypatch.setattr(collision, "collision_invariant",
                        lambda group: replace(table, S0_num=num))
    code, out, _ = run_main(capsys, "dump-collision", "--base", "5")
    assert code == 1 and '"passed": false' in out


def test_dump_collision_single_base_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dump-collision", "--bases", "3,5"])
    assert exc.value.code == 2


def test_lvalue_series_verdict(capsys):
    code, out, _ = run_main(capsys, "lvalue", "--base", "3", "--cutoff", "100000")
    assert code == 0
    doc = json.loads(out)
    names = [v["check"] for v in doc["verdicts"]]
    assert names == ["lvalue-magnitude[b=3]", "lvalue-series[b=3]"]
    row = doc["verdicts"][0]["details"][0]
    assert row["series_truncation"] >= 100000


def test_lvalue_without_cutoff_skips_series(capsys):
    _, out, _ = run_main(capsys, "lvalue", "--base", "3")
    doc = json.loads(out)
    assert [v["check"] for v in doc["verdicts"]] == ["lvalue-magnitude[b=3]"]


def test_classnumber_defaults(capsys):
    code, out, _ = run_main(capsys, "classnumber")
    assert code == 0
    doc = json.loads(out)
    rows = doc["verdicts"][0]["details"]
    assert [r["b"] for r in rows][:4] == [7, 11, 19, 23]
    assert all(r["equal"] for r in rows)
    assert rows[-1]["b"] == 163


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["verify", "moment", "--base", "3", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["passed"] is True


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLLSPEC_OUT_DIR", str(tmp_path))
    code = main(["verify", "moment", "--base", "3"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "verify-moment.json").exists()


def test_out_csv_extension_picks_format(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    main(["dump-collision", "--base", "3", "--out", str(target)])
    capsys.readouterr()
    assert target.read_text().splitlines()[0] == "a,S,S_centered_num,S_centered_den"


def test_pretty_format(capsys):
    code, out, _ = run_main(capsys, "verify", "moment", "--base", "3",
                            "--format", "pretty")
    assert code == 0
    assert out.startswith("collspec verify-moment")
    assert "[PASS] moment[b=3]" in out
    assert out.rstrip().endswith("overall PASS")


def test_expansion_two_verdicts(capsys):
    code, out, _ = run_main(capsys, "expansion", "--base", "3", "--cutoff", "1000")
    assert code == 0
    doc = json.loads(out)
    assert [v["check"] for v in doc["verdicts"]] == ["expansion", "restriction"]


def test_expansion_accepts_s_below_one_half(capsys):
    # the expansion is a finite identity for every s > 0; only the bound needs s > 0.5
    code, out, _ = run_main(capsys, "expansion", "--base", "3", "--s", "0.3", "--cutoff", "1000")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_nan_margin_fails(capsys, monkeypatch):
    bound = prime_sums.cross_moment_bound

    def nan_at_5(*args):  # a NaN after a passing row must still fail
        return [{**rec, "margin": math.nan} if rec["b"] == 5 else rec for rec in bound(*args)]

    monkeypatch.setattr(prime_sums, "cross_moment_bound", nan_at_5)
    argv = ("cross-moment", "--bases", "3,5", "--cutoff", "1000", "--format")
    code, out, _ = run_main(capsys, *argv, "pretty")
    assert code == 1
    assert "[FAIL] cross-moment  worst=nan" in out
    code, out, _ = run_main(capsys, *argv, "json")
    assert code == 1
    verdict = strict_json(out)["verdicts"][0]  # NaN is written as null
    assert verdict["passed"] is False and verdict["worst_residual"] is None
    assert [row["margin"] is None for row in verdict["details"]] == [False, True]


def test_broken_l_value_fails_classnumber(capsys, monkeypatch):
    l_values = lvalues.odd_l_values

    def scaled(group):  # L(1) off by 1%: h = round(raw) still matches, raw does not
        return 1.01 * l_values(group)

    monkeypatch.setattr(lvalues, "odd_l_values", scaled)
    code, out, err = run_main(capsys, "classnumber", "--bases", "7,11", "--format", "pretty")
    assert code == 1
    assert "[FAIL] classnumber" in out
    assert "Traceback" not in out + err


def test_nan_packet_fails(capsys, monkeypatch):
    l_values = packet.odd_l_values

    def nan_at_1(group, weights):  # Delta of chi_19 = conj chi_1 is NaN
        out = l_values(group, weights)
        out[1] = math.nan
        return out

    monkeypatch.setattr(packet, "odd_l_values", nan_at_1)
    code, out, err = run_main(capsys, "packet", "--base", "5", "--format", "pretty")
    assert code == 1
    assert "[FAIL] packet[b=5]  worst=3" in out  # delta, ratio and phase_cos of one row
    assert "Traceback" not in out + err


def test_broken_diagonal_set_fails_decompose(capsys, monkeypatch):
    def moved(b):  # the member 1*(b+1) moved by 1
        members = list(collision.diagonal_set(b))
        members[1] += 1
        return tuple(members)

    monkeypatch.setattr(spectrum, "diagonal_set", moved)
    monkeypatch.setattr(spectrum, "_held", {})  # the broken spectrum goes with the patch
    # S_G no longer matches s_hat, and its fold mod b - 1 is no longer 0
    for what, failing in (("decompose", "decompose[b=13]"), ("vanishing", "vanishing-S-G[b=13]")):
        code, out, _ = run_main(capsys, "verify", what, "--base", "13", "--format", "pretty")
        assert code == 1
        assert f"[FAIL] {failing}" in out


def test_sweep_grid(capsys):
    code, out, _ = run_main(capsys, "sweep", "--bases", "3,5", "--s", "1.0,1.5",
                            "--cutoff", "2000")
    assert code == 0
    doc = json.loads(out)
    rows = doc["verdicts"][0]["details"]
    assert len(rows) == 4
    assert [(r["b"], r["s"]) for r in rows] == [(3, 1.0), (3, 1.5), (5, 1.0), (5, 1.5)]


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "collspec", "verify", "vanishing", "--base", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


# The child imports the entry point as the console script does, then
# prints the variable and the thread count of numpy's own OpenBLAS.
BLAS_PROBE = """
import ctypes, json, os
from pathlib import Path
import collspec.__main__
import numpy
threads = None
libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
for lib in sorted(libs.glob("*openblas*")):
    handle = ctypes.CDLL(str(lib))
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if threads is None and hasattr(handle, sym):
            getter = getattr(handle, sym)
            getter.restype, getter.argtypes = ctypes.c_int, []
            threads = getter()
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads,
                  len(os.sched_getaffinity(0))]))
"""


@pytest.mark.parametrize("given,pinned", [(None, "1"), ("2", "2")])
def test_entry_point_pins_blas_threads(given, pinned):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    value, threads, nproc = json.loads(proc.stdout)
    assert value == pinned
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be read")
    assert threads == min(int(pinned), nproc)  # OpenBLAS caps its pool at the cores


# A child started as the console script starts it: import the entry point
# and call its main.  On its last stderr line it reports the exit code,
# whether numpy loaded, the collspec modules loaded, those first imported
# after the heap was frozen, the freeze count (a freeze holds until exit),
# the BLAS pin, and which of the modules the command path must not load did.
ENTRY_CHILD = """
import gc, json, os, sys
late = []

class Late:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.startswith("collspec") and gc.get_freeze_count():
            late.append(name)

sys.meta_path.insert(0, Late)
from collspec.__main__ import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help and usage errors
    code = exc.code
sys.stdout.flush()
print(json.dumps({
    "code": code, "numpy": "numpy" in sys.modules,
    "collspec": sorted(m for m in sys.modules if m.split(".")[0] == "collspec"),
    "late": late, "frozen": gc.get_freeze_count(),
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "unwanted": [m for m in ("numpy.ma", "fractions") if m in sys.modules],
}), file=sys.stderr)
"""


def run_entry(*argv):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "COLLSPEC_OUT_DIR")}
    proc = subprocess.run([sys.executable, "-c", ENTRY_CHILD, *argv], capture_output=True,
                          timeout=60, env=env)
    report = json.loads(proc.stderr.splitlines()[-1])
    return report["code"], report, proc.stdout


@pytest.mark.parametrize("argv", [("packet", "--base", "5"), ("verify", "decompose", "--base", "5"),
                                  ("dump-collision", "--base", "5"), ("--help",)], ids=" ".join)
def test_command_path_skips_numpy_ma_and_fractions(argv):
    code, report, _ = run_entry(*argv)
    assert code == 0
    assert report["unwanted"] == []


FRONT_MODULES = ["collspec", "collspec.__main__", "collspec.errors", "collspec.front"]
FRONT_CASES = [
    (("--help",), 0),
    (("verify", "--help"), 0),
    (("dump-collision", "--help"), 0),
    (("verify", "decompose", "--base", "4"), 2),
    (("verify", "decompose", "--base", "3593"), 2),  # the first prime above MAX_BASE
    (("verify", "decompose", "--bases", "5,5"), 2),
    (("verify", "decompose", "--base", "5", "--bases", "7"), 2),
    (("verify", "decompose", "--base", "5", "--tol", "1"), 2),
    (("expansion", "--base", "5", "--cutoff", "0"), 2),
    (("cross-moment", "--base", "5", "--s", "x"), 2),
    (("dump-collision", "--bases", "5,7"), 2),
    (("verify", "decompose", "--base", "5", "--out", "no-such-dir/r.json"), 2),
    (("verify", "decompose", "--base", "199", "--out", "."), 2),
]


@pytest.mark.parametrize("argv,code", FRONT_CASES, ids=[" ".join(a) for a, _ in FRONT_CASES])
def test_help_and_refusals_end_before_numpy(argv, code):
    got, report, _ = run_entry(*argv)
    assert got == code
    assert not report["numpy"]
    assert report["collspec"] == FRONT_MODULES


BACK_MODULES = [*FRONT_MODULES, "collspec.cli"]
SPECTRUM = ["collision", "spectrum", "unit_group"]
LAYER_CASES = [
    (("verify", "decompose", "--base", "5"), SPECTRUM),
    (("verify", "steps", "--base", "5"), SPECTRUM),
    (("verify", "vanishing", "--base", "5"), SPECTRUM),
    (("verify", "moment", "--base", "5"), SPECTRUM),
    (("verify", "encoding", "--base", "5"), [*SPECTRUM, "characters", "lvalues"]),
    (("verify", "base5", "--base", "5"), SPECTRUM),
    (("table1", "--bases", "7"), [*SPECTRUM, "packet"]),
    (("packet", "--base", "5"), [*SPECTRUM, "packet"]),
    (("lvalue", "--base", "5", "--cutoff", "1000"), [*SPECTRUM, "characters", "lvalues"]),
    (("classnumber", "--bases", "7"), [*SPECTRUM, "characters", "lvalues"]),
    (("cross-moment", "--base", "5", "--cutoff", "2000"), [*SPECTRUM, "prime_sums"]),
    (("expansion", "--base", "5", "--cutoff", "2000"), [*SPECTRUM, "prime_sums"]),
    (("sweep", "--bases", "5", "--cutoff", "2000"), [*SPECTRUM, "prime_sums"]),
    (("dump-collision", "--base", "5"), ["collision", "unit_group"]),
]


@pytest.mark.parametrize("argv,layers", LAYER_CASES, ids=[" ".join(a) for a, _ in LAYER_CASES])
def test_command_runs_frozen_with_only_its_layers(argv, layers):
    # pinned BLAS, a frozen heap, and no library module the check does not
    # use, nor any imported after the freeze
    code, report, _ = run_entry(*argv)
    assert code == 0
    assert report["blas"] == "1"
    assert report["frozen"] > 10_000
    assert report["late"] == []
    assert report["collspec"] == sorted([*BACK_MODULES, *(f"collspec.{m}" for m in layers)])


def test_front_and_back_name_the_same_commands():
    assert len(front.COMMANDS) == 14
    assert list(front.COMMANDS) == list(cli.CHECKS)


def test_default_bases():
    assert front.COMMANDS["table1"].bases == tuple(sorted(packet.TABLE1_TARGETS))
    assert front.COMMANDS["classnumber"].bases == (7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79,
                                                   83, 103, 107, 127, 131, 139, 151, 163)


EXIT_CASES = [
    (("verify", "decompose", "--base", "5"), 0),
    (("table1", "--bases", "5"), 1),
    (("verify", "decompose", "--base", "4"), 2),
]


@pytest.mark.parametrize("argv,code", EXIT_CASES, ids=[" ".join(a) for a, _ in EXIT_CASES])
def test_entry_point_reports_as_cli_main(capsys, argv, code):
    got, out, _ = run_main(capsys, *argv)
    assert got == code
    entry_code, _, entry_out = run_entry(*argv)
    assert (entry_code, entry_out) == (code, out.encode("utf-8"))


# The child sets the collector as a host program might, imports the entry
# point and then every library module, and prints the collector's state.
GC_CHILD = """
import gc, importlib, json, pkgutil, sys
gc.enable() if sys.argv[1] == "on" else gc.disable()
import collspec.__main__
import collspec
for module in pkgutil.iter_modules(collspec.__path__):
    importlib.import_module(f"collspec.{module.name}")
print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))
"""


@pytest.mark.parametrize("state", ["on", "off"])
def test_importing_leaves_the_collector_alone(state):
    proc = subprocess.run([sys.executable, "-c", GC_CHILD, state], capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == [state == "on", 0]


# Reports pinned byte for byte in tests/golden/, in each format, with the
# exit code.  Rewrite the files with `PYTHONPATH=src python tests/test_cli.py`.
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = [
    (("verify", "decompose", "--bases", "3,5"), 0),
    (("verify", "steps", "--base", "5"), 0),
    (("verify", "vanishing", "--base", "7", "--tol", "1e-8"), 0),
    (("verify", "moment", "--bases", "3,5,7"), 0),
    (("verify", "encoding", "--base", "7"), 0),
    (("verify", "base5", "--bases", "5,7"), 0),
    (("verify", "base5", "--base", "17"), 0),  # short-sum-doubling above b = 13
    (("table1", "--bases", "5,7,11"), 1),  # red, passing and measured rows
    (("packet", "--base", "5"), 0),
    (("lvalue", "--base", "5"), 0),
    (("lvalue", "--base", "5", "--cutoff", "1000"), 0),
    (("classnumber",), 0),
    (("cross-moment", "--base", "5", "--s", "1.2", "--cutoff", "2000"), 0),
    (("cross-moment", "--bases", "3,5", "--s", "0.8,1.5", "--cutoff", "20000"), 0),
    (("expansion", "--base", "5", "--cutoff", "2000"), 0),
    (("sweep", "--bases", "3,5", "--cutoff", "20000"), 0),
    (("dump-collision", "--base", "5"), 0),
]
GOLDEN_FORMATS = {"json": "json", "csv": "csv", "pretty": "txt"}


def golden_path(argv, fmt: str) -> Path:
    slug = re.sub(r"[^A-Za-z0-9.]+", "-", " ".join(argv)).strip("-")
    return GOLDEN / f"{slug}.{GOLDEN_FORMATS[fmt]}"


@pytest.mark.parametrize("fmt", list(GOLDEN_FORMATS))
@pytest.mark.parametrize("argv,code", GOLDEN_CASES, ids=[" ".join(a) for a, _ in GOLDEN_CASES])
def test_report_matches_golden(capsys, argv, code, fmt):
    got, out, _ = run_main(capsys, *argv, "--format", fmt)
    assert got == code
    golden = golden_path(argv, fmt).read_bytes()
    assert out.encode("utf-8") == golden
    if fmt == "json":
        strict_json(golden)


# --help of the top level, of verify and of each other command, pinned at
# 80 columns in tests/golden/help*.txt.
HELP_CASES = [(), ("verify",),
              *((name,) for name in front.COMMANDS if not name.startswith("verify-"))]


@pytest.mark.parametrize("argv", HELP_CASES, ids=lambda argv: " ".join(argv) or "top")
def test_help_matches_golden(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    golden = GOLDEN / f"{'-'.join(('help', *argv))}.txt"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


THREAD_CASES = [
    ("verify", "decompose", "--bases", "3,5"),
    ("lvalue", "--base", "5", "--cutoff", "1000"),
    ("cross-moment", "--base", "5", "--s", "1.2", "--cutoff", "2000"),
    ("dump-collision", "--base", "5"),
]


@pytest.mark.parametrize("argv", THREAD_CASES, ids=" ".join)
def test_reports_do_not_depend_on_blas_threads(argv):
    # the entry point pins OpenBLAS to one thread; that is safe only while
    # no command makes a BLAS call whose result follows the thread count
    golden = golden_path(argv, "json").read_bytes()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "collspec", *argv, "--format", "json"],
                              env=env, capture_output=True)
        assert proc.returncode == 0
        assert proc.stdout == golden, f"OPENBLAS_NUM_THREADS={threads}"

if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for argv, code in GOLDEN_CASES:
        for fmt in GOLDEN_FORMATS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                got = main([*argv, "--format", fmt])
            assert got == code, (argv, got)
            golden_path(argv, fmt).write_bytes(buf.getvalue().encode("utf-8"))
