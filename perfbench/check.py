"""Correctness checks on collspec reports, made from outside the program.

check_report() looks at one op's exit code and report bytes and returns
the problems it finds (an empty list means the op succeeded), with the
report's headroom:

  * the exit code must be the one the verdict list implies;
  * the JSON must parse and carry exactly the expected verdict names, in
    order, each with the expected pass flag.  Every verdict is expected
    to pass except EXPECTED_RED;
  * structural counts derived from b must hold (rows per base);
  * when a golden report exists for the op, exact fields (ints, bools,
    strings, CSV cells) must equal it, and every float must lie within
    its verdict's tolerance of it, scaled by max(1, |golden|).

The headroom is min log10(tolerance / worst_residual) over the passing
gated verdicts of a JSON report (16 when a residual is 0).
"""

from __future__ import annotations

import csv
import io
import json
import math

# Acceptance criterion 7: the b = 5 decay-table row is a documented red.
# Its measured mean and population std (4 decimals) are pinned here so
# that any other outcome of that row, or any other red, counts as a failure.
EXPECTED_RED = {"table1[b=5]": {"mean_ratio": 0.8602, "std_ratio": 0.7141}}

TABLE1_DEFAULT_BASES = (5, 7, 13, 19, 31, 43)
TABLE1_TARGET_BASES = frozenset(TABLE1_DEFAULT_BASES)
SWEEP_DEFAULT_BASES = (5, 7, 13)
HEADROOM_CAP = 16.0
MEASURED_ONLY = ("table1-measured[", "short-sum-measured[")
MAX_PROBLEMS = 5


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def command_of(argv) -> str:
    return f"verify-{argv[1]}" if argv[0] == "verify" else argv[0]


def _option(argv, flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def bases_of(argv) -> tuple[int, ...]:
    if (one := _option(argv, "--base")) is not None:
        return (int(one),)
    if (many := _option(argv, "--bases")) is not None:
        return tuple(int(x) for x in many.split(","))
    command = command_of(argv)
    if command == "table1":
        return TABLE1_DEFAULT_BASES
    if command == "sweep":
        return SWEEP_DEFAULT_BASES
    if command == "classnumber":
        return tuple(b for b in range(7, 164) if b % 4 == 3 and _is_prime(b))
    raise ValueError(f"no bases for {argv}")


def expected_verdicts(argv) -> list[str]:
    """Verdict names the report must carry, in order."""
    command = command_of(argv)
    per_base = {
        "verify-decompose": ["decompose[b={b}]"],
        "verify-steps": ["steps[b={b}]"],
        "verify-vanishing": ["vanishing-s-hat[b={b}]", "vanishing-S-G[b={b}]"],
        "verify-moment": ["moment[b={b}]"],
        "packet": ["packet[b={b}]"],
        "lvalue": ["lvalue-magnitude[b={b}]"]
        + (["lvalue-series[b={b}]"] if "--cutoff" in argv else []),
        "dump-collision": ["collision-exactness[b={b}]"],
    }
    fixed = {
        "classnumber": ["classnumber"],
        "cross-moment": ["cross-moment"],
        "expansion": ["expansion", "restriction"],
        "sweep": ["sweep-margin"],
    }
    if command in fixed:
        return fixed[command]
    if command == "table1":
        return [
            f"table1[b={b}]" if b in TABLE1_TARGET_BASES else f"table1-measured[b={b}]"
            for b in bases_of(argv)
        ]
    return [name.format(b=b) for b in bases_of(argv) for name in per_base[command]]


def expected_exit(argv) -> int:
    return 1 if any(name in EXPECTED_RED for name in expected_verdicts(argv)) else 0


def is_csv(argv) -> bool:
    return _option(argv, "--format") == "csv"


# ====== structural counts ======


def _structure(command: str, verdict: dict) -> list[str]:
    name = verdict["check"]
    rows = verdict["details"]
    if "[b=" not in name:
        return []
    b = int(name[name.index("[b=") + 3 : -1])
    phi, prim_odd = b * (b - 1), (b - 1) ** 2 // 2
    out = []

    def want(what: str, got: int, expected: int) -> None:
        if got != expected:
            out.append(f"{name}: {what} = {got}, expected {expected}")

    if command == "verify-decompose":
        want("rows", len(rows), phi)
        want("primitive-odd rows",
             sum(r["parity"] == "odd" and r["primitive"] for r in rows), prim_odd)
    elif command in ("verify-steps", "lvalue") and rows:
        want("primitive-odd rows", len(rows), prim_odd)
    elif command == "packet":
        want("primitive-odd rows", len(rows), prim_odd)
        bad = [r["j"] for r in rows if r["twist_count"] != (b - 3) // 2]
        want("rows with twist_count != (b-3)/2", len(bad), 0)
    elif command == "table1":
        want("packet count", rows[0]["count"], prim_odd)
    elif command == "dump-collision":
        want("rows", len(rows), phi)
    return out


# ====== golden comparison ======


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _diff(got, want, tol: float, path: str, out: list[str]) -> None:
    if len(out) >= MAX_PROBLEMS:
        return
    if isinstance(want, bool) or isinstance(got, bool):
        if got is not want:
            out.append(f"{path}: {got!r} != golden {want!r}")
    elif isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            out.append(f"{path}: keys differ from golden")
            return
        for key in want:
            _diff(got[key], want[key], tol, f"{path}.{key}", out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: length differs from golden")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(g, w, tol, f"{path}[{i}]", out)
    elif isinstance(want, float) or isinstance(got, float):
        if not (isinstance(got, (int, float)) and _close(got, want, tol)):
            out.append(f"{path}: {got!r} differs from golden {want!r} by more than {tol:g}")
    elif got != want or type(got) is not type(want):
        out.append(f"{path}: {got!r} != golden {want!r}")


def _diff_report(doc: dict, golden: dict) -> list[str]:
    out: list[str] = []
    for key in ("command", "config", "passed"):
        _diff(doc.get(key), golden.get(key), 0.0, key, out)
    verdicts, gold_verdicts = doc["verdicts"], golden["verdicts"]
    if len(verdicts) != len(gold_verdicts):
        return out + ["verdict count differs from golden"]
    for v, g in zip(verdicts, gold_verdicts):
        tol = g["tolerance"]
        _diff(v, g, tol, v.get("check", "?"), out)
    return out


def _diff_csv(text: str, golden: str) -> list[str]:
    rows, gold = text.splitlines(), golden.splitlines()
    if len(rows) != len(gold):
        return [f"csv: {len(rows)} lines, golden has {len(gold)}"]
    out = []
    for i, (r, g) in enumerate(zip(rows, gold)):
        if r != g:
            out.append(f"csv line {i + 1}: {r!r} != golden {g!r}")
            if len(out) >= MAX_PROBLEMS:
                break
    return out


# ====== entry points ======


def _check_json(argv, doc: dict) -> list[str]:
    command = command_of(argv)
    names = [v.get("check") for v in doc.get("verdicts", [])]
    expected = expected_verdicts(argv)
    if names != expected:
        return [f"verdicts {names} != expected {expected}"]
    out = []
    for v in doc["verdicts"]:
        name = v["check"]
        red = EXPECTED_RED.get(name)
        if v["passed"] is not (red is None):
            out.append(f"{name}: passed={v['passed']}, expected {red is None}")
        elif red is not None:
            row = v["details"][0]
            for field, value in red.items():
                if round(row[field], 4) != value:
                    out.append(f"{name}: {field} {row[field]!r} is not the pinned {value}")
        out += _structure(command, v)
    return out


def check_report(argv, exit_code: int, data: bytes, golden: bytes | None):
    """(problems, headroom) for one op; problems is [] when the op is correct.

    headroom is None for CSV reports, which carry no verdicts.
    """
    argv = tuple(argv)
    if exit_code != expected_exit(argv):
        return [f"exit code {exit_code}, expected {expected_exit(argv)}"], None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return ["report is not UTF-8"], None
    if is_csv(argv):
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["a", "S", "S_centered_num", "S_centered_den"]:
            return ["csv header differs"], None
        b = bases_of(argv)[0]
        out = [] if len(rows) - 1 == b * (b - 1) else [
            f"dump rows = {len(rows) - 1}, expected phi = {b * (b - 1)}"
        ]
        if golden is not None:
            out += _diff_csv(text, golden.decode("utf-8"))
        return out, None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report does not parse: {exc}"], None
    try:
        out = _check_json(argv, doc)
        if not out and golden is not None:
            out = _diff_report(doc, json.loads(golden))
        return out, headroom(doc)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"report has an unexpected shape: {exc!r}"], None


def headroom(doc: dict) -> float | None:
    """min log10(tol / worst) over passing gated verdicts; None if there are none."""
    values = [
        HEADROOM_CAP if v["worst_residual"] == 0
        else min(HEADROOM_CAP, math.log10(v["tolerance"] / v["worst_residual"]))
        for v in doc["verdicts"]
        if v["passed"] and not v["check"].startswith(MEASURED_ONLY)
    ]
    return min(values) if values else None
