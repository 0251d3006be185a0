"""Command-line front end: one command per verified identity.

COMMANDS is the table of commands.  An entry holds a command's help
text, its --cutoff/--s flags, default bases and exponents, CSV columns,
single-base rule and check function; the parser and the run
configuration are built from it.  A check returns the verdicts of one
base, or of the whole run for the commands that pool their rows
(classnumber, cross-moment, expansion, sweep), and `run` loops over the
bases and builds the report.

A verdict gates the worst residual of its rows against a tolerance; a
NaN residual fails.  Rows hold plain values, complex ones included, and
only the renderers write a complex z: as [re, im] in JSON, as
<key>_re, <key>_im elsewhere.  Floats are written with 17 significant
digits and rows in a fixed order, so re-running a command with the same
configuration reproduces its report byte for byte.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or
configuration error (bad base, tolerance, cutoff or exponent).

Output goes to stdout, to --out, or to $COLLSPEC_OUT_DIR/<command>.<ext>
when that variable is set.  The default format is pretty on a terminal
and JSON otherwise; a .csv/.json suffix on --out picks the format when
--format is absent.

Tolerances derive from t = --tol (default 1e-10): t/10 for vanishing
coefficients, t/100 for vanishing diagonal sums, 10*t for the relative
errors of moment and expansion checks; the decay table has a fixed band
of 0.05.  The class-number verdict holds sqrt(b)|L|/pi within 1e-6 of
the reduced-forms count.  lvalues.ROUNDING_GUARD = 1e-3 is a separate,
looser bound: past it class_number_check raises instead of rounding.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import collision, lvalues, packet, prime_sums, spectrum
from .characters import Character, Family, enumerate_family
from .errors import VerificationError, NotOddPrime
from .unit_group import Level, build_unit_group, is_odd_prime

OUT_DIR_ENV = "COLLSPEC_OUT_DIR"
DEFAULT_CUTOFF = 1_000_000
CLASSNUMBER_TOLERANCE = 1e-6


@dataclass(frozen=True)
class RunConfig:
    command: str
    bases: tuple[int, ...]
    tolerance: float = 1e-10
    cutoff: int | None = None  # None: command default (prime sums: 10**6)
    s_values: tuple[float, ...] = (1.2,)
    out: str | None = None
    fmt: str | None = None  # None: pretty on a tty, JSON otherwise


@dataclass(frozen=True)
class Verdict:
    check_name: str
    passed: bool
    worst_residual: float
    tolerance: float
    details: tuple[dict, ...] = ()


@dataclass
class Report:
    config: RunConfig
    verdicts: list[Verdict]
    csv_columns: tuple[str, ...] | None = None  # None: union of row keys

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _verdict(name: str, residuals: Iterable[float], tol: float, rows=()) -> Verdict:
    """Gate the largest residual against tol; a NaN residual fails."""
    residuals = list(residuals)
    worst = math.nan if any(math.isnan(r) for r in residuals) else max(residuals)
    return Verdict(name, worst < tol, worst, tol, tuple(rows))


def _row(b: int, record, **names: str | None) -> dict:
    """A result dataclass as a report row headed by b.

    chi_index becomes j; `names` renames further fields, or drops them
    when mapped to None.
    """
    names = {"chi_index": "j", **names}
    row = {"b": b}
    for f in fields(record):
        if (name := names.get(f.name, f.name)) is not None:
            row[name] = getattr(record, f.name)
    return row


# ====== checks: the verdicts of one base, or of a whole run ======


def _check_decompose(b: int, cfg: RunConfig) -> list[Verdict]:
    records = spectrum.verify_decomposition(b)
    rows = []
    for r in records:
        residuals = {"decomposition": r.decomposition_residual}
        if r.parity == "even" or not r.primitive:
            residuals["s_hat_vanishing"] = abs(r.s_hat)
        if r.parity == "odd" and not r.primitive:
            residuals["S_G_vanishing"] = abs(r.S_G)
        rows.append({**_row(b, r, decomposition_residual=None), "residuals": residuals})
    worst = (r.decomposition_residual for r in records if r.parity == "odd" and r.primitive)
    return [_verdict(f"decompose[b={b}]", worst, cfg.tolerance, rows)]


def _check_steps(b: int, cfg: RunConfig) -> list[Verdict]:
    group = build_unit_group(b, Level.MOD_B_SQUARED)
    reports = [spectrum.verify_proof_steps(b, chi)
               for chi in enumerate_family(group, Family.PRIMITIVE_ODD)]
    rows = [{k.removesuffix("_residual"): v for k, v in _row(b, rep).items()}
            for rep in reports]
    worst = (rep.max_residual for rep in reports)
    return [_verdict(f"steps[b={b}]", worst, cfg.tolerance, rows)]


def _check_vanishing(b: int, cfg: RunConfig) -> list[Verdict]:
    rows = []
    for r in spectrum.verify_decomposition(b):
        if r.parity == "odd" and r.primitive:
            continue
        family = "even" if r.parity == "even" else "imprimitive-odd"
        rows.append({"b": b, "j": r.chi_index, "family": family, "s_hat_abs": abs(r.s_hat)})
        if r.parity == "odd":
            rows[-1]["S_G_abs"] = abs(r.S_G)
    return [
        _verdict(f"vanishing-s-hat[b={b}]", (row["s_hat_abs"] for row in rows),
                 cfg.tolerance / 10, rows),
        _verdict(f"vanishing-S-G[b={b}]", (row.get("S_G_abs", 0.0) for row in rows),
                 cfg.tolerance / 100),
    ]


def _check_moment(b: int, cfg: RunConfig) -> list[Verdict]:
    rep = spectrum.verify_moment(b)
    return [_verdict(f"moment[b={b}]", (rep.rel_err, rep.parseval_rel_err),
                     10 * cfg.tolerance, [_row(b, rep)])]


def _check_encoding(b: int, cfg: RunConfig) -> list[Verdict]:
    rows = [_row(b, er) for er in lvalues.verify_encoding(b)]
    return [_verdict(f"encoding[b={b}]", (row["residual"] for row in rows), cfg.tolerance, rows)]


def _check_base5(b: int, cfg: RunConfig) -> list[Verdict]:
    rep = spectrum.verify_base5_identities(b)
    # Above the verified range the identity's status is open: report, gate nothing.
    measured = {} if rep.in_verified_range else {"measured_only": True}
    rows = [{**{k: v for k, v in _row(b, r).items() if v is not None}, **measured}
            for r in rep.rows]
    name, worst = ("measured", 0.0) if measured else ("doubling", rep.max_doubling_residual)
    verdicts = [_verdict(f"short-sum-{name}[b={b}]", [worst], cfg.tolerance, rows)]
    if rep.max_sqrt5_residual is not None:
        verdicts.append(_verdict(f"short-sum-sqrt5[b={b}]", [rep.max_sqrt5_residual],
                                 cfg.tolerance))
    if rep.fourth_moment is not None:
        verdicts.append(_verdict(f"fourth-moment[b={b}]", [rep.fourth_moment.rel_err],
                                 10 * cfg.tolerance, [_row(b, rep.fourth_moment)]))
    return verdicts


def _check_table1(b: int, cfg: RunConfig) -> list[Verdict]:
    stats = packet.packet_stats(b)
    row = _row(b, stats, std_times_logb="std_ln_b", std_times_log10b="std_log10_b")
    if b not in packet.TABLE1_TARGETS:
        return [_verdict(f"table1-measured[b={b}]", [0.0], packet.TABLE1_TOLERANCE, [row])]
    mean_ref, std_ref = packet.TABLE1_TARGETS[b]
    residuals = (abs(stats.mean_ratio - mean_ref), abs(stats.std_ratio - std_ref),
                 abs(stats.mean_phase_cos))
    return [_verdict(f"table1[b={b}]", residuals, packet.TABLE1_TOLERANCE, [row])]


def _check_packet(b: int, cfg: RunConfig) -> list[Verdict]:
    records = packet.packet_records(b)
    rows = [{**_row(b, r), "probe": packet.probe_from_parts(r.L1, r.delta, r.P_short).ratio_to_P}
            for r in records]
    broken = (len(records) != (b - 1) ** 2 // 2
              or any(r.twist_count != (b - 3) // 2 for r in records))
    return [_verdict(f"packet[b={b}]", [float(broken)], cfg.tolerance, rows)]


def _check_lvalue(b: int, cfg: RunConfig) -> list[Verdict]:
    spec = spectrum.spectrum_of(b)
    rows = []
    for j, l_val, b1 in spec.columns(Family.PRIMITIVE_ODD, "L1", "B1"):
        rows.append({
            "b": b,
            "j": j,
            "L": l_val,
            "L_abs": abs(l_val),
            "B1_abs": abs(b1),
            "magnitude_residual": abs(abs(b1) - b / math.pi * abs(l_val)),
        })
        if cfg.cutoff is not None:
            series = lvalues.l_value_series(Character(spec.group, j), cfg.cutoff)
            rows[-1].update(
                series=series.value,
                series_truncation=series.series_truncation,
                tail_bound=series.tail_bound,
                agreement_gap=max(0.0, abs(l_val - series.value) - series.tail_bound),
            )
    verdicts = [_verdict(f"lvalue-magnitude[b={b}]", (r["magnitude_residual"] for r in rows),
                         cfg.tolerance, rows)]
    if cfg.cutoff is not None:
        verdicts.append(_verdict(f"lvalue-series[b={b}]", (r["agreement_gap"] for r in rows),
                                 10 * cfg.tolerance))
    return verdicts


def _check_classnumber(cfg: RunConfig) -> list[Verdict]:
    rows = []
    for b in cfg.bases:
        rec = lvalues.class_number_check(b)
        rows.append({**_row(b, rec, discriminant="D"),
                     "equal": rec.h_from_L == rec.h_from_forms})
    residuals = (abs(r["pre_rounding"] - r["h_from_forms"]) for r in rows)
    return [_verdict("classnumber", residuals, CLASSNUMBER_TOLERANCE, rows)]


def _prime_sum_rows(cfg: RunConfig, record: Callable) -> list[dict]:
    cutoff = DEFAULT_CUTOFF if cfg.cutoff is None else cfg.cutoff
    return [_row(b, record(b, s, cutoff), cutoff="N", F_trunc="F", P_trunc=None)
            for b in cfg.bases for s in cfg.s_values]


def _check_margin(check_name: str, cfg: RunConfig) -> list[Verdict]:
    rows = _prime_sum_rows(cfg, prime_sums.cross_moment_bound)
    shortfall = (0.0 if r["margin"] >= 0 else -r["margin"] for r in rows)
    return [_verdict(check_name, shortfall, cfg.tolerance, rows)]


def _check_expansion(cfg: RunConfig) -> list[Verdict]:
    rows = _prime_sum_rows(cfg, prime_sums.verify_expansion)
    return [
        _verdict("expansion", (r["expansion_residual"] for r in rows), 10 * cfg.tolerance, rows),
        _verdict("restriction", (r["restriction_residual"] for r in rows), cfg.tolerance),
    ]


def _check_dump_collision(b: int, cfg: RunConfig) -> list[Verdict]:
    table = collision.collision_invariant(build_unit_group(b, Level.MOD_B_SQUARED))
    # S0 = S0_num / b, printed in lowest terms as Fraction would print it.
    g = np.gcd(table.S0_num, b)
    rows = [
        {"a": a, "S": s, "S_centered_num": num, "S_centered_den": den}
        for a, s, num, den in zip(table.units.tolist(), table.S.tolist(),
                                  (table.S0_num // g).tolist(), (b // g).tolist())
    ]
    coset_ok = not collision.coset_sums(b, table.units, table.S0_num).any()
    # a -> m - a reverses the ascending units.
    anti_ok = np.array_equal(table.S0_num[::-1], -table.S0_num)
    return [_verdict(f"collision-exactness[b={b}]", [float(not (coset_ok and anti_ok))],
                     cfg.tolerance, rows)]


# ====== the command table ======


@dataclass(frozen=True)
class Command:
    help: str
    check: Callable  # (b, cfg) -> verdicts of base b; (cfg) -> all verdicts if whole_run
    whole_run: bool = False
    flags: tuple[str, ...] = ()  # beyond COMMON_FLAGS
    bases: tuple[int, ...] = ()  # default bases; () makes --base/--bases required
    s_values: tuple[float, ...] = (1.2,)  # default exponents
    columns: tuple[str, ...] | None = None  # CSV columns; None: union of row keys
    single_base: bool = False


PRIME_SUM_FLAGS = ("--cutoff", "--s")

COMMANDS = {
    "verify-decompose": Command("factorization of s0_hat through B1 and S_G", _check_decompose),
    "verify-steps": Command("the steps behind the factorization", _check_steps),
    "verify-vanishing": Command("vanishing at even / imprimitive-odd characters",
                                _check_vanishing),
    "verify-moment": Command("Parseval and the second-moment identity", _check_moment),
    "verify-encoding": Command("L-encoding of coefficient magnitudes", _check_encoding),
    "verify-base5": Command("short-sum doubling and the base-5 extras", _check_base5),
    "table1": Command(
        "decay statistics of |Delta|/|L|", _check_table1,
        bases=tuple(sorted(packet.TABLE1_TARGETS)),
        columns=("b", "mean_ratio", "std_ratio", "std_ln_b", "std_log10_b",
                 "mean_phase_cos", "count"),
    ),
    "packet": Command("per-character packet records", _check_packet),
    "lvalue": Command("closed-form L(1) values", _check_lvalue, flags=("--cutoff",)),
    "classnumber": Command(
        "h(-b) two ways", _check_classnumber, whole_run=True,
        bases=tuple(b for b in range(7, 164) if is_odd_prime(b) and b % 4 == 3),
    ),
    "cross-moment": Command("triangle-inequality margin", partial(_check_margin, "cross-moment"),
                            whole_run=True, flags=PRIME_SUM_FLAGS),
    "expansion": Command("finite spectral expansion", _check_expansion,
                         whole_run=True, flags=PRIME_SUM_FLAGS),
    "sweep": Command("margin over a (b, s) grid", partial(_check_margin, "sweep-margin"),
                     whole_run=True, flags=PRIME_SUM_FLAGS,
                     bases=(5, 7, 13), s_values=(0.8, 1.0, 1.2, 1.5)),
    "dump-collision": Command("CSV of S and S0", _check_dump_collision, single_base=True,
                              columns=("a", "S", "S_centered_num", "S_centered_den")),
}


# ====== deterministic serialization ======


def fmt_float(x: float) -> str:
    """Decimal literal with 17 significant digits."""
    return format(float(x), ".17g")


def _json_value(v, indent: int) -> str:
    pad = " " * indent
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(k)}: {_json_value(x, indent + 2)}' for k, x in v.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(v, complex):
        return f"[{fmt_float(v.real)}, {fmt_float(v.imag)}]"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
            return "[" + ", ".join(_json_value(x, 0) for x in v) + "]"
        items = ",\n".join(f"{pad}  {_json_value(x, indent + 2)}" for x in v)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return fmt_float(v)
    return json.dumps(v)


def _report_doc(report: Report) -> dict:
    cfg = report.config
    return {
        "command": cfg.command,
        "config": {
            "bases": list(cfg.bases),
            "tolerance": cfg.tolerance,
            "cutoff": cfg.cutoff,
            "s": list(cfg.s_values),
        },
        "passed": report.passed,
        "verdicts": [
            {
                "check": v.check_name,
                "passed": v.passed,
                "worst_residual": v.worst_residual,
                "tolerance": v.tolerance,
                "details": list(v.details),
            }
            for v in report.verdicts
        ],
    }


def render_json(report: Report) -> str:
    return _json_value(_report_doc(report), 0) + "\n"


def _flat_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    if v is None:
        return ""
    return str(v)


def _flatten_row(row: dict) -> dict[str, str]:
    flat: dict[str, str] = {}
    for k, v in row.items():
        if isinstance(v, complex):
            flat[f"{k}_re"] = fmt_float(v.real)
            flat[f"{k}_im"] = fmt_float(v.imag)
        elif isinstance(v, dict):
            for kk, vv in v.items():
                flat[f"{k}.{kk}"] = _flat_cell(vv)
        elif v is None:  # a complex value that is undefined for this row
            flat[f"{k}_re"] = ""
            flat[f"{k}_im"] = ""
        else:
            flat[k] = _flat_cell(v)
    return flat


def render_csv(report: Report) -> str:
    flats = []
    multi = len(report.verdicts) > 1
    for v in report.verdicts:
        for row in v.details:
            flat = _flatten_row(row)
            if multi and report.csv_columns is None:
                flat = {"check": v.check_name, **flat}
            flats.append(flat)
    columns = report.csv_columns or dict.fromkeys(k for flat in flats for k in flat)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for flat in flats:
        writer.writerow([flat.get(k, "") for k in columns])
    return buf.getvalue()


PRETTY_ROW_LIMIT = 12


def render_pretty(report: Report) -> str:
    cfg = report.config
    lines = [
        f"collspec {cfg.command}  bases={','.join(map(str, cfg.bases))}"
        f"  tol={fmt_float(cfg.tolerance)}"
    ]
    for v in report.verdicts:
        flag = "PASS" if v.passed else "FAIL"
        lines.append(
            f"[{flag}] {v.check_name}  worst={v.worst_residual:.3e}"
            f"  tol={v.tolerance:.1e}  rows={len(v.details)}"
        )
        if 0 < len(v.details) <= PRETTY_ROW_LIMIT:
            for row in v.details:
                cells = ", ".join(f"{k}={_flat_cell(x)}" for k, x in _flatten_row(row).items())
                lines.append(f"    {cells}")
        elif len(v.details) > PRETTY_ROW_LIMIT:
            lines.append(f"    ({len(v.details)} rows; use --format csv or json)")
    lines.append(f"overall {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "pretty": render_pretty}
_EXTENSIONS = {"json": "json", "csv": "csv", "pretty": "txt"}


def _resolve_format(cfg: RunConfig) -> str:
    if cfg.fmt is not None:
        return cfg.fmt
    if cfg.out is not None:
        return "csv" if cfg.out.endswith(".csv") else "json"
    if os.environ.get(OUT_DIR_ENV):
        return "json"
    return "pretty" if sys.stdout.isatty() else "json"


def run(cfg: RunConfig) -> int:
    """Execute one command and write its report; returns the exit code."""
    command = COMMANDS[cfg.command]
    if command.whole_run:
        verdicts = command.check(cfg)
    else:
        verdicts = [v for b in cfg.bases for v in command.check(b, cfg)]
    report = Report(cfg, verdicts, command.columns)
    fmt = _resolve_format(cfg)
    text = _RENDERERS[fmt](report)

    path = cfg.out
    if path is None and os.environ.get(OUT_DIR_ENV):
        path = os.path.join(
            os.environ[OUT_DIR_ENV], f"{cfg.command}.{_EXTENSIONS[fmt]}"
        )
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
        print(f"wrote {path}; overall {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


# ====== argument parsing ======


FLAGS = {
    "--base": dict(type=int, help="single base b (odd prime)"),
    "--bases": dict(type=str, help="comma-separated bases, e.g. 5,7,13"),
    "--tol": dict(type=float, default=1e-10, help="base tolerance (default 1e-10)"),
    "--out": dict(type=str, default=None, help="write the report here"),
    "--format": dict(choices=("json", "csv", "pretty"), default=None),
    "--cutoff": dict(type=int, default=None, help="truncation N (prime sums default 10**6)"),
    "--s": dict(type=str, default=None, help="exponent(s), comma-separated"),
}
COMMON_FLAGS = ("--base", "--bases", "--tol", "--out", "--format")


def _add_flags(sp: argparse.ArgumentParser, extra: Iterable[str]) -> None:
    for flag in (*COMMON_FLAGS, *extra):
        sp.add_argument(flag, **FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collspec",
        description="verify collision-invariant spectrum identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = {name.removeprefix("verify-"): command for name, command in COMMANDS.items()
              if name.startswith("verify-")}
    pv = sub.add_parser("verify", help="run one identity check")
    pv.add_argument("what", choices=tuple(verify),
                    help="; ".join(f"{what}: {command.help}" for what, command in verify.items()))
    _add_flags(pv, dict.fromkeys(f for command in verify.values() for f in command.flags))
    for name, command in COMMANDS.items():
        if not name.startswith("verify-"):
            _add_flags(sub.add_parser(name, help=command.help), command.flags)
    return parser


def _config_from_args(args: argparse.Namespace,
                      parser: argparse.ArgumentParser) -> RunConfig:
    name = f"verify-{args.what}" if args.command == "verify" else args.command
    command = COMMANDS[name]

    if args.base is not None and args.bases is not None:
        parser.error("give --base or --bases, not both")
    if args.base is not None:
        bases = (args.base,)
    elif args.bases is not None:
        try:
            bases = tuple(int(x) for x in args.bases.split(","))
        except ValueError:
            parser.error(f"cannot parse --bases {args.bases!r}")
    else:
        bases = command.bases
    if not bases:
        parser.error(f"{name} needs --base or --bases")
    for b in bases:
        if not is_odd_prime(b):
            raise NotOddPrime(f"base must be an odd prime, got {b}")
    if command.single_base and len(bases) != 1:
        parser.error(f"{name} takes exactly one base")

    if not 0 < args.tol <= 1e-3:
        parser.error(f"--tol must lie in (0, 1e-3], got {args.tol}")

    cutoff = getattr(args, "cutoff", None)
    if cutoff is not None and cutoff <= 0:
        parser.error(f"--cutoff must be positive, got {cutoff}")

    s_values = command.s_values
    s_raw = getattr(args, "s", None)
    if s_raw is not None:
        try:
            s_values = tuple(float(x) for x in s_raw.split(","))
        except ValueError:
            parser.error(f"cannot parse --s {s_raw!r}")

    return RunConfig(
        command=name,
        bases=bases,
        tolerance=args.tol,
        cutoff=cutoff,
        s_values=s_values,
        out=args.out,
        fmt=args.format,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args, parser)
        return run(cfg)
    except VerificationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
