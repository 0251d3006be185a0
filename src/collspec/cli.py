"""Command-line front end: one command per verified identity.

Every command computes a set of verdicts (check name, pass/fail, worst
residual, tolerance) plus detail rows, and serializes them as JSON, CSV
or a human-readable table.  Serialization is deterministic: floats are
written as decimal literals with 17 significant digits, rows are emitted
in a fixed order, and re-running a command with the same configuration
reproduces the output byte for byte.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or
configuration error (bad base, bad tolerance, bad cutoff).

Output goes to stdout, to --out, or to $COLLSPEC_OUT_DIR/<command>.<ext>
when that variable is set.  The default format is pretty on a terminal
and JSON otherwise; a .csv/.json suffix on --out picks the format when
--format is absent.

Per-check default tolerances derive from the base tolerance t = --tol
(default 1e-10): vanishing coefficients are held to t/10 and vanishing
diagonal sums to t/100, relative errors of moment and expansion checks
to 10*t.  The decay-table comparison uses its own fixed band of 0.05
and the class-number integrality guard is fixed at 1e-6.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import collision, lvalues, packet, prime_sums, spectrum
from .characters import Character, Family, enumerate_family
from .errors import VerificationError, NotOddPrime
from .unit_group import Level, build_unit_group, is_odd_prime

OUT_DIR_ENV = "COLLSPEC_OUT_DIR"
DEFAULT_CUTOFF = 1_000_000
SWEEP_S_GRID = (0.8, 1.0, 1.2, 1.5)
CLASSNUMBER_RANGE = (7, 163)


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


def _verdict(name: str, worst: float, tol: float, rows: list[dict]) -> Verdict:
    return Verdict(
        check_name=name,
        passed=worst < tol,
        worst_residual=worst,
        tolerance=tol,
        details=tuple(rows),
    )


def _c(z: complex) -> list[float]:
    return [z.real, z.imag]


def _fields(record) -> dict:
    """A result dataclass as a row, less its b and chi_index fields."""
    return {k: v for k, v in asdict(record).items() if k not in ("b", "chi_index")}


# ====== command handlers ======


def _spectrum_rows(records) -> list[dict]:
    rows = []
    for r in records:
        residuals = {"decomposition": r.decomposition_residual}
        if r.parity == "even" or not r.primitive:
            residuals["s_hat_vanishing"] = abs(r.s_hat)
        if r.parity == "odd" and not r.primitive:
            residuals["S_G_vanishing"] = abs(r.S_G)
        row = {k: _c(v) if isinstance(v, complex) else v for k, v in _fields(r).items()}
        del row["decomposition_residual"]
        rows.append({"b": r.b, "j": r.chi_index, **row, "residuals": residuals})
    return rows


def _cmd_verify_decompose(cfg: RunConfig) -> Report:
    verdicts = []
    for b in cfg.bases:
        records = spectrum.verify_decomposition(b)
        worst = max(r.decomposition_residual for r in records
                    if r.parity == "odd" and r.primitive)
        verdicts.append(
            _verdict(f"decompose[b={b}]", worst, cfg.tolerance, _spectrum_rows(records))
        )
    return Report(cfg, verdicts)


def _cmd_verify_steps(cfg: RunConfig) -> Report:
    verdicts = []
    for b in cfg.bases:
        group = build_unit_group(b, Level.MOD_B_SQUARED)
        rows, worst = [], 0.0
        for chi in enumerate_family(group, Family.PRIMITIVE_ODD):
            rep = spectrum.verify_proof_steps(b, chi)
            worst = max(worst, rep.max_residual)
            residuals = {k.removesuffix("_residual"): v for k, v in _fields(rep).items()}
            rows.append({"b": b, "j": chi.index, **residuals})
        verdicts.append(_verdict(f"steps[b={b}]", worst, cfg.tolerance, rows))
    return Report(cfg, verdicts)


def _cmd_verify_vanishing(cfg: RunConfig) -> Report:
    verdicts = []
    for b in cfg.bases:
        records = spectrum.verify_decomposition(b)
        rows = []
        for r in records:
            if r.parity == "odd" and r.primitive:
                continue
            family = "even" if r.parity == "even" else "imprimitive-odd"
            rows.append({"b": b, "j": r.chi_index, "family": family, "s_hat_abs": abs(r.s_hat)})
            if r.parity == "odd":
                rows[-1]["S_G_abs"] = abs(r.S_G)
        worst_hat = max(row["s_hat_abs"] for row in rows)
        worst_sg = max(row.get("S_G_abs", 0.0) for row in rows)
        verdicts.append(
            _verdict(f"vanishing-s-hat[b={b}]", worst_hat, cfg.tolerance / 10, rows)
        )
        verdicts.append(
            _verdict(f"vanishing-S-G[b={b}]", worst_sg, cfg.tolerance / 100, [])
        )
    return Report(cfg, verdicts)


def _cmd_verify_moment(cfg: RunConfig) -> Report:
    verdicts = []
    for b in cfg.bases:
        rep = spectrum.verify_moment(b)
        row = {"b": b, **_fields(rep)}
        worst = max(rep.rel_err, rep.parseval_rel_err)
        verdicts.append(_verdict(f"moment[b={b}]", worst, 10 * cfg.tolerance, [row]))
    return Report(cfg, verdicts)


def _cmd_verify_encoding(cfg: RunConfig) -> Report:
    verdicts = []
    for b in cfg.bases:
        rows = [{"b": b, "j": er.chi_index, **_fields(er)} for er in lvalues.verify_encoding(b)]
        worst = max(row["residual"] for row in rows)
        verdicts.append(_verdict(f"encoding[b={b}]", worst, cfg.tolerance, rows))
    return Report(cfg, verdicts)


def _cmd_verify_base5(cfg: RunConfig) -> Report:
    verdicts = []
    for b in cfg.bases:
        rep = spectrum.verify_base5_identities(b)
        rows = []
        for row in rep.rows:
            d = {"b": b, "j": row.chi_index}
            d.update((k, v) for k, v in _fields(row).items() if v is not None)
            if not rep.in_verified_range:
                d["measured_only"] = True
            rows.append(d)
        if rep.in_verified_range:
            verdicts.append(
                _verdict(f"short-sum-doubling[b={b}]",
                         rep.max_doubling_residual, cfg.tolerance, rows)
            )
        else:
            # Identity status is open out here; report, gate nothing.
            verdicts.append(_verdict(f"short-sum-measured[b={b}]", 0.0,
                                     cfg.tolerance, rows))
        if rep.max_sqrt5_residual is not None:
            verdicts.append(
                _verdict(f"short-sum-sqrt5[b={b}]",
                         rep.max_sqrt5_residual, cfg.tolerance, [])
            )
        if rep.fourth_moment is not None:
            fm = rep.fourth_moment
            verdicts.append(_verdict(f"fourth-moment[b={b}]", fm.rel_err,
                                     10 * cfg.tolerance, [{"b": b, **_fields(fm)}]))
    return Report(cfg, verdicts)


TABLE1_COLUMNS = (
    "b", "mean_ratio", "std_ratio", "std_ln_b", "std_log10_b",
    "mean_phase_cos", "count",
)


def _cmd_table1(cfg: RunConfig) -> Report:
    verdicts = []
    for b in cfg.bases:
        stats = packet.packet_stats(b)
        row = {
            "b": stats.b,
            "mean_ratio": stats.mean_ratio,
            "std_ratio": stats.std_ratio,
            "std_ln_b": stats.std_times_logb,
            "std_log10_b": stats.std_times_log10b,
            "mean_phase_cos": stats.mean_phase_cos,
            "count": stats.count,
            "std_ratio_sample": stats.std_ratio_sample,
        }
        if b in packet.TABLE1_TARGETS:
            mean_ref, std_ref = packet.TABLE1_TARGETS[b]
            worst = max(
                abs(stats.mean_ratio - mean_ref),
                abs(stats.std_ratio - std_ref),
                abs(stats.mean_phase_cos),
            )
            verdicts.append(
                _verdict(f"table1[b={b}]", worst, packet.TABLE1_TOLERANCE, [row])
            )
        else:
            verdicts.append(
                _verdict(f"table1-measured[b={b}]", 0.0, packet.TABLE1_TOLERANCE, [row])
            )
    return Report(cfg, verdicts, csv_columns=TABLE1_COLUMNS)


def _cmd_packet(cfg: RunConfig) -> Report:
    verdicts = []
    for b in cfg.bases:
        records = packet.packet_records(b)
        rows = []
        structural = 0.0
        for r in records:
            probe = packet.probe_from_parts(r.L1, r.delta, r.P_short)
            rows.append(
                {
                    "b": b,
                    "j": r.chi_index,
                    "P_short": _c(r.P_short),
                    "L1": _c(r.L1),
                    "delta": _c(r.delta),
                    "ratio": r.ratio,
                    "phase_cos": r.phase_cos,
                    "twist_count": r.twist_count,
                    "probe": _c(probe.ratio_to_P) if probe.defined else None,
                }
            )
            if r.twist_count != (b - 3) // 2:
                structural = 1.0
        if len(records) != (b - 1) ** 2 // 2:
            structural = 1.0
        verdicts.append(_verdict(f"packet[b={b}]", structural, cfg.tolerance, rows))
    return Report(cfg, verdicts)


def _cmd_lvalue(cfg: RunConfig) -> Report:
    verdicts = []
    for b in cfg.bases:
        spec = spectrum.spectrum_of(b)
        rows, worst, worst_gap = [], 0.0, 0.0
        for j, l_val, b1 in spec.columns(Family.PRIMITIVE_ODD, "L1", "B1"):
            b1_abs = abs(b1)
            residual = abs(b1_abs - b / math.pi * abs(l_val))
            worst = max(worst, residual)
            row = {
                "b": b,
                "j": j,
                "L": _c(l_val),
                "L_abs": abs(l_val),
                "B1_abs": b1_abs,
                "magnitude_residual": residual,
            }
            if cfg.cutoff is not None:
                series = lvalues.l_value_series(Character(spec.group, j), cfg.cutoff)
                gap = max(0.0, abs(l_val - series.value) - series.tail_bound)
                worst_gap = max(worst_gap, gap)
                row.update(
                    {
                        "series": _c(series.value),
                        "series_truncation": series.series_truncation,
                        "tail_bound": series.tail_bound,
                        "agreement_gap": gap,
                    }
                )
            rows.append(row)
        verdicts.append(_verdict(f"lvalue-magnitude[b={b}]", worst, cfg.tolerance, rows))
        if cfg.cutoff is not None:
            verdicts.append(
                _verdict(f"lvalue-series[b={b}]", worst_gap, 10 * cfg.tolerance, [])
            )
    return Report(cfg, verdicts)


def _cmd_classnumber(cfg: RunConfig) -> Report:
    rows, worst = [], 0.0
    for b in cfg.bases:
        rec = lvalues.class_number_check(b)
        worst = max(worst, abs(rec.pre_rounding - rec.h_from_forms))
        rows.append(
            {
                "b": rec.b,
                "D": rec.discriminant,
                "h_from_L": rec.h_from_L,
                "h_from_forms": rec.h_from_forms,
                "pre_rounding": rec.pre_rounding,
                "equal": rec.h_from_L == rec.h_from_forms,
            }
        )
    return Report(cfg, [_verdict("classnumber", worst, 1e-6, rows)])


def _prime_sum_rows(cfg: RunConfig) -> list[dict]:
    cutoff = cfg.cutoff if cfg.cutoff is not None else DEFAULT_CUTOFF
    rows = []
    for b in cfg.bases:
        for s in cfg.s_values:
            rec = prime_sums.cross_moment_bound(b, s, cutoff)
            rows.append(
                {
                    "b": rec.b,
                    "s": rec.s,
                    "N": rec.cutoff,
                    "F": rec.F_trunc,
                    "expansion_residual": rec.expansion_residual,
                    "restriction_residual": rec.restriction_residual,
                    "bound_lhs": rec.bound_lhs,
                    "bound_rhs": rec.bound_rhs,
                    "margin": rec.margin,
                }
            )
    return rows


def _margin_command(check_name: str):
    def handler(cfg: RunConfig) -> Report:
        rows = _prime_sum_rows(cfg)
        worst = max(max(0.0, -row["margin"]) for row in rows)
        return Report(cfg, [_verdict(check_name, worst, cfg.tolerance, rows)])

    return handler


def _cmd_expansion(cfg: RunConfig) -> Report:
    rows = _prime_sum_rows(cfg)
    worst_exp = max(row["expansion_residual"] for row in rows)
    worst_restrict = max(row["restriction_residual"] for row in rows)
    return Report(
        cfg,
        [
            _verdict("expansion", worst_exp, 10 * cfg.tolerance, rows),
            _verdict("restriction", worst_restrict, cfg.tolerance, []),
        ],
    )


DUMP_COLUMNS = ("a", "S", "S_centered_num", "S_centered_den")


def _cmd_dump_collision(cfg: RunConfig) -> Report:
    b = cfg.bases[0]
    group = build_unit_group(b, Level.MOD_B_SQUARED)
    table = collision.collision_invariant(group)
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
    structural = 0.0 if (coset_ok and anti_ok) else 1.0
    return Report(
        cfg,
        [_verdict(f"collision-exactness[b={b}]", structural, cfg.tolerance, rows)],
        csv_columns=DUMP_COLUMNS,
    )


_HANDLERS = {
    "verify-decompose": _cmd_verify_decompose,
    "verify-steps": _cmd_verify_steps,
    "verify-vanishing": _cmd_verify_vanishing,
    "verify-moment": _cmd_verify_moment,
    "verify-encoding": _cmd_verify_encoding,
    "verify-base5": _cmd_verify_base5,
    "table1": _cmd_table1,
    "packet": _cmd_packet,
    "lvalue": _cmd_lvalue,
    "classnumber": _cmd_classnumber,
    "cross-moment": _margin_command("cross-moment"),
    "expansion": _cmd_expansion,
    "sweep": _margin_command("sweep-margin"),
    "dump-collision": _cmd_dump_collision,
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
        if isinstance(v, (list, tuple)) and len(v) == 2:
            flat[f"{k}_re"] = _flat_cell(v[0])
            flat[f"{k}_im"] = _flat_cell(v[1])
        elif isinstance(v, dict):
            for kk, vv in v.items():
                flat[f"{k}.{kk}"] = _flat_cell(vv)
        elif v is None:
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
    if report.csv_columns is not None:
        columns = list(report.csv_columns)
    else:
        columns = []
        for flat in flats:
            for k in flat:
                if k not in columns:
                    columns.append(k)
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
        if cfg.out.endswith(".csv"):
            return "csv"
        return "json"
    if os.environ.get(OUT_DIR_ENV):
        return "json"
    return "pretty" if sys.stdout.isatty() else "json"


def run(cfg: RunConfig) -> int:
    """Execute one command and write its report; returns the exit code."""
    report = _HANDLERS[cfg.command](cfg)
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


def _add_common(sp: argparse.ArgumentParser, with_cutoff: bool = False,
                with_s: bool = False) -> None:
    sp.add_argument("--base", type=int, help="single base b (odd prime)")
    sp.add_argument("--bases", type=str, help="comma-separated bases, e.g. 5,7,13")
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="base tolerance (default 1e-10)")
    sp.add_argument("--out", type=str, default=None, help="write the report here")
    sp.add_argument("--format", choices=("json", "csv", "pretty"), default=None)
    if with_cutoff:
        sp.add_argument("--cutoff", type=int, default=None,
                        help="truncation N (prime sums default 10**6)")
    if with_s:
        sp.add_argument("--s", type=str, default=None,
                        help="exponent(s), comma-separated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collspec",
        description="verify collision-invariant spectrum identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run one identity check")
    pv.add_argument(
        "what",
        choices=("decompose", "steps", "vanishing", "moment", "encoding", "base5"),
    )
    _add_common(pv)

    _add_common(sub.add_parser("table1", help="decay statistics of |Delta|/|L|"))
    _add_common(sub.add_parser("packet", help="per-character packet records"))
    _add_common(sub.add_parser("lvalue", help="closed-form L(1) values"),
                with_cutoff=True)
    _add_common(sub.add_parser("classnumber", help="h(-b) two ways"))
    _add_common(sub.add_parser("cross-moment", help="triangle-inequality margin"),
                with_cutoff=True, with_s=True)
    _add_common(sub.add_parser("expansion", help="finite spectral expansion"),
                with_cutoff=True, with_s=True)
    _add_common(sub.add_parser("sweep", help="margin over a (b, s) grid"),
                with_cutoff=True, with_s=True)
    _add_common(sub.add_parser("dump-collision", help="CSV of S and S0"))
    return parser


def _default_bases(command: str) -> tuple[int, ...] | None:
    if command == "classnumber":
        lo, hi = CLASSNUMBER_RANGE
        return tuple(b for b in range(lo, hi + 1) if is_odd_prime(b) and b % 4 == 3)
    if command == "table1":
        return tuple(sorted(packet.TABLE1_TARGETS))
    if command == "sweep":
        return (5, 7, 13)
    return None


def _config_from_args(args: argparse.Namespace,
                      parser: argparse.ArgumentParser) -> RunConfig:
    command = args.command
    if command == "verify":
        command = f"verify-{args.what}"

    if args.base is not None and args.bases is not None:
        parser.error("give --base or --bases, not both")
    if args.base is not None:
        bases: tuple[int, ...] | None = (args.base,)
    elif args.bases is not None:
        try:
            bases = tuple(int(x) for x in args.bases.split(","))
        except ValueError:
            parser.error(f"cannot parse --bases {args.bases!r}")
    else:
        bases = _default_bases(command)
    if not bases:
        parser.error(f"{command} needs --base or --bases")
    for b in bases:
        if not is_odd_prime(b):
            raise NotOddPrime(f"base must be an odd prime, got {b}")
    if command == "dump-collision" and len(bases) != 1:
        parser.error("dump-collision takes exactly one base")

    if not 0 < args.tol <= 1e-3:
        parser.error(f"--tol must lie in (0, 1e-3], got {args.tol}")

    cutoff = getattr(args, "cutoff", None)
    if cutoff is not None and cutoff <= 0:
        parser.error(f"--cutoff must be positive, got {cutoff}")

    s_raw = getattr(args, "s", None)
    if s_raw is not None:
        try:
            s_values = tuple(float(x) for x in s_raw.split(","))
        except ValueError:
            parser.error(f"cannot parse --s {s_raw!r}")
    elif command == "sweep":
        s_values = SWEEP_S_GRID
    else:
        s_values = (1.2,)

    return RunConfig(
        command=command,
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
