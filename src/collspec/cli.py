"""The back of the command line: one check per verified identity, and the
renderers of their report.  A check imports the library modules it uses
when it runs, so a command loads only its own layers.

A check returns the verdicts of one base, or of the whole run for the
commands that pool their rows, and `run` loops over the bases and builds
the report.  A verdict gates the worst residual of its rows against a
tolerance; a NaN residual fails.  Its rows are a column table (name ->
numpy array): the library's columns, or its dicts of scalars stacked a
row per dict.  All verdicts exist before the first byte is written; the
renderers then stream BLOCK_ROWS rows at a time, each row through the
str.format template of its pattern of present cells.  A complex column
is [re, im] in JSON and <key>_re, <key>_im elsewhere; JSON writes a
non-finite float as null.  Floats carry 17 significant digits and rows a
fixed order, so a rerun reproduces the report byte for byte.

Tolerances derive from t = --tol (default 1e-10): t/10 for vanishing
coefficients, t/100 for vanishing diagonal sums, 10*t for the relative
errors of moment and expansion checks and for the lvalue-series gap
(|L - series| beyond its tail bound); the decay table has a fixed band
of 0.05.  The class-number verdict holds sqrt(b)|L|/pi within 1e-6 of
the reduced-forms count.  The lvalue-magnitude verdict holds |B1| to
(b/pi)|L(1)| on the primitive odd family: two independent transforms,
B1 of the units and L(1) by the cotangent formula.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from typing import NamedTuple, TextIO

import numpy as np

from . import front
from .front import COMMANDS, RunConfig

DEFAULT_CUTOFF = 1_000_000
CLASSNUMBER_TOLERANCE = 1e-6


class Sparse(NamedTuple):
    """A column with absent cells: its values, and where a cell is present."""
    values: np.ndarray
    present: np.ndarray  # bool, a cell per row


def _values(column: np.ndarray | Sparse) -> np.ndarray:
    return column.values if isinstance(column, Sparse) else column


class Verdict(NamedTuple):
    check_name: str
    passed: bool
    worst_residual: float
    tolerance: float
    # Column table: name -> array or Sparse, a cell per row; a dotted name
    # a.b is key b of the nested JSON object a.
    details: dict[str, np.ndarray | Sparse]

    @property
    def rows(self) -> int:
        return len(_values(next(iter(self.details.values()), ())))


class Report(NamedTuple):
    config: RunConfig
    verdicts: list[Verdict]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _verdict(name: str, residuals, tol: float, details: dict | None = None) -> Verdict:
    """Gate the largest residual against tol; a NaN residual fails."""
    worst = float(np.max(np.asarray(residuals, dtype=float)))
    return Verdict(name, worst < tol, worst, tol, details or {})


def _stack(rows: list[dict]) -> dict[str, np.ndarray]:
    """Dicts of scalars as a column table, a row per dict."""
    return {k: np.array([r[k] for r in rows]) for k in rows[0]}


# ====== checks: the verdicts of one base, or of a whole run ======


def _check_decompose(b: int, cfg: RunConfig) -> list[Verdict]:
    from .spectrum import magnitudes, spectrum_of
    spec = spectrum_of(b)
    odd, primitive = spec.odd, spec.primitive
    residual = spec.factorization_residual
    details = {
        "b": np.full(spec.group.phi, b), "j": np.arange(spec.group.phi),
        "parity": np.where(odd, "odd", "even"), "primitive": primitive, "s_hat": spec.s_hat,
        "B1": spec.B1, "S_G": spec.S_G, "P_short": spec.P_short,
        "residuals.decomposition": residual,
        "residuals.s_hat_vanishing": Sparse(magnitudes(spec.s_hat), ~(odd & primitive)),
        "residuals.S_G_vanishing": Sparse(magnitudes(spec.S_G), odd & ~primitive),
    }
    return [_verdict(f"decompose[b={b}]", residual[odd & primitive], cfg.tolerance, details)]


def _check_steps(b: int, cfg: RunConfig) -> list[Verdict]:
    from . import spectrum
    columns = spectrum.verify_proof_steps(b)
    residuals = [v for k, v in columns.items() if k not in ("b", "j")]
    return [_verdict(f"steps[b={b}]", residuals, cfg.tolerance, columns)]


def _check_vanishing(b: int, cfg: RunConfig) -> list[Verdict]:
    from .spectrum import magnitudes, spectrum_of
    spec = spectrum_of(b)
    js = np.flatnonzero(~(spec.odd & spec.primitive))
    odd = spec.odd[js]
    s_hat_abs, s_g_abs = magnitudes(spec.s_hat[js]), magnitudes(spec.S_G[js])
    details = {
        "b": np.full(len(js), b), "j": js, "family": np.where(odd, "imprimitive-odd", "even"),
        "s_hat_abs": s_hat_abs, "S_G_abs": Sparse(s_g_abs, odd),
    }
    return [
        _verdict(f"vanishing-s-hat[b={b}]", s_hat_abs, cfg.tolerance / 10, details),
        _verdict(f"vanishing-S-G[b={b}]", np.where(odd, s_g_abs, 0.0), cfg.tolerance / 100),
    ]


def _check_moment(b: int, cfg: RunConfig) -> list[Verdict]:
    from . import spectrum
    rep = spectrum.verify_moment(b)
    return [_verdict(f"moment[b={b}]", [rep["rel_err"], rep["parseval_rel_err"]],
                     10 * cfg.tolerance, _stack([rep]))]


def _check_encoding(b: int, cfg: RunConfig) -> list[Verdict]:
    from . import spectrum
    columns = spectrum.verify_encoding(b)
    return [_verdict(f"encoding[b={b}]", columns["residual"], cfg.tolerance, columns)]


def _check_base5(b: int, cfg: RunConfig) -> list[Verdict]:
    from . import spectrum
    details = spectrum.verify_base5_identities(b)
    verdicts = [_verdict(f"short-sum-doubling[b={b}]", details["doubling_residual"],
                         cfg.tolerance, details)]
    if b == 5:
        fourth = spectrum.verify_fourth_moment()
        verdicts += [_verdict(f"short-sum-sqrt5[b={b}]", details["sqrt5_residual"], cfg.tolerance),
                     _verdict(f"fourth-moment[b={b}]", [fourth["rel_err"]], 10 * cfg.tolerance,
                              _stack([fourth]))]
    return verdicts


def _check_table1(b: int, cfg: RunConfig) -> list[Verdict]:
    from . import packet
    stats = packet.packet_stats(b)
    details = _stack([stats])
    if b not in packet.TABLE1_TARGETS:
        return [_verdict(f"table1-measured[b={b}]", [0.0], packet.TABLE1_TOLERANCE, details)]
    mean_ref, std_ref = packet.TABLE1_TARGETS[b]
    residuals = [abs(stats["mean_ratio"] - mean_ref), abs(stats["std_ratio"] - std_ref),
                 abs(stats["mean_phase_cos"])]
    return [_verdict(f"table1[b={b}]", residuals, packet.TABLE1_TOLERANCE, details)]


def _check_packet(b: int, cfg: RunConfig) -> list[Verdict]:
    from . import packet
    records = packet.packet_records(b)
    n = len(records["j"])
    details = {"b": np.full(n, b), **records, "probe": Sparse(*packet.probes(records))}
    cells = np.concatenate([records[k] for k in ("L1", "delta", "ratio", "phase_cos")])
    broken = [float(n != (b - 1) ** 2 // 2), float(np.count_nonzero(~np.isfinite(cells)))]
    return [_verdict(f"packet[b={b}]", broken, cfg.tolerance, details)]


def _check_lvalue(b: int, cfg: RunConfig) -> list[Verdict]:
    from . import lvalues, spectrum
    if cfg.cutoff is not None:
        lvalues.series_truncation(max(cfg.bases) ** 2, cfg.cutoff)  # before any base's work
    spec = spectrum.spectrum_of(b)
    js = np.flatnonzero(spec.odd & spec.primitive)
    l1 = spec.L1[js]
    l_abs, b1_abs = spectrum.magnitudes(l1), spectrum.magnitudes(spec.B1[js])
    residual = np.abs(b1_abs - b / math.pi * l_abs)
    details = {"b": np.full(len(js), b), "j": js, "L": l1, "L_abs": l_abs, "B1_abs": b1_abs,
               "magnitude_residual": residual}
    if cfg.cutoff is None:
        return [_verdict(f"lvalue-magnitude[b={b}]", residual, cfg.tolerance, details)]
    series = lvalues.l_value_series(spec.group, js, cfg.cutoff)
    gaps = np.maximum(0.0, spectrum.magnitudes(l1 - series["series"]) - series["tail_bound"])
    details.update(series, agreement_gap=gaps)
    return [_verdict(f"lvalue-magnitude[b={b}]", residual, cfg.tolerance, details),
            _verdict(f"lvalue-series[b={b}]", gaps, 10 * cfg.tolerance)]


def _check_classnumber(cfg: RunConfig) -> list[Verdict]:
    from . import lvalues
    details = _stack([lvalues.class_number_check(b) for b in cfg.bases])
    details["equal"] = details["h_from_L"] == details["h_from_forms"]
    residuals = np.abs(details["pre_rounding"] - details["h_from_forms"])
    return [_verdict("classnumber", residuals, CLASSNUMBER_TOLERANCE, details)]


def _check_margin(check_name: str, cfg: RunConfig) -> list[Verdict]:
    from . import prime_sums
    cutoff = DEFAULT_CUTOFF if cfg.cutoff is None else cfg.cutoff
    details = _stack(prime_sums.cross_moment_bound(cfg.bases, cfg.s_values, cutoff))
    shortfall = np.where(details["margin"] >= 0, 0.0, -details["margin"])  # NaN stays NaN
    return [_verdict(check_name, shortfall, cfg.tolerance, details)]


def _check_expansion(cfg: RunConfig) -> list[Verdict]:
    from . import prime_sums
    cutoff = DEFAULT_CUTOFF if cfg.cutoff is None else cfg.cutoff
    details = _stack(prime_sums.verify_expansion(cfg.bases, cfg.s_values, cutoff))
    return [_verdict("expansion", details["expansion_residual"], 10 * cfg.tolerance, details),
            _verdict("restriction", details["restriction_residual"], cfg.tolerance)]


def _check_dump_collision(b: int, cfg: RunConfig) -> list[Verdict]:
    from . import collision, unit_group
    group = unit_group.build_unit_group(b * b)
    table = collision.collision_invariant(group)
    coset_ok = not collision.coset_sums(b, table.units, table.S0_num).any()
    # a -> m - a is the roll by phi/2 along t, as -1 = g**(phi/2): it swaps the halves.
    half = group.phi // 2
    anti_ok = np.array_equal(table.S0_num[half:], -table.S0_num[:half])
    # The rows ascend in a: gathered through the inverse table a column at a time.
    order, units, s, num = group.dlog[group.dlog >= 0], table.units, table.S, table.S0_num
    del group, table
    units = units[order]
    s = s[order]
    num = num[order]
    # S0 = S0_num / b, printed in lowest terms as Fraction would print it.
    den = np.gcd(num, b)
    num //= den
    details = {"a": units, "S": s, "S_centered_num": num,
               "S_centered_den": np.floor_divide(b, den, out=den)}
    return [_verdict(f"collision-exactness[b={b}]", [float(not (coset_ok and anti_ok))],
                     cfg.tolerance, details)]


# ====== the checks by command ======


# Each command's check, (b, cfg) -> verdicts of base b or (cfg) -> all verdicts
# if whole_run, and the library module whose imports cover the check's own.
CHECKS: dict[str, tuple[Callable, str]] = {
    "verify-decompose": (_check_decompose, "spectrum"),
    "verify-steps": (_check_steps, "spectrum"),
    "verify-vanishing": (_check_vanishing, "spectrum"),
    "verify-moment": (_check_moment, "spectrum"),
    "verify-encoding": (_check_encoding, "spectrum"),
    "verify-base5": (_check_base5, "spectrum"),
    "table1": (_check_table1, "packet"),
    "packet": (_check_packet, "packet"),
    "lvalue": (_check_lvalue, "lvalues"),
    "classnumber": (_check_classnumber, "lvalues"),
    "cross-moment": (partial(_check_margin, "cross-moment"), "prime_sums"),
    "expansion": (_check_expansion, "prime_sums"),
    "sweep": (partial(_check_margin, "sweep-margin"), "prime_sums"),
    "dump-collision": (_check_dump_collision, "collision"),
}


# ====== deterministic serialization ======


BLOCK_ROWS = 4096  # rows formatted and written at a time


def fmt_float(x: float) -> str:
    """Decimal literal with 17 significant digits."""
    return format(float(x), ".17g")


def _text(v, json_: bool) -> str:
    """One value; None and, in JSON, a non-finite float are null."""
    if v is None or json_ and isinstance(v, float) and not math.isfinite(v):
        return "null"
    if isinstance(v, (bool, str)):  # true/false; a JSON string is quoted
        return json.dumps(v) if json_ or isinstance(v, bool) else v
    return fmt_float(v) if isinstance(v, float) else str(v)


def _flat(details: dict) -> list[tuple[str, np.ndarray | Sparse]]:
    """The columns outside JSON: a complex one becomes <name>_re, <name>_im,
    each absent where the complex cell is."""
    flat = []
    for name, column in details.items():
        values, present = column if isinstance(column, Sparse) else (column, None)
        complex_ = np.iscomplexobj(values)
        parts = [("_re", values.real), ("_im", values.imag)] if complex_ else [("", values)]
        flat += [(name + suffix, part if present is None else Sparse(part, present))
                 for suffix, part in parts]
    return flat


def _escape(text: str) -> str:
    """Literal text inside a format template."""
    return text.replace("{", "{{").replace("}", "}}")


def _cell(data: np.ndarray, json_: bool, quote: Callable[[str], str]) -> tuple[str, list]:
    """A column's format field and the arrays it takes: ints and floats raw,
    complex (JSON only) as [re, im]; as text a JSON float column with a
    non-finite value (null) cell by cell, any other column by distinct value."""
    kind = data.dtype.kind
    if kind == "c":
        (real, re_args), (imag, im_args) = (_cell(part, json_, quote) for part in (data.real, data.imag))
        return f"[{real}, {imag}]", re_args + im_args
    if kind in "iu" or kind == "f" and not (json_ and not np.isfinite(data).all()):
        return "{}" if kind in "iu" else "{:.17g}", [data]
    if kind == "f":
        return "{}", [np.array([_text(x, json_) for x in data.tolist()], dtype=object)]
    distinct, inverse = np.unique(data, return_inverse=True)
    return "{}", [np.array([quote(_text(v, json_)) for v in distinct.tolist()], dtype=object)[inverse]]


def _render(columns: list[np.ndarray | Sparse], template: Callable[[list], str],
            json_: bool = False, quote: Callable[[str], str] = str) -> Iterator[np.ndarray]:
    """The rows of a column table as text, a block at a time.  Rows with one
    pattern of present cells (one 1-D unique over the packed presence bits)
    share one format template, template(fields of the cells, None if absent)."""
    total = len(_values(columns[0])) if columns else 0
    for start in range(0, total, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        cells = [_cell(_values(c)[block], json_, quote) for c in columns]
        present = [c.present[block] if isinstance(c, Sparse) else None for c in columns]
        groups = [slice(None)]
        if varying := [p for p in present if p is not None and p.any() and not p.all()]:
            packed = np.packbits(np.stack(varying, axis=1), axis=1)
            _, inverse = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_inverse=True)
            groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
        lines = np.empty(min(BLOCK_ROWS, total - start), dtype=object)
        for rows in groups:
            flags = [p is None or p[rows][0] for p in present]
            fmt = template([field if f else None for (field, _), f in zip(cells, flags)]).format
            args = [a[rows].tolist() for (_, arrays), f in zip(cells, flags) if f for a in arrays]
            lines[rows] = list(map(fmt, *args)) if args else [fmt()] * len(lines[rows])
        yield lines


def _json_template(names: Iterable[str], fields: Iterable, indent: int) -> str | None:
    """Template of the JSON object of the present cells' fields (None where absent),
    a dotted name a.b as key b of the nested object a; None if no cell is present."""
    groups: dict[str, list] = {}
    for name, field in zip(names, fields):
        outer, dot, inner = name.partition(".")
        groups.setdefault(outer, []).append((inner, field) if dot else field)
    slots = []
    for key, members in groups.items():
        field = _json_template(*zip(*members), indent + 2) if isinstance(members[0], tuple) else members[0]
        if field:
            slots.append(f"{' ' * (indent + 2)}{_escape(json.dumps(key))}: {field}")
    return "{{\n" + ",\n".join(slots) + f"\n{' ' * indent}}}}}" if slots else None


def render_json(report: Report, out: TextIO) -> None:
    cfg = report.config
    out.write(f'{{\n  "command": {json.dumps(cfg.command)},\n  "config": {{\n'
              f'    "bases": [{", ".join(map(str, cfg.bases))}],\n'
              f'    "tolerance": {_text(cfg.tolerance, True)},\n'
              f'    "cutoff": {_text(cfg.cutoff, True)},\n'
              f'    "s": [{", ".join(_text(s, True) for s in cfg.s_values)}]\n'
              f'  }},\n  "passed": {_text(report.passed, True)},\n  "verdicts": [')
    for i, v in enumerate(report.verdicts):
        out.write(f'{"," if i else ""}\n    {{\n      "check": {json.dumps(v.check_name)},\n'
                  f'      "passed": {_text(v.passed, True)},\n'
                  f'      "worst_residual": {_text(v.worst_residual, True)},\n'
                  f'      "tolerance": {_text(v.tolerance, True)},\n      "details": [')
        # The columns in the order of their JSON cells: by the first appearance
        # of each dotted prefix, as _json_template nests them.
        first: dict[str, int] = {}
        names = sorted(v.details, key=lambda n: [first.setdefault(n.rsplit(".", k)[0], len(first))
                                                 for k in range(n.count("."), -1, -1)])
        blocks = _render([v.details[n] for n in names], lambda fields: "\n        " + (
            _json_template(names, fields, 8) or "{{}}"), json_=True)
        for start, lines in enumerate(blocks):
            out.write("," * bool(start) + ",".join(lines))
        out.write(("\n      ]" if v.rows else "]") + "\n    }")
    out.write("\n  ]\n}\n")


def _csv_header(report: Report) -> list[str]:
    """The union of the tables' columns that hold a cell; check first when
    there are several verdicts."""
    keys = [key for v in report.verdicts for key, column in _flat(v.details)
            if (column.present.any() if isinstance(column, Sparse) else len(column))]
    return list(dict.fromkeys(["check", *keys] if len(report.verdicts) > 1 and keys else keys))


def render_csv(report: Report, out: TextIO) -> None:
    columns = COMMANDS[report.config.command].columns or _csv_header(report)
    csv.writer(out, lineterminator="\n").writerow(columns)

    def quote(text: str) -> str:  # as csv.writer writes it in a row of len(columns) fields
        row, buf = [text, ""][:min(len(columns), 2)], io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(row)
        return buf.getvalue()[:-len(row)]

    empty = quote("")  # an absent cell: '""' when it is the row's only field
    for v in report.verdicts:
        table = dict(_flat(v.details))
        table.setdefault("check", np.broadcast_to(np.array(v.check_name), v.rows))
        absent = Sparse(np.zeros(v.rows), np.zeros(v.rows, dtype=bool))
        cells = [table.get(key, absent) for key in columns]
        out.writelines("".join(lines) for lines in _render(
            cells, lambda fields: ",".join(f or empty for f in fields) + "\n", quote=quote))


PRETTY_ROW_LIMIT = 12


def render_pretty(report: Report, out: TextIO) -> None:
    cfg = report.config
    lines = [
        f"collspec {cfg.command}  bases={','.join(map(str, cfg.bases))}"
        f"  tol={fmt_float(cfg.tolerance)}"
    ]
    for v in report.verdicts:
        n = v.rows
        flag = "PASS" if v.passed else "FAIL"
        lines.append(f"[{flag}] {v.check_name}  worst={v.worst_residual:.3e}"
                     f"  tol={v.tolerance:.1e}  rows={n}")
        if 0 < n <= PRETTY_ROW_LIMIT:
            keys, cells = zip(*_flat(v.details))
            lines += next(_render(list(cells), lambda fields: "    " + ", ".join(
                f"{_escape(key)}={f}" for key, f in zip(keys, fields) if f))).tolist()
        elif n > PRETTY_ROW_LIMIT:
            lines.append(f"    ({n} rows; use --format csv or json)")
    lines.append(f"overall {'PASS' if report.passed else 'FAIL'}")
    out.write("\n".join(lines) + "\n")


_RENDERERS = {"json": render_json, "csv": render_csv, "pretty": render_pretty}


def run(cfg: RunConfig) -> int:
    """Execute one command, configured by `front.parse`, and write its
    report; returns the exit code."""
    check = CHECKS[cfg.command][0]
    if COMMANDS[cfg.command].whole_run:
        verdicts = check(cfg)
    else:
        verdicts = [v for b in cfg.bases for v in check(b, cfg)]
    report = Report(cfg, verdicts)
    if cfg.out is None:
        _RENDERERS[cfg.fmt](report, sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    else:
        with open(cfg.out, "w", encoding="utf-8") as fp:
            _RENDERERS[cfg.fmt](report, fp)
        print(f"wrote {cfg.out}; overall {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    """Parse, then run: the command line in-process, without the entry
    point's start-up steps (see `collspec.__main__`)."""
    return front.main(argv, run)
