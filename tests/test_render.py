"""The renderers against the per-cell route they replaced.

The oracle formats every cell on its own, nests each row's JSON object
cell by cell and writes CSV rows through csv.writer; the renderers
build one format template per pattern of present cells.  Both must
give the same bytes on every report, in json, csv and pretty.  The
fixtures mark absent cells with numpy.ma, the oracle's input; the
renderers get the same tables with each masked column as a Sparse
(values, present) pair.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from collspec import cli
from collspec.cli import BLOCK_ROWS, Report, Sparse, Verdict
from collspec.front import COMMANDS, RunConfig

# ====== oracle: the per-cell route ======


def _text(v, json_):
    if v is None or json_ and isinstance(v, float) and not math.isfinite(v):
        return "null"
    if isinstance(v, (bool, str)):
        return json.dumps(v) if json_ or isinstance(v, bool) else v
    return format(float(v), ".17g") if isinstance(v, float) else str(v)


def _texts(values, json_):
    kind = values.dtype.kind
    if kind == "c":
        return list(map("[{}, {}]".format, _texts(values.real, json_), _texts(values.imag, json_)))
    if kind == "f":
        cells = list(map("{:.17g}".format, values.tolist()))
        for i in np.flatnonzero(~np.isfinite(values)).tolist() if json_ else ():
            cells[i] = "null"
        return cells
    if kind in "iu":
        return list(map(str, values.tolist()))
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([_text(v, json_) for v in distinct.tolist()], dtype=object)[inverse].tolist()


def _flat(name, values):
    if np.iscomplexobj(values):
        return [(f"{name}_re", np.real(values)), (f"{name}_im", np.imag(values))]
    return [(name, values)]


def _block(details, rows, json_, absent=None):
    out = []
    for name, values in details.items():
        for key, part in [(name, values[rows])] if json_ else _flat(name, values[rows]):
            cells = _texts(np.ma.getdata(part), json_)
            for i in np.flatnonzero(np.ma.getmaskarray(part)).tolist():
                cells[i] = absent
            out.append((key, cells))
    return out


def _objects(columns, indent):
    groups = {}
    for key, cells in columns:
        outer, dot, inner = key.partition(".")
        groups.setdefault(outer, []).append((inner, cells) if dot else cells)
    slots = []
    for key, members in groups.items():
        cells = _objects(members, indent + 2) if isinstance(members[0], tuple) else members[0]
        prefix = f'{" " * (indent + 2)}{json.dumps(key)}: '
        slots.append([c and prefix + c for c in cells])
    return [f"{{\n{body}\n{' ' * indent}}}" if (body := ",\n".join(filter(None, row))) else None
            for row in zip(*slots)]


def oracle_json(report):
    out = io.StringIO()
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
        for start in range(0, v.rows, BLOCK_ROWS):
            objects = _objects(_block(v.details, slice(start, start + BLOCK_ROWS), True), 8)
            out.write("," * bool(start) + ",".join(f"\n        {o or '{}'}" for o in objects))
        out.write(("\n      ]" if v.rows else "]") + "\n    }")
    out.write("\n  ]\n}\n")
    return out.getvalue()


def _csv_header(report):
    keys = [key for v in report.verdicts for name, values in v.details.items()
            if not np.ma.getmaskarray(values).all() for key, _ in _flat(name, values)]
    return list(dict.fromkeys(["check", *keys] if len(report.verdicts) > 1 and keys else keys))


def oracle_csv(report):
    out = io.StringIO()
    columns = COMMANDS[report.config.command].columns or _csv_header(report)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for v in report.verdicts:
        for start in range(0, v.rows, BLOCK_ROWS):
            k = min(BLOCK_ROWS, v.rows - start)
            cells = {"check": [v.check_name] * k,
                     **dict(_block(v.details, slice(start, start + k), False, ""))}
            writer.writerows(zip(*(cells.get(key, [""] * k) for key in columns)))
    return out.getvalue()


def oracle_pretty(report):
    lines = [f"collspec {report.config.command}  bases=5  tol=1e-10"]
    for v in report.verdicts:
        lines.append(f"[PASS] {v.check_name}  worst={v.worst_residual:.3e}"
                     f"  tol={v.tolerance:.1e}  rows={v.rows}")
        if 0 < v.rows <= cli.PRETTY_ROW_LIMIT:
            keys, columns = zip(*_block(v.details, slice(0, v.rows), json_=False))
            lines += ["    " + ", ".join(f"{key}={c}" for key, c in zip(keys, row) if c is not None)
                      for row in zip(*columns)]
        elif v.rows:
            lines.append(f"    ({v.rows} rows; use --format csv or json)")
    lines.append("overall PASS")
    return "\n".join(lines) + "\n"


# ====== synthesized reports ======


def report(*tables, command="dump-collision"):
    verdicts = [Verdict(f"synth[{i}]", True, 0.0, 1e-10, t) for i, t in enumerate(tables)]
    return Report(RunConfig(command, (5,)), verdicts)


def masked(values, mask):
    return np.ma.masked_array(np.asarray(values), mask)


INF, NAN = math.inf, math.nan
I64 = np.iinfo(np.int64)

CASES = {
    "non-finite": {"x": np.array([NAN, INF, -INF, 1.5]),
                   "z": np.array([complex(NAN, 1), complex(1, INF), 1 + 2j, complex(-INF, NAN)])},
    "negative-zero": {"x": np.array([-0.0, 0.0, 5e-324]),
                      "z": np.array([complex(-0.0, 0.0), complex(0.0, -0.0), -1j])},
    "every-cell-masked": {"a": masked([1, 2, 3], [True, False, True]),
                          "x": masked([0.5, 1.5, 2.5], [True, False, True])},
    "whole-table-masked": {"a": masked([1, 2], [True, True])},
    "absent-nested-group": {"j": np.arange(4),
                            "res.a": masked([0.1, 0.2, 0.3, 0.4], [True, False, True, False]),
                            "res.b": masked([1, 2, 3, 4], [True, True, True, False]),
                            "k": np.array(["p", "q", "p", "q"]),
                            "res.deep.c": masked([1.0, 2.0, 3.0, 4.0], [True, True, False, False])},
    "awkward-strings": {"s": np.array(["a,b", 'say "hi"', "{0}", "}{", "two\nlines", "", "plain"]),
                        "{key}": np.arange(7)},
    "one-column-empty": {"s": np.array(["", "x", ""])},
    "one-column-masked": {"s": masked(["a", "b"], [False, True])},
    "bools": {"flag": np.array([True, False, True]), "also": masked([False, True, True],
                                                                   [False, False, True])},
    # the shape of packet's probe column
    "partly-absent-complex": {"j": np.arange(4),
                              "probe": masked([1 - 2j, 0j, complex(-0.0, 3), 0.5j],
                                              [False, True, False, True])},
    "extreme-ints": {"i": np.array([I64.min, I64.max, 0, -1]),
                     "u": np.array([np.iinfo(np.uint64).max, 0, 1, 2], dtype=np.uint64)},
    "empty": {},
}


def presence_form(rep):
    """The report as the renderers take it: each masked column a Sparse."""
    def column(values):
        if not np.ma.isMaskedArray(values):
            return values
        return Sparse(np.ma.getdata(values), ~np.ma.getmaskarray(values))
    verdicts = [v._replace(details={k: column(c) for k, c in v.details.items()})
                for v in rep.verdicts]
    return rep._replace(verdicts=verdicts)


def rendered(render, rep):
    out = io.StringIO()
    render(presence_form(rep), out)
    return out.getvalue()


def assert_matches_oracle(rep):
    for render, oracle in ((cli.render_json, oracle_json), (cli.render_csv, oracle_csv),
                           (cli.render_pretty, oracle_pretty)):
        assert rendered(render, rep) == oracle(rep), render.__name__


@pytest.mark.parametrize("name", list(CASES))
def test_renderers_match_oracle(name):
    assert_matches_oracle(report(CASES[name]))


def test_several_verdicts_match_oracle():
    assert_matches_oracle(report(CASES["absent-nested-group"], CASES["non-finite"],
                                 CASES["awkward-strings"], CASES["bools"]))


def test_fixed_csv_columns_match_oracle():
    table = {"b": np.array([7, 11]), "count": np.array([3, 4]), "extra": np.array([1.0, 2.0])}
    assert_matches_oracle(report(table, command="table1"))


def test_many_patterns_across_blocks_match_oracle():
    rng = np.random.default_rng(7)
    n = 2 * BLOCK_ROWS + 123
    table = {"j": np.arange(n)}
    for i in range(12):  # more than 8 masked columns: two packed bytes per row
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        if i % 3 == 0:
            values = values + 1j * rng.standard_normal(n)
        table[f"g{i % 4}.c{i}"] = masked(values, rng.random(n) < 0.3)
    table["g0.c0"][5] = NAN  # one block takes the non-finite text route
    assert_matches_oracle(report(table))


def test_absent_complex_cell_empties_both_csv_halves():
    rows = list(csv.reader(io.StringIO(rendered(cli.render_csv,
                                                report(CASES["partly-absent-complex"])))))
    assert rows == [["j", "probe_re", "probe_im"], ["0", "1", "-2"], ["1", "", ""],
                    ["2", "-0", "3"], ["3", "", ""]]
