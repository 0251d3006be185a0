"""The front of the command line, without numpy: the command table as
data, the parser built from it, and the validation of a run.

COMMANDS holds each command's help text, --cutoff/--s flags, default
bases and exponents, CSV columns, single-base rule, and whether its
check pools the whole run's rows; `cli.CHECKS` maps the same names to
the checks.  `main` validates argv before the back loads: `--help`, a
usage error and a bad base, --tol or report directory exit before numpy
loads.  The library refuses an s or cutoff out of range before it sieves
or builds a spectrum, and finds only a cutoff with no prime above b**2,
an underflowing p^-s and an unwritable report file as the run goes.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or
configuration error (a refused input, or a report that cannot be
written).  The report goes to stdout, to --out, or to
$COLLSPEC_OUT_DIR/<command>.<ext>; its format is --format, else the
suffix of --out, else pretty on a terminal and JSON otherwise.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from collections.abc import Callable, Iterable
from typing import NamedTuple

from .errors import BaseOutOfRange, NotOddPrime, VerificationError

# Supported bases: the largest prime whose modelled peak RSS, 48 MB + 330 bytes
# per phi = b(b-1), is at most 4 GB (3.99 GB at b = 3583).  The model bounds
# `verify decompose` at b = 199, 499 and 997 from above (48.3, 93.5, 288.8 MB),
# and at b = 997 `verify steps` (353.2 MB) and `expansion --cutoff 10^7` (332 MiB).
MAX_BASE = 3583

OUT_DIR_ENV = "COLLSPEC_OUT_DIR"


def is_odd_prime(n: int) -> bool:
    """Deterministic trial-division primality test; rejects 2."""
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_base(b: int) -> None:
    """Refuse b unless it is an odd prime up to MAX_BASE.  The bound is tested
    first: trial division of a huge b would take sqrt(b) steps."""
    if isinstance(b, int) and b > MAX_BASE:
        raise BaseOutOfRange(f"base {b} exceeds the supported bound {MAX_BASE}")
    if not isinstance(b, int) or isinstance(b, bool) or not is_odd_prime(b):
        raise NotOddPrime(f"base must be an odd prime, got {b!r}")


class RunConfig(NamedTuple):
    command: str
    bases: tuple[int, ...]
    tolerance: float = 1e-10
    cutoff: int | None = None  # None: command default (prime sums: 10**6)
    s_values: tuple[float, ...] = (1.2,)
    out: str | None = None  # the report file; None: stdout
    fmt: str | None = None  # parse settles None: pretty on a tty, JSON otherwise


# ====== the command table ======


class Command(NamedTuple):
    help: str
    whole_run: bool = False  # one check over all bases, not one per base
    flags: tuple[str, ...] = ()  # beyond COMMON_FLAGS
    bases: tuple[int, ...] = ()  # default bases; () makes --base/--bases required
    s_values: tuple[float, ...] = (1.2,)  # default exponents
    columns: tuple[str, ...] | None = None  # CSV columns; None: union of the tables' columns
    single_base: bool = False


PRIME_SUM_FLAGS = ("--cutoff", "--s")

COMMANDS = {
    "verify-decompose": Command("factorization of s0_hat through B1 and S_G"),
    "verify-steps": Command("the steps behind the factorization"),
    "verify-vanishing": Command("vanishing at even / imprimitive-odd characters"),
    "verify-moment": Command("Parseval and the second-moment identity"),
    "verify-encoding": Command("L-encoding of coefficient magnitudes"),
    "verify-base5": Command("short-sum doubling and the base-5 extras"),
    "table1": Command("decay statistics of |Delta|/|L|",
                      bases=(5, 7, 13, 19, 31, 43),  # the rows of packet.TABLE1_TARGETS
                      columns=("b", "mean_ratio", "std_ratio", "std_ln_b", "std_log10_b",
                               "mean_phase_cos", "count")),
    "packet": Command("per-character packet records"),
    "lvalue": Command("closed-form L(1) values", flags=("--cutoff",)),
    "classnumber": Command("h(-b) two ways", whole_run=True,
                           bases=tuple(b for b in range(7, 164) if is_odd_prime(b) and b % 4 == 3)),
    "cross-moment": Command("triangle-inequality margin", whole_run=True, flags=PRIME_SUM_FLAGS),
    "expansion": Command("finite spectral expansion", whole_run=True, flags=PRIME_SUM_FLAGS),
    "sweep": Command("margin over a (b, s) grid", whole_run=True, flags=PRIME_SUM_FLAGS,
                     bases=(5, 7, 13), s_values=(0.8, 1.0, 1.2, 1.5)),
    "dump-collision": Command("CSV of S and S0", single_base=True),
}


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


def _config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
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
    if len(set(bases)) != len(bases):
        parser.error(f"--bases repeats a base: {args.bases}")
    for b in bases:
        check_base(b)
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

    return RunConfig(command=name, bases=bases, tolerance=args.tol, cutoff=cutoff,
                     s_values=s_values, out=args.out, fmt=args.format)


def parse(argv: list[str] | None) -> RunConfig:
    """The validated run of argv, its format and report file (out; None:
    stdout) settled.  argparse exits on --help and usage errors; a refused
    input raises, and so does a report file in a missing directory or one
    that is itself a directory."""
    parser = build_parser()
    cfg = _config_from_args(parser.parse_args(argv), parser)
    fmt, out, out_dir = cfg.fmt, cfg.out, os.environ.get(OUT_DIR_ENV)
    if fmt is None and out is not None:
        fmt = "csv" if out.endswith(".csv") else "json"
    elif fmt is None:
        fmt = "json" if out_dir or not sys.stdout.isatty() else "pretty"
    if out is None and out_dir:
        out = os.path.join(out_dir, f"{cfg.command}.{'txt' if fmt == 'pretty' else fmt}")
    if out is not None:
        try:
            os.stat(os.path.join(os.path.dirname(out) or ".", ""))  # the slash: a directory
            if os.path.isdir(out):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, out) from None
    return cfg._replace(fmt=fmt, out=out)


def main(argv: list[str] | None, run: Callable[[RunConfig], int]) -> int:
    """Return run(parse(argv)); a refusal, or a report that cannot be
    written, is one `error:` line on stderr and exit code 2."""
    try:
        return run(parse(argv))
    except (VerificationError, OSError) as exc:  # OSError: the report cannot be written
        if isinstance(exc, BrokenPipeError):  # keep the exit-time flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
