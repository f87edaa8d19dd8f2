"""Command-line surface.

Subcommands: bound (closed-form bound report), lex (emit the lex graph),
count (count independent sets of a user graph), verify (exhaustive
sharpness certification), table (bound sweep over all m for one n).

Output is machine-readable: JSON by default, CSV where a flag offers it,
JSON lines for verify's certificate stream.  Exit codes: 0 success, 1
domain or input error, 2 usage error, 3 verification incomplete under
--strict, 141 (128 + SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from ._kernels import MAX_ORDER
from .arith import binom
from .bounds import bound_report
from .counting import independence_profile
from .errors import BudgetExceededError, DomainError, FormatError
from .formats import EMITTERS, parse_document
from .lexgraph import build_lex_graph
from .verify import DEFAULT_BUDGET, verify_range


def _csv_row(record: dict) -> str:
    return ",".join("-" if value is None else str(value) for value in record.values())


def _parse_r_list(values: list[str]) -> list[int]:
    rs = []
    for chunk in values:
        for part in chunk.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                rs.append(int(part))
            except ValueError:
                raise DomainError(f"set size must be an integer, got {part!r}") from None
    if not rs:
        raise DomainError("no set sizes given")
    return rs


def cmd_bound(args) -> int:
    if args.r is not None:
        report = bound_report(args.n, args.m, r_values=_parse_r_list(args.r))
    else:
        # --all-r, also the default when no sizes are named
        report = bound_report(args.n, args.m, r_max=args.n)
    cell = report.as_dict()
    if args.format == "csv":
        bounds = cell.pop("bounds")
        print("n,m,k,p_k,s,t,alpha_upper,s_relation,r,ir_upper_lex,ir_upper_erdos")
        for entry in bounds:
            print(_csv_row({**cell, **entry}))
    else:
        print(json.dumps(cell))
    return 0


def cmd_lex(args) -> int:
    g = build_lex_graph(args.n, args.m)
    emitted = EMITTERS[args.format](g)
    if not emitted.endswith("\n"):
        emitted += "\n"
    sys.stdout.write(emitted)
    return 0


def _read_input(path: str) -> str:
    if path == "-":
        # a text stream with no bytes under it (a StringIO) is already text
        if not hasattr(sys.stdin, "buffer"):
            return sys.stdin.read()
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read {path}: {exc}") from None
    # each non-ASCII byte becomes U+FFFD, which the parsers reject at the
    # line or byte that holds it
    return data.decode("ascii", errors="replace")


def cmd_count(args) -> int:
    g = parse_document(_read_input(args.input), args.format, MAX_ORDER).graph
    profile = independence_profile(g)
    payload = {"n": g.n, "m": g.m, "alpha": profile.alpha()}
    if args.r is not None:
        if not 0 <= args.r <= g.n:
            raise DomainError(f"set size r={args.r} outside 0..{g.n}")
        payload["r"] = args.r
        payload["i_r"] = profile.size_count(args.r)
    else:
        payload["profile"] = list(profile.counts)
        payload["total"] = profile.total()
    print(json.dumps(payload))
    return 0


def cmd_verify(args) -> int:
    if args.budget < 1:
        raise DomainError(f"budget must be >= 1, got {args.budget}")
    # more workers than CPUs only add start-up cost; output is the same
    jobs = min(args.jobs, os.cpu_count() or 1)
    n_max = args.n_max
    r_max = args.r_max if args.r_max is not None else max(2, n_max)

    def emit(record: dict) -> None:
        print(json.dumps(record))

    summary = verify_range(n_max, r_max, budget=args.budget, jobs=jobs, emit=emit)
    print(json.dumps(summary.as_dict()))
    if summary.failures:
        return 1
    if summary.skipped and args.strict:
        return 3
    return 0


def cmd_table(args) -> int:
    rows = []
    for m in range(binom(args.n, 2) + 1):
        cell = bound_report(args.n, m, r_values=[args.r]).as_dict()
        (entry,) = cell["bounds"]
        row = {key: cell[key] for key in ("m", "k", "p_k", "s", "t", "alpha_upper")}
        row["ir_upper"] = entry["ir_upper_lex"]
        rows.append(row)
    if args.format == "json":
        print(json.dumps(rows))
    else:
        print("m,k,p_k,s,t,alpha_upper,ir_upper")
        for row in rows:
            print(_csv_row(row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexext",
        description=(
            "Sharp bounds for independence numbers and independent-set counts "
            "of graphs with a given number of vertices and edges, with "
            "exhaustive small-scale verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="closed-form bound report for one (n, m)")
    p_bound.add_argument("--n", type=int, required=True, help="number of vertices")
    p_bound.add_argument("--m", type=int, required=True, help="number of edges")
    group = p_bound.add_mutually_exclusive_group()
    group.add_argument(
        "--r",
        action="append",
        metavar="R[,R...]",
        help="independent-set sizes to bound (repeatable, comma lists ok)",
    )
    group.add_argument(
        "--all-r",
        action="store_true",
        help="bound every size 2..n (default when --r absent)",
    )
    p_bound.add_argument("--format", choices=("json", "csv"), default="json")
    p_bound.set_defaults(func=cmd_bound)

    p_lex = sub.add_parser("lex", help="emit the lex graph L(n, m)")
    p_lex.add_argument("--n", type=int, required=True)
    p_lex.add_argument("--m", type=int, required=True)
    p_lex.add_argument("--format", choices=("edgelist", "graph6", "dot"), default="edgelist")
    p_lex.set_defaults(func=cmd_lex)

    p_count = sub.add_parser("count", help="count independent sets of an input graph")
    p_count.add_argument("--input", default="-", help="input path, - for stdin (default)")
    p_count.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    group = p_count.add_mutually_exclusive_group()
    group.add_argument("--r", type=int, help="report the count for one set size")
    group.add_argument(
        "--profile",
        action="store_true",
        help="report counts for every size (default)",
    )
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser(
        "verify", help="exhaustively certify bounds over all small graphs"
    )
    p_verify.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_verify.add_argument("--r-max", type=int, default=None, dest="r_max")
    p_verify.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"max graphs per cell (default {DEFAULT_BUDGET})",
    )
    p_verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, at most the CPU count (default 1)",
    )
    p_verify.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 if any cell was skipped for budget",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="bound table over all m for one n")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--r", type=int, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=cmd_table)

    return parser


# built on the first call and kept: parsing an argv leaves the parser as it was
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        # a reader that closed the pipe early shows here, not at exit
        sys.stdout.flush()
        return code
    except (DomainError, FormatError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has what it wanted: stop quietly with 128 + SIGPIPE, the
        # status a shell shows for a writer the signal killed, and point
        # stdout at devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
