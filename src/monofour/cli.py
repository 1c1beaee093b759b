"""Command-line front end.

Subcommands: `reduce` (parse + normal form), `mellin` (differential to
shift operator), `fourier` (transform substitution), `trace` (value
tables over a finite field), `verify` (one named check), `verify-all`
(a whole profile grid).  Output is JSON on stdout, or aligned tables
with --pretty.  Exit codes: 0 pass, 1 fail, 2 diagnostic-only verdict,
3 a check raised during `verify-all`, 4 refused input: a usage error, or
an `UnsupportedInputError` (an expression that does not parse, a result
too long to print, or a parameter out of range).  Any other exception is
a fault of the program and ends with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, ore, trace
from .parser import parse_operator
from .reports import EXIT_CODES, EXIT_REFUSED, jsonable
from .scalars import UnsupportedInputError
from .scalars.ratfun import rational


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors exit EXIT_REFUSED, as all refused input does, not
    argparse's 2, the code of a diagnostic verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_REFUSED)


def _emit(payload: dict, pretty_lines=None, pretty: bool = False) -> None:
    if pretty and pretty_lines is not None:
        for line in pretty_lines:
            print(line)
    else:
        print(json.dumps(jsonable(payload), sort_keys=True, indent=2 if pretty else None))


def _cmd_reduce(args) -> int:
    op = parse_operator(args.expr, args.algebra)
    payload = {"algebra": args.algebra, "input": args.expr, "normal_form": str(op)}
    _emit(payload, [f"normal form ({args.algebra}): {op}"], args.pretty)
    return 0


def _cmd_mellin(args) -> int:
    op = parse_operator(args.expr, "weyl")
    image = ore.mellin_op(op)
    payload = {
        "input": args.expr,
        "weyl_normal_form": str(op),
        "shift_normal_form": str(image),
    }
    _emit(
        payload,
        [f"weyl operator:  {op}", f"shift operator: {image}"],
        args.pretty,
    )
    return 0


def _cmd_fourier(args) -> int:
    op = parse_operator(args.expr, "weyl", rank=args.rank)
    image = ore.fourier_auto(op)
    payload = {
        "rank": args.rank,
        "input": args.expr,
        "normal_form": str(op),
        "transformed": str(image),
    }
    _emit(
        payload,
        [f"operator:    {op}", f"transformed: {image}"],
        args.pretty,
    )
    return 0


def _trace_object(q: int, name: str):
    if name == "B":
        return trace.t_B(q), "kernel trace"
    if name == "psi":
        return trace.CharacterTable(q).psi_function(), "additive character"
    if name.startswith("I0:"):
        n = rational("power-count exponent", name[3:], integral=True)
        return trace.power_count_trace(q, n), f"power-count kernel, exponent {n}"
    raise UnsupportedInputError(f"unknown trace object {name!r}")


def _cmd_trace(args) -> int:
    fn, description = _trace_object(args.q, args.object)
    rows = [
        (",".join(str(c) for c in point), str(value)) for point, value in fn.items()
    ]
    payload = {
        "q": args.q,
        "object": args.object,
        "description": description,
        "values": [{"point": p, "value": v} for p, v in rows],
    }
    width = max(len(p) for p, _ in rows)
    lines = [f"{args.object} over F_{args.q} ({description})"]
    lines += [f"  {p.rjust(width)}  {v}" for p, v in rows]
    _emit(payload, lines, args.pretty)
    return 0


def _verify_params(args) -> dict:
    """Every parameter some registered check reads, as far as it was given."""
    keys = {k for spec in checks.CHECKS.values() for k in spec.defaults}
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _cmd_verify(args) -> int:
    report = checks.run_check(args.check, _verify_params(args))
    lines = [
        f"check:     {report.check}",
        f"verdict:   {report.verdict}",
        f"params:    {json.dumps(jsonable(report.parameters), sort_keys=True)}",
        f"statement: {report.statement}",
        f"elapsed:   {report.elapsed:.3f}s",
        "witness:   "
        + json.dumps(jsonable(report.witness), sort_keys=True, indent=2),
    ]
    _emit(report.to_dict(), lines, args.pretty)
    return report.exit_code


def _cmd_verify_all(args) -> int:
    result = checks.run_all(args.profile, seed=args.seed)
    lines = []
    for rep in result["reports"]:
        params = json.dumps(jsonable(rep["parameters"]), sort_keys=True)
        lines.append(
            f"{rep['verdict']:10s} {rep['check']:22s} "
            f"{rep['elapsed']:7.3f}s  {params}"
        )
    counts = result["counts"]
    lines.append(
        f"profile={result['profile']} verdict={result['verdict']} "
        + " ".join(f"{label}={count}" for label, count in counts.items())
    )
    _emit(result, lines, args.pretty)
    return EXIT_CODES[result["verdict"]]


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="monofour",
        description="Exact operator algebra, trace-function, and "
        "group-algebra verification workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="parse an operator expression and print its normal form")
    p.add_argument("--algebra", choices=("weyl", "shift"), required=True)
    p.add_argument("--pretty", action="store_true")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("mellin", help="send a differential operator to the shift algebra")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_mellin)

    p = sub.add_parser("fourier", help="apply the transform substitution to a differential operator")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--pretty", action="store_true")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("trace", help="print a trace-function value table over F_q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--object", required=True, metavar="{B|I0:n|psi}")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("verify", help="run one named check")
    p.add_argument("check", choices=checks.CHECK_IDS, metavar="CHECK")
    p.add_argument("--q", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--chi")
    p.add_argument("--n", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--nprime", type=int)
    p.add_argument("--degree-bound", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--variant")
    p.add_argument("--seed", type=int)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-all", help="run a whole profile of checks")
    p.add_argument("--profile", choices=tuple(checks.PROFILES), default="quick")
    p.add_argument("--seed", type=int)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UnsupportedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
