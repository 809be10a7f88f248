"""Command-line interface.

Subcommands: ``compute`` (one certified number), ``weights`` (level weight
and orbit listings), ``suite`` (the batch identity checks) and
``compare-oracle`` (the two independent SO paths side by side).  An argv is
parsed on one of two routes.  A plain one (a command name, then exact option
strings each with a valid value) is read straight from the parser's actions,
with no argparse pass; every other argv goes to the full argparse parser,
which is the only source of usage, help and error text.  Values are emitted
as decimal strings since they outgrow 64-bit integers quickly; they are
formatted through :class:`decimal.Decimal`, as ``str`` refuses an int of
more than 4,300 digits.

Exit codes: 0 success, 1 failed check or certification, 2 argument error.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache
from operator import add
from typing import Optional, Sequence

from .formula import _check_request, n_so, n_sp, verlinde_sc
from .numeric import DEFAULT_PRECISION, IntegralityError, VerlindeResult
from .rootsys import GroupType, build_root_system, scaled_weight
from .so_oracle import n_so_oracle
from .suite import run_default_suite
from .weights import enumerate_level_weights, orbit_decompose

# The arguments that each ``compute --group`` takes; it refuses the others.
_GROUP_ARGS = {"so": ("r",), "sp": ("r", "level"), "sc": ("type", "rank", "level")}


def output_record(res: VerlindeResult) -> dict:
    """The record of ``res``: its key order is the csv and md column order."""
    level = list(res.level) if isinstance(res.level, tuple) else res.level
    return {
        "group_label": res.group_label,
        "level": level,
        "genus": res.genus,
        "value": str(Decimal(res.value)),
        "residual": f"{res.residual:.6e}",
        "precision_bits": res.precision_bits,
        "term_count": res.term_count,
    }


def _emit_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record, sort_keys=True))
    elif fmt == "csv":  # loaded for this format only, which no default selects
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(record))
        writer.writeheader()
        row = dict(record)
        if isinstance(row["level"], list):
            row["level"] = ":".join(str(x) for x in row["level"])
        writer.writerow(row)
        print(buf.getvalue(), end="")
    else:  # md
        print("| " + " | ".join(record) + " |")
        print("|" + "---|" * len(record))
        print("| " + " | ".join(map(str, record.values())) + " |")


def _cmd_compute(args) -> int:
    wanted = _GROUP_ARGS[args.group]
    for name in ("r", "level", "type", "rank"):
        if (getattr(args, name) is None) == (name in wanted):
            verb = "requires" if name in wanted else "does not take"
            raise ValueError(f"--group {args.group} {verb} --{name}")
    if args.group == "so":
        res = n_so(args.r, args.genus, args.precision)
    elif args.group == "sp":
        res = n_sp(args.r, args.level, args.genus, args.precision)
    else:  # sc
        _check_request(args.genus, args.precision)  # before the root data
        rs = build_root_system(GroupType(args.type, args.rank))
        res = verlinde_sc(rs, args.level, args.genus, args.precision)
    _emit_record(output_record(res), args.format)
    return 0


def _cmd_weights(args) -> int:
    rs = build_root_system(GroupType(args.type, args.rank))
    if args.quotient is None:
        listing = [(n, None) for n in enumerate_level_weights(rs, args.level)]
    else:
        listing = orbit_decompose(rs, args.level)

    # Each row from the integer vector d lambda: coordinates x / d, and the
    # u-coordinates of types B and D, (x + d rho) / d; each x is formatted once.
    d, rho = rs.denominator, rs.scaled_rho
    text = cache(lambda x: str(Fraction(x, d)))
    rows = []
    for n, orbit_size in listing:
        lam = scaled_weight(rs, n)
        row = {
            "marks": list(n),
            "coords": list(map(text, lam)),
        }
        if rs.family in ("B", "D"):
            row["u"] = list(map(text, map(add, lam, rho)))
        if orbit_size is not None:
            row["orbit_size"] = orbit_size
        rows.append(row)

    if args.format == "json":
        print(json.dumps({"group": str(rs.group_type), "level": args.level,
                          "rows": rows}, sort_keys=True))
    else:  # a list cell as [3/2, 1/2], not its repr
        headers = list(rows[0])  # every listing holds the zero weight
        cell = lambda v: f"[{', '.join(map(str, v))}]" if isinstance(v, list) else str(v)
        print("| " + " | ".join(headers) + " |")
        print("|" + "---|" * len(headers))
        for row in rows:
            print("| " + " | ".join(cell(row[h]) for h in headers) + " |")
    return 0


def _cmd_suite(args) -> int:
    report = run_default_suite(
        so_r_max=args.r_max,
        so_g_max=args.genus_max,
        sp_max=args.sp_max,
        sp_g_max=args.sp_genus_max,
        unitarity_rank_max=args.unitarity_rank_max,
        unitarity_level_max=args.unitarity_level_max,
        precision=args.precision,
    )
    print(report.to_json() if args.format == "json" else report.to_markdown())
    return 0 if report.failed == 0 else 1


def _cmd_compare_oracle(args) -> int:
    engine = n_so(args.r, args.genus, args.precision)
    oracle = n_so_oracle(args.r, args.genus, args.precision)
    agree = engine.value == oracle.value
    print(
        json.dumps(
            {
                "engine": output_record(engine),
                "oracle": output_record(oracle),
                "equal": agree,
            },
            sort_keys=True,
        )
    )
    return 0 if agree else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``verlinde`` argument parser, built once per process: parsing
    leaves it unchanged, and building it costs more than a small command.

    Its ``options`` attribute maps each command name to the actions that
    ``add_argument`` returned for that command, keyed by option string.
    Each is a one-value store whose default argparse sets as it is (a string
    default has no type to convert it), so ``_parse`` can read a plain argv
    from them alone."""
    parser = argparse.ArgumentParser(
        prog="verlinde",
        description="Certified Verlinde dimension numbers for classical groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.options = {}

    def command(name: str, text: str):
        p = sub.add_parser(name, help=text)
        options = parser.options[name] = {}

        def argument(option: str, **kwargs) -> None:
            options[option] = p.add_argument(option, **kwargs)
        return argument

    argument = command("compute", "compute one certified dimension")
    argument("--group", choices=("so", "sp", "sc"), required=True)
    argument("--r", type=int, help="r of SO(r), or r of Sp(2r)")
    argument("--level", type=int, help="level (groups sp and sc)")
    argument("--type", choices=("A", "B", "C", "D"), help="family (group sc)")
    argument("--rank", type=int, help="rank (group sc)")
    argument("--genus", type=int, required=True)
    argument("--precision", type=int, default=DEFAULT_PRECISION)
    argument("--format", choices=("json", "csv", "md"), default="json")

    argument = command("weights", "list level weights (and orbits)")
    argument("--type", choices=("A", "B", "C", "D"), required=True)
    argument("--rank", type=int, required=True)
    argument("--level", type=int, required=True)
    argument("--quotient", choices=("so",), default=None,
             help="restrict to the SO-type center quotient and show orbits")
    argument("--format", choices=("json", "md"), default="md")

    argument = command("suite", "run the batch identity checks")
    argument("--r-max", type=int, default=12)
    argument("--genus-max", type=int, default=5)
    argument("--sp-max", type=int, default=4)
    argument("--sp-genus-max", type=int, default=4)
    argument("--unitarity-rank-max", type=int, default=6)
    argument("--unitarity-level-max", type=int, default=4)
    argument("--precision", type=int, default=DEFAULT_PRECISION)
    argument("--format", choices=("json", "md"), default="md")

    argument = command("compare-oracle", "engine vs sequence oracle for SO(r)")
    argument("--r", type=int, required=True)
    argument("--genus", type=int, required=True)
    argument("--precision", type=int, default=DEFAULT_PRECISION)

    return parser


_COMMANDS = {
    "compute": _cmd_compute,
    "weights": _cmd_weights,
    "suite": _cmd_suite,
    "compare-oracle": _cmd_compare_oracle,
}


def _parse_plain(parser: argparse.ArgumentParser,
                 argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace of ``argv`` read from the parser's ``options``, or None
    if ``argv`` is not plain (see ``_parse``)."""
    options = parser.options.get(argv[0]) if argv else None
    if options is None or not len(argv) % 2:
        return None
    values = {}
    for option, text in zip(argv[1::2], argv[2::2]):
        action = options.get(option)
        if action is None or action.dest in values or text.startswith("-"):
            return None
        try:
            value = action.type(text) if action.type else text
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in options.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    args = argparse.Namespace(command=argv[0])
    vars(args).update(values)
    return args


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The namespace of ``argv``, as ``build_parser().parse_args(argv)``
    gives it.

    A plain argv is read from the parser's own actions, without argparse:
    a command name, then (option, value) pairs, each option the exact
    string of an action that no other pair names, each value not starting
    with ``-``, converted by the action's type and within its choices, and
    every required option given.  The namespace holds the command, those
    values and every other action's default.  Any other argv (help,
    ``--opt=value``, abbreviations, ``--``, negative numbers, bad values,
    missing options) goes to ``parse_args``, which alone prints and exits."""
    parser = build_parser()
    args = _parse_plain(parser, argv)
    return parser.parse_args(argv) if args is None else args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command: a ``ValueError`` is a bad argument (exit 2), an
    ``IntegralityError`` a failed certification (exit 1, JSON diagnostic)."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as err:
        build_parser().error(str(err))
    except IntegralityError as err:
        _emit_record(
            {
                "error": "integrality-certification-failed",
                "raw_value": err.raw_value,
                "residual": f"{err.residual:.6e}",
                "precision_bits": err.precision_bits,
            },
            "json",
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
