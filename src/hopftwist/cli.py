"""Command line front end.

hopftwist verify <suite> [--order K] [--theta EXPR] [--seed N]
                         [--json PATH] [--timings]
hopftwist describe <file.json>
hopftwist octonion-table [--csv PATH]

Exit codes: 0 all checks passed, 1 at least one failed or raised, 2
malformed input (unknown suite, unparsable scalar, schema violation,
unreadable file) or a computation refused as too costly (SolveTooCostly:
one solve, one price, one refusal).
"""

import argparse
import sys

from .errors import (
    ParseError,
    SchemaError,
    SolveTooCostly,
    UnknownSuite,
)
from .suites import SUITE_NAMES, run_suite


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hopftwist",
        description="exact checks for twisted algebra structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a named check suite")
    v.add_argument(
        "suite",
        help="one of %s, or 'all'" % ", ".join(SUITE_NAMES),
    )
    v.add_argument("--order", type=int, default=None, help="series truncation order")
    v.add_argument("--theta", default=None, help="deformation parameter expression")
    v.add_argument("--seed", type=int, default=None, help="seed for sampled inputs")
    v.add_argument("--json", dest="json_path", default=None, help="write the JSON report here ('-' for stdout)")
    v.add_argument("--timings", action="store_true", help="time each check and print the five slowest")

    d = sub.add_parser("describe", help="summarize a JSON document")
    d.add_argument("file", help="path to the document")

    o = sub.add_parser("octonion-table", help="print the octonion multiplication table")
    o.add_argument("--csv", default=None, help="write (i,j,k,sign) rows to this file")
    return parser


def _cmd_verify(args):
    # the report file is opened before the suite runs, so that a path that
    # cannot be written costs no run; an existing file is emptied only when
    # the report replaces it
    if args.json_path in (None, "-"):
        return _verify(args, None)
    with open(args.json_path, "a", encoding="utf-8") as fh:
        return _verify(args, fh)


def _verify(args, fh):
    rep = run_suite(args.suite, order=args.order, theta=args.theta, seed=args.seed)
    for c in rep.checks:
        if c.ok:
            print("pass  %s" % c.id)
        else:
            extra = "" if c.witness is None else "  [%s]" % c.witness
            print(
                "%s %s  residual=%d%s"
                % (c.status.upper(), c.id, c.residual_term_count, extra)
            )
    passed = sum(1 for c in rep.checks if c.ok)
    print("%d/%d checks passed (seed %d)" % (passed, len(rep.checks), rep.seed))
    if args.timings:
        for c in sorted(rep.checks, key=lambda c: c.elapsed_ms, reverse=True)[:5]:
            print("slow  %10.3f ms  %s" % (c.elapsed_ms, c.id))
    if args.json_path is not None:
        text = rep.to_json(timings=args.timings)
        if fh is None:
            sys.stdout.write(text)
        else:
            fh.truncate(0)
            fh.write(text)
    return 0 if rep.ok else 1


def load_json_file(path):
    """The JSON document in the file at path; ParseError with line and
    column for a file that is not UTF-8 or not JSON."""
    import json

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ParseError("file is not UTF-8 text", line, e.start - raw.rfind(b"\n", 0, e.start))
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno)
    except RecursionError:
        raise ParseError("JSON nested too deeply to decode", 1, 1)


def _cmd_describe(args):
    # the file is decoded first: io_json's tree is loaded only for a document
    doc = load_json_file(args.file)
    from .io_json import describe_doc

    for line in describe_doc(doc):
        print(line)
    return 0


def _cmd_octonion_table(args):
    from .io_json import octonion_table_csv, octonion_table_rows

    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(octonion_table_csv())
        print("wrote %s" % args.csv)
        return 0
    cell = {(i, j): (k, s) for i, j, k, s in octonion_table_rows()}
    header = "      " + "".join("%6s" % ("e%d" % j) for j in range(8))
    print(header)
    for i in range(8):
        row = ["%6s" % ("e%d" % i)]
        for j in range(8):
            k, s = cell[(i, j)]
            row.append("%6s" % ("%se%d" % ("-" if s < 0 else " ", k)))
        print("".join(row))
    return 0


def _one_value_each(args):
    """argparse turns an option value of exactly '--' (--theta=--) into an
    empty list; every option here takes one value, so that is malformed
    input."""
    for name, value in vars(args).items():
        if isinstance(value, list):
            raise SchemaError("%s needs one value, not '--'" % name, name)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "describe": _cmd_describe,
        "octonion-table": _cmd_octonion_table,
    }
    try:
        _one_value_each(args)
        return handlers[args.command](args)
    except (UnknownSuite, ParseError, SchemaError, SolveTooCostly, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
