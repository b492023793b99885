"""Command-line front end.

Subcommands: check, extend, envelope, example.  Input documents
follow the interchange schema (see jsonio); `example` reports the
document its generator writes, and `-f -` reads standard input, so
`previsio example ... | previsio check ...` composes.  Every run prints
one JSON report on standard output.

Exit codes: 0 when the notion passed or the computation succeeded, 1
when a notion failed (the report carries a witness), 2 on usage or
input errors, 3 on an internal error (a self-check that failed).  An
`extend` refused over a base that is not W-coherent exits 2, and its
report carries the base's losing bet.  Standard output closed before
the report is written exits 2, with one line on standard error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from typing import Any, Sequence

from .checkers import (
    PartitionFamily,
    check_aul,
    check_bi_coherence,
    check_centered_convex,
    check_coherence_unconditional,
    check_convex,
    check_df_precise_conditional,
    check_df_precise_unconditional,
    check_separate_coherence,
    check_walley_asl,
    check_w_coherence,
)
from .conglomerability import (
    check_conglomerability,
    definetti_example,
    walley_666_example,
)
from .envelopes import credal_polytope
from .errors import BaseNotCoherent, PrevisioError, SchemaError
from .extensions import extend
from .jsonio import (
    Problem,
    conglomerability_to_json,
    load_problem,
    parse_rational,
    rational_str,
    verdict_to_json,
    witness_to_json,
)
from .lp import Trace
from .model import restrict

CHECKERS = {
    "df-unconditional": check_df_precise_unconditional,
    "df-conditional": check_df_precise_conditional,
    "coherence-unconditional": check_coherence_unconditional,
    "w-coherence": check_w_coherence,
    "aul": check_aul,
    "bi-coherence": check_bi_coherence,
    "convex": check_convex,
    "centered-convex": check_centered_convex,
}

def _read_document(path: str) -> tuple[Any, str]:
    """The parsed document and the digest of its bytes, "sha256:<hex>"."""
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {path!r}: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw), digest
    except (ValueError, RecursionError) as exc:
        # besides malformed JSON: bytes that are not UTF-8, an integer
        # literal past Python's int-string limit, nesting deeper than
        # the stack
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _partition_family_of(problem: Problem) -> PartitionFamily:
    """The family whose cells are the conditioning events other than the
    sure event, in order, and whose members are the named variables
    assessed on every cell, in document order."""
    assessment = problem.assessment
    cells = [cond for cond in assessment.conditioning_events() if not cond.is_sure]
    if not cells:
        raise SchemaError("no conditional entries to form a partition family")
    members = []
    for variable in problem.variables.values():
        # one variable may carry several names
        if variable not in members and all(restrict(variable, c) in assessment for c in cells):
            members.append(variable)
    return PartitionFamily(problem.space, tuple(cells), tuple(members))


def _cmd_check(args: argparse.Namespace, trace: Trace) -> tuple[int, str | None, dict]:
    doc, digest = _read_document(args.file)
    problem = load_problem(doc)
    results: dict[str, Any] = {}
    if args.notion == "conglomerability":
        if not args.target or not args.cells:
            raise SchemaError("conglomerability needs --target and --cells")
        variable = problem.variable_named(args.target)
        cells = [problem.event_named(name) for name in args.cells.split(",")]
        report = check_conglomerability(problem.assessment, variable, cells)
        results["conglomerability"] = conglomerability_to_json(report)
        return (0 if report.conglomerable else 1), digest, results

    if args.notion == "separate":
        verdict = check_separate_coherence(problem.assessment, trace=trace)
    elif args.notion == "walley-asl":
        verdict = check_walley_asl(problem.assessment, _partition_family_of(problem), trace=trace)
    else:
        verdict = CHECKERS[args.notion](problem.assessment, trace=trace)
    results["verdict"] = verdict_to_json(verdict, problem)
    return (0 if verdict.passed else 1), digest, results


def _cmd_extend(args: argparse.Namespace, trace: Trace) -> tuple[int, str | None, dict]:
    doc, digest = _read_document(args.file)
    problem = load_problem(doc)
    variable = problem.variable_named(args.target)
    given = problem.event_named(args.given)
    target = restrict(variable, given)
    label = args.target if given.is_sure else f"{args.target}|{args.given}"
    try:
        result = extend(problem.assessment, target, trace=trace)
    except BaseNotCoherent as exc:
        # refused, with the losing bet of the base that `check` would print
        print(f"previsio: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        witness = witness_to_json(problem, exc.witness)
        return 2, digest, {"extension": {"target": label, "witness": witness}}
    return 0, digest, {
        "extension": {
            "target": label,
            "lower": rational_str(result.lower),
            "upper": rational_str(result.upper),
        }
    }


def _cmd_envelope(args: argparse.Namespace, trace: Trace) -> tuple[int, str | None, dict]:
    doc, digest = _read_document(args.file)
    problem = load_problem(doc)
    credal = credal_polytope(problem.assessment, delta=args.delta)
    per_entry = credal.per_entry_min(problem.assessment)
    named = {}
    for cv, value in per_entry.items():
        var_name, given = problem.names[cv]
        label = var_name if given is None else f"{var_name}|{given}"
        named[label] = rational_str(value)
    return 0, digest, {
        "envelope": {
            "vertices": [
                [rational_str(x) for x in vertex] for vertex in credal.vertices
            ],
            "perEntryMin": named,
        }
    }


def _cmd_example(args: argparse.Namespace, trace: Trace) -> tuple[int, str | None, dict]:
    if args.generator == "definetti":
        return 0, None, definetti_example(args.odd, args.even, args.n)
    return 0, None, walley_666_example(args.n)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_rational(text: str) -> Fraction:
    try:
        value = parse_rational(text)
    except SchemaError:
        value = Fraction(0)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive rational p/q, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="previsio",
        description="exact consistency checking for conditional lower previsions",
    )
    parser.add_argument(
        "--debug-lp",
        action="store_true",
        help="dump every linear program to standard error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a consistency notion")
    check.add_argument(
        "--notion",
        required=True,
        choices=sorted(CHECKERS) + ["separate", "walley-asl", "conglomerability"],
    )
    check.add_argument("-f", "--file", default="-")
    check.add_argument("--target", help="variable name (conglomerability)")
    check.add_argument("--cells", help="comma-separated event names (conglomerability)")
    check.set_defaults(run=_cmd_check)

    ext = sub.add_parser("extend", help="natural and upper extension of a target")
    ext.add_argument("-f", "--file", default="-")
    ext.add_argument("--target", required=True, help="variable name")
    ext.add_argument("--given", help="conditioning event name (default: sure event)")
    ext.set_defaults(run=_cmd_extend)

    env = sub.add_parser("envelope", help="credal polytope vertices")
    env.add_argument("-f", "--file", default="-")
    env.add_argument(
        "--delta",
        type=_positive_rational,
        help="positivity margin p/q > 0 (default: closed + filter)",
    )
    env.set_defaults(run=_cmd_envelope)

    example = sub.add_parser("example", help="generate a classical example")
    gen = example.add_subparsers(dest="generator", required=True)
    definetti = gen.add_parser("definetti")
    definetti.add_argument("--h", dest="odd", type=_positive_int, required=True)
    definetti.add_argument("--k", dest="even", type=_positive_int, required=True)
    definetti.add_argument("--n", type=_positive_int, required=True)
    walley = gen.add_parser("walley666")
    walley.add_argument("--n", type=_positive_int, required=True)
    example.set_defaults(run=_cmd_example)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace = Trace(dump=sys.stderr if args.debug_lp else None)
    started = time.monotonic()
    try:
        code, digest, results = args.run(args, trace)
    except SchemaError as exc:
        print(f"previsio: {exc}", file=sys.stderr)
        return 2
    except PrevisioError as exc:
        print(f"previsio: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        detail = str(exc).removeprefix("internal error: ")
        print(f"previsio: internal error: {detail}", file=sys.stderr)
        return 3
    report = {
        "command": list(sys.argv[1:]) if argv is None else list(argv),
        "inputDigest": digest,
        "results": results,
        "lp": {"solves": trace.solves, "maxPivots": trace.max_pivots},
        "wallTimeSeconds": round(time.monotonic() - started, 6),
    }
    try:
        json.dump(report, sys.stdout, indent=2)
        print(flush=True)
    except BrokenPipeError:
        # the reader is gone: the interpreter's last flush of what is
        # still buffered goes nowhere, and the lost report is one line
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("previsio: standard output closed before the report was written", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
