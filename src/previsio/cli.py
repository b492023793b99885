"""Command-line front end.

Subcommands: check, extend, envelope, example, oracle.  Input documents
follow the interchange schema (see jsonio); `-f -` reads standard
input, so `previsio example ... | previsio check ...` composes.  Every
run prints one JSON report on standard output.

Exit codes: 0 when the notion passed or the computation succeeded, 1
when a notion failed (the report carries a witness), 2 on usage or
input errors, 3 on an internal error (a self-check that failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Any, Sequence

from . import lp
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
from .bruteforce import find_violation_grid
from .conglomerability import (
    check_conglomerability,
    definetti_example,
    walley_666_example,
)
from .envelopes import credal_polytope
from .errors import PrevisioError, SchemaError
from .extensions import extend
from .jsonio import (
    Problem,
    conglomerability_to_json,
    dump_bundle,
    load_problem,
    parse_rational,
    rational_str,
    verdict_to_json,
    witness_to_json,
)
from .model import Assessment, restrict

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

GRID_BY_CLI_NOTION = {
    "df-unconditional": "df-precise-unconditional",
    "df-conditional": "df-precise-conditional",
    "coherence-unconditional": "coherence-unconditional",
    "w-coherence": "w-coherence",
    "aul": "aul",
    "bi-coherence": "bi-coherence",
    "convex": "convex",
}


_LAST_DIGEST: list[str | None] = [None]


def _read_document(path: str) -> tuple[Any, bytes]:
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {path!r}: {exc}") from exc
    _LAST_DIGEST[0] = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw), raw
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _family_of(problem: Problem) -> list[tuple]:
    cells = []
    grouped: dict = {}
    for entry in problem.assessment.entries:
        cond = entry.variable.cond
        if cond not in grouped:
            grouped[cond] = []
            cells.append(cond)
        grouped[cond].append(entry)
    return [
        (cell, Assessment(problem.space, tuple(grouped[cell]))) for cell in cells
    ]


def _partition_family_of(problem: Problem) -> tuple[Assessment, PartitionFamily]:
    omega = problem.space.omega()
    k_entries = []
    per_cell: dict = {}
    for entry in problem.assessment.entries:
        cond = entry.variable.cond
        if cond.is_sure:
            k_entries.append(entry)
        else:
            per_cell.setdefault(cond, {})[entry.variable] = entry
    if not per_cell:
        raise SchemaError("no conditional entries to form a partition family")
    cells = list(per_cell)
    members = []
    lower = []
    upper = []
    for name, variable in problem.variables.items():
        if variable in members:
            continue  # one variable may carry several names
        values = []
        complete = True
        for cell in cells:
            entry = per_cell[cell].get(restrict(variable, cell))
            if entry is None:
                complete = False
                break
            values.append(entry)
        if complete:
            members.append(variable)
            lower.append(tuple(e.lower for e in values))
            upper.append(tuple(e.upper for e in values))
    family = PartitionFamily(
        problem.space, tuple(cells), tuple(members), tuple(lower), tuple(upper)
    )
    k = Assessment(problem.space, tuple(k_entries))
    return k, family


def _cmd_check(args: argparse.Namespace) -> tuple[int, dict]:
    doc, raw = _read_document(args.file)
    problem = load_problem(doc)
    results: dict[str, Any] = {}
    if args.notion == "conglomerability":
        if not args.target or not args.cells:
            raise SchemaError("conglomerability needs --target and --cells")
        variable = problem.variable_named(args.target)
        cells = [problem.event_named(name) for name in args.cells.split(",")]
        report = check_conglomerability(problem.assessment, variable, cells)
        results["conglomerability"] = conglomerability_to_json(report)
        return (0 if report.conglomerable else 1), results

    if args.notion == "separate":
        verdict = check_separate_coherence(_family_of(problem))
        reference = problem.assessment
    elif args.notion == "walley-asl":
        k, family = _partition_family_of(problem)
        verdict = check_walley_asl(k if len(k) else None, family)
        reference = family.merged_assessment(k if len(k) else None)
    else:
        checker = CHECKERS[args.notion]
        verdict = checker(problem.assessment)
        reference = problem.assessment
    results["verdict"] = verdict_to_json(verdict, problem, reference)
    return (0 if verdict.passed else 1), results


def _cmd_extend(args: argparse.Namespace) -> tuple[int, dict]:
    doc, raw = _read_document(args.file)
    problem = load_problem(doc)
    variable = problem.variable_named(args.target)
    given = problem.event_named(args.given)
    target = restrict(variable, given)
    result = extend(problem.assessment, target)
    label = args.target if given.is_sure else f"{args.target}|{args.given}"
    return 0, {
        "extension": {
            "target": label,
            "lower": rational_str(result.lower),
            "upper": rational_str(result.upper),
        }
    }


def _cmd_envelope(args: argparse.Namespace) -> tuple[int, dict]:
    doc, raw = _read_document(args.file)
    problem = load_problem(doc)
    mode = "delta" if args.delta is not None else "filter"
    delta = parse_rational(args.delta) if args.delta is not None else None
    credal = credal_polytope(problem.assessment, mode=mode, delta=delta)
    per_entry = credal.per_entry_min(problem.assessment)
    named = {}
    for cv, value in per_entry.items():
        var_name, given = problem.names.get(cv, (None, None))
        if var_name is None:
            continue
        label = var_name if given is None else f"{var_name}|{given}"
        named[label] = rational_str(value)
    return 0, {
        "envelope": {
            "vertices": [
                [rational_str(x) for x in vertex] for vertex in credal.vertices
            ],
            "perEntryMin": named,
        }
    }


def _cmd_example(args: argparse.Namespace) -> tuple[int, dict]:
    if args.generator == "definetti":
        bundle = definetti_example(args.odd, args.even, args.n)
    else:
        bundle = walley_666_example(args.n)
    return 0, dump_bundle(bundle)


def _cmd_oracle(args: argparse.Namespace) -> tuple[int, dict]:
    doc, raw = _read_document(args.file)
    problem = load_problem(doc)
    notion = GRID_BY_CLI_NOTION.get(args.notion)
    if notion is None:
        raise SchemaError(f"no brute-force oracle for notion {args.notion!r}")
    checker = CHECKERS[args.notion]
    verdict = checker(problem.assessment)
    bet = find_violation_grid(
        problem.assessment, notion, max_denominator=args.max_denominator
    )
    agree = (bet is None) == verdict.passed
    results: dict[str, Any] = {
        "oracle": {
            "checker": verdict_to_json(verdict, problem, problem.assessment),
            "gridFound": bet is not None,
            "agree": agree,
        }
    }
    if bet is not None:
        results["oracle"]["gridWitness"] = witness_to_json(
            problem, bet, problem.assessment
        )
    return (0 if agree else 1), results


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
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
    env.add_argument("--delta", help="positivity margin p/q (default: closed + filter)")
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

    oracle = sub.add_parser("oracle", help="brute-force cross-check of a checker")
    oracle.add_argument("--notion", required=True, choices=sorted(GRID_BY_CLI_NOTION))
    oracle.add_argument("-f", "--file", default="-")
    oracle.add_argument("--max-denominator", type=_positive_int, default=8)
    oracle.set_defaults(run=_cmd_oracle)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    lp.counters.reset()
    lp.debug_stream = sys.stderr if args.debug_lp else None
    started = time.monotonic()
    _LAST_DIGEST[0] = None
    try:
        code, results = args.run(args)
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
    finally:
        lp.debug_stream = None
    solves, max_pivots = lp.counters.snapshot()
    report = {
        "command": list(sys.argv[1:]) if argv is None else list(argv),
        "inputDigest": _LAST_DIGEST[0],
        "results": results,
        "lp": {"solves": solves, "maxPivots": max_pivots},
        "wallTimeSeconds": round(time.monotonic() - started, 6),
    }
    json.dump(report, sys.stdout, indent=2)
    print()
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
