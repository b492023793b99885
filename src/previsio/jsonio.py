"""JSON interchange: problems, witnesses, verdicts and reports.

One schema crosses every tool boundary:

    {"atoms": [...],
     "variables": {name: {atom: "p/q", ...}, ...},
     "events": {name: [atom, ...], ...},
     "assessments": [{"var": name, "given": event-name or null,
                      "lower": "p/q", "upper": "p/q"?}, ...]}

Rationals are serialized exactly as "p/q" strings (integers without the
denominator), never as decimals.  `load_problem` is the one way from
names to an assessment: documents read from a file and the classical
examples that the conglomerability generators write alike.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .checkers import Verdict
from .conglomerability import ConglomerabilityReport
from .errors import PrevisioError, SchemaError
from .gains import Bet, BetTerm, gain
from .model import (
    Assessment,
    ConditionalVariable,
    Event,
    PossibilitySpace,
    RandomVariable,
    restrict,
)


_RATIONAL_FORM = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")

# a value echoed in an error message is cut short: a document may hold
# thousands of digits
_ECHO = reprlib.Repr()
_ECHO.maxstring = _ECHO.maxother = 60


def _cut(text: str) -> str:
    """`text` cut short in its middle, as `_ECHO` cuts a string."""
    if len(text) <= _ECHO.maxstring:
        return text
    head = (_ECHO.maxstring - 3) // 2
    return text[:head] + "..." + text[len(text) - (_ECHO.maxstring - 3 - head):]


def parse_rational(raw: Any) -> Fraction:
    if isinstance(raw, str):
        form = _RATIONAL_FORM.match(raw.strip())
        if not form:
            raise SchemaError(f'rationals are "p/q" strings, got {_ECHO.repr(raw)}')
        numerator, denominator = form.groups()
        try:
            # int() reads every digit that `\d` matches, and a sign, so
            # this is the value that Fraction(raw) parses
            return Fraction(int(numerator), int(denominator or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not an exact rational: {_ECHO.repr(raw)}") from exc
    if isinstance(raw, bool):
        raise SchemaError("booleans are not rationals")
    if isinstance(raw, int):
        return Fraction(raw)
    raise SchemaError(f"rationals must be strings or integers, got {_ECHO.repr(raw)}")


def rational_str(value: Fraction) -> str:
    return str(value)


@dataclass(frozen=True)
class Problem:
    """A parsed document: the space plus named variables and events, the
    assessment, and reverse lookup for serializing witnesses."""

    space: PossibilitySpace
    variables: Mapping[str, RandomVariable]
    events: Mapping[str, Event]
    assessment: Assessment
    names: Mapping[ConditionalVariable, tuple[str, str | None]]

    def event_named(self, name: str | None) -> Event:
        """The event of that name; else the sure event for None or
        "Omega", and a `SchemaError` for any other name, "" included."""
        if name in self.events:
            return self.events[name]
        if name is None or name == "Omega":
            return self.space.omega()
        if name == "":
            raise SchemaError("an empty name names no event; the sure event is null or omitted")
        raise SchemaError(f"unknown event {_ECHO.repr(name)}")

    def variable_named(self, name: str) -> RandomVariable:
        if name not in self.variables:
            raise SchemaError(f"unknown variable {_ECHO.repr(name)}")
        return self.variables[name]


def load_problem(doc: Any) -> Problem:
    if not isinstance(doc, dict):
        raise SchemaError("the document must be a JSON object")
    if "atoms" not in doc and isinstance(doc.get("results"), dict):
        # a generator's run report wraps the document; unwrap so that
        # command pipelines compose without editing
        if "atoms" in doc["results"]:
            doc = doc["results"]
    atoms = doc.get("atoms")
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise SchemaError('"atoms" must be a list of strings')
    try:
        space = PossibilitySpace(tuple(atoms))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    # most values of a document repeat ("0", "1", "1/2"): each distinct
    # string is parsed once
    parsed: dict[str, Fraction] = {}

    def rational(raw: Any) -> Fraction:
        if not isinstance(raw, str):
            return parse_rational(raw)
        value = parsed.get(raw)
        if value is None:
            value = parsed[raw] = parse_rational(raw)
        return value

    variables: dict[str, RandomVariable] = {}
    for key in ("variables", "events"):
        if not isinstance(doc.get(key, {}), (dict, type(None))):
            raise SchemaError(f'"{key}" must be an object of named entries')
    for name, mapping in (doc.get("variables") or {}).items():
        if not isinstance(mapping, dict):
            raise SchemaError(f"variable {_ECHO.repr(name)} must map atoms to rationals")
        try:
            variables[name] = space.variable(
                {a: rational(v) for a, v in mapping.items()}
            )
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"variable {_ECHO.repr(name)}: {_cut(str(exc))}") from exc

    events: dict[str, Event] = {}
    for name, listed in (doc.get("events") or {}).items():
        if not isinstance(listed, list):
            raise SchemaError(f"event {_ECHO.repr(name)} must list atoms")
        try:
            events[name] = space.event(listed)
        except KeyError as exc:
            raise SchemaError(f"event {_ECHO.repr(name)}: {_cut(str(exc))}") from exc
        # events double as 0/1 variables when referenced by name
        if name not in variables:
            variables[name] = space.indicator(events[name])

    priced: dict[ConditionalVariable, tuple[Fraction, Fraction | None]] = {}
    names: dict[ConditionalVariable, tuple[str, str | None]] = {}
    problem = Problem(space, variables, events, Assessment(space, ()), names)
    rows = doc.get("assessments")
    if not isinstance(rows, list):
        raise SchemaError('"assessments" must be a list')
    for row in rows:
        if not isinstance(row, dict) or "var" not in row or "lower" not in row:
            raise SchemaError('each assessment needs "var" and "lower"')
        if not isinstance(row["var"], str) or not isinstance(row.get("given"), (str, type(None))):
            raise SchemaError('"var" must name a variable, and "given" an event or null')
        variable = problem.variable_named(row["var"])
        given = problem.event_named(row.get("given"))
        if given.is_empty:
            raise SchemaError("cannot condition on an empty event")
        cv = restrict(variable, given)
        lower = rational(row["lower"])
        upper = rational(row["upper"]) if "upper" in row and row["upper"] is not None else None
        # rows that restrict to one and the same conditional variable
        # (BX = BY makes X|B and Y|B identical) must agree and collapse
        if priced.setdefault(cv, (lower, upper)) != (lower, upper):
            raise SchemaError(
                f'conflicting values for {_ECHO.repr(row["var"])} given '
                f'{_ECHO.repr(row.get("given") or "the sure event")}'
            )
        names.setdefault(cv, (row["var"], row.get("given")))
    try:
        assessment = Assessment.build(
            space, [(cv, lo, up) for cv, (lo, up) in priced.items()]
        )
    except PrevisioError as exc:
        raise SchemaError(str(exc)) from exc
    return Problem(space, variables, events, assessment, names)


# ---------------------------------------------------------------------------
# witnesses and verdicts


def witness_to_json(problem: Problem, bet: Bet) -> dict:
    """The bet and its gain, each term named by the document row that
    prices its variable; `gain` refuses a term the problem does not
    price."""
    table = gain(bet, problem.assessment)
    terms = []
    for term in bet.terms:
        var_name, given = problem.names[term.variable]
        row = {
            "var": var_name,
            "given": given,
            "stake": rational_str(term.stake),
            "side": term.side,
        }
        if term.price != "lower":
            row["price"] = term.price
        terms.append(row)
    return {
        "terms": terms,
        "gain": {
            problem.space.atoms[i]: rational_str(table.values.values[i])
            for i in sorted(table.conditioning.members)
        },
        "conditioning": list(table.conditioning.atoms()),
        "support": list(table.support.atoms()),
    }


def witness_from_json(problem: Problem, doc: Any) -> Bet:
    if not isinstance(doc, dict) or not isinstance(doc.get("terms"), list):
        raise SchemaError("a witness needs a list of terms")
    terms = []
    for row in doc["terms"]:
        if not (
            isinstance(row, dict) and isinstance(row.get("var"), str) and "stake" in row
            and isinstance(row.get("given"), (str, type(None)))
        ):
            raise SchemaError('a witness term needs "var" and "stake", and "given" an event or null')
        variable = problem.variable_named(row["var"])
        given = problem.event_named(row.get("given"))
        stake = parse_rational(row["stake"])
        try:
            terms.append(BetTerm(
                restrict(variable, given), stake, row.get("side", "for"), row.get("price", "lower")
            ))
        except ValueError as exc:
            raise SchemaError(f"witness term: {_cut(str(exc))}") from exc
    return Bet(tuple(terms))


def verdict_to_json(verdict: Verdict, problem: Problem) -> dict:
    doc: dict[str, Any] = {
        "notion": verdict.notion,
        "passed": verdict.passed,
        "lpCount": verdict.lp_count,
    }
    if verdict.witness is not None:
        doc["witness"] = witness_to_json(problem, verdict.witness)
    if verdict.prerequisite_failure is not None:
        doc["prerequisiteFailure"] = verdict.prerequisite_failure
    if verdict.structural_failure is not None:
        doc["structuralFailure"] = verdict.structural_failure
    return doc


def conglomerability_to_json(report: ConglomerabilityReport) -> dict:
    return {
        "value": rational_str(report.value),
        "cellValues": [rational_str(v) for v in report.cell_values],
        "infCell": rational_str(report.inf_cell),
        "supCell": rational_str(report.sup_cell),
        "conglomerable": report.conglomerable,
        "gap": rational_str(report.gap),
        "lowerCondition": report.lower_condition,
    }
