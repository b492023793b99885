"""JSON interchange: problems, witnesses, verdicts and reports.

One schema crosses every tool boundary:

    {"atoms": [...],
     "variables": {name: {atom: "p/q", ...}, ...},
     "events": {name: [atom, ...], ...},
     "assessments": [{"var": name, "given": event-name or null,
                      "lower": "p/q", "upper": "p/q"?}, ...]}

Rationals are serialized exactly as "p/q" strings (integers without the
denominator), never as decimals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .checkers import Verdict
from .conglomerability import ConglomerabilityReport, ExampleBundle
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


_RATIONAL_FORM = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(raw: Any) -> Fraction:
    if isinstance(raw, bool):
        raise SchemaError("booleans are not rationals")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        if not _RATIONAL_FORM.match(raw.strip()):
            raise SchemaError(f'rationals are "p/q" strings, got {raw!r}')
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not an exact rational: {raw!r}") from exc
    raise SchemaError(f"rationals must be strings or integers, got {raw!r}")


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
        if name in self.events:
            return self.events[name]
        if name is None or name == "" or name == "Omega":
            return self.space.omega()
        raise SchemaError(f"unknown event {name!r}")

    def variable_named(self, name: str) -> RandomVariable:
        if name not in self.variables:
            raise SchemaError(f"unknown variable {name!r}")
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

    variables: dict[str, RandomVariable] = {}
    for name, mapping in (doc.get("variables") or {}).items():
        if not isinstance(mapping, dict):
            raise SchemaError(f'variable {name!r} must map atoms to rationals')
        try:
            variables[name] = space.variable(
                {a: parse_rational(v) for a, v in mapping.items()}
            )
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"variable {name!r}: {exc}") from exc

    events: dict[str, Event] = {}
    for name, listed in (doc.get("events") or {}).items():
        if not isinstance(listed, list):
            raise SchemaError(f"event {name!r} must list atoms")
        try:
            events[name] = space.event(listed)
        except KeyError as exc:
            raise SchemaError(f"event {name!r}: {exc}") from exc
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
        variable = problem.variable_named(row["var"])
        given = problem.event_named(row.get("given"))
        if given.is_empty:
            raise SchemaError("cannot condition on an empty event")
        cv = restrict(variable, given)
        lower = parse_rational(row["lower"])
        upper = parse_rational(row["upper"]) if "upper" in row and row["upper"] is not None else None
        # rows that restrict to one and the same conditional variable
        # (BX = BY makes X|B and Y|B identical) must agree and collapse
        if cv in priced and priced[cv] != (lower, upper):
            raise SchemaError(
                f'conflicting values for {row["var"]!r} given '
                f'{row.get("given") or "the sure event"!r}'
            )
        priced[cv] = (lower, upper)
        names.setdefault(cv, (row["var"], row.get("given")))
    try:
        assessment = Assessment.build(
            space, [(cv, lo, up) for cv, (lo, up) in priced.items()]
        )
    except PrevisioError as exc:
        raise SchemaError(str(exc)) from exc
    return Problem(space, variables, events, assessment, names)


def dump_bundle(bundle: ExampleBundle) -> dict:
    """Serialize a generated example in the interchange schema."""
    doc: dict[str, Any] = {"atoms": list(bundle.space.atoms)}
    doc["variables"] = {
        name: {a: rational_str(var.value_at(a)) for a in bundle.space.atoms}
        for name, var in bundle.variables.items()
    }
    doc["events"] = {
        name: list(event.atoms()) for name, event in bundle.events.items()
    }
    name_of_event = {}
    for name, event in bundle.events.items():
        name_of_event.setdefault(event, name)
    name_of_var = {}
    for name, var in bundle.variables.items():
        name_of_var.setdefault(var, name)
    rows = []
    for entry in bundle.assessment.entries:
        cond = entry.variable.cond
        filler = entry.variable.as_variable()
        var_name = None
        for name, var in bundle.variables.items():
            if restrict(var, cond) == entry.variable:
                var_name = name
                break
        if var_name is None:
            raise SchemaError("an assessed variable has no name in the bundle")
        row: dict[str, Any] = {
            "var": var_name,
            "given": None if cond.is_sure else name_of_event.get(cond),
            "lower": rational_str(entry.lower),
        }
        if row["given"] is None and not cond.is_sure:
            raise SchemaError("an assessed event has no name in the bundle")
        if entry.upper is not None:
            row["upper"] = rational_str(entry.upper)
        rows.append(row)
    doc["assessments"] = rows
    if bundle.notes:
        doc["notes"] = list(bundle.notes)
    doc["cells"] = [
        name for name, event in bundle.events.items() if event in bundle.cells
    ]
    doc["target"] = bundle.target
    return doc


# ---------------------------------------------------------------------------
# witnesses and verdicts


def _term_name(problem: Problem, cv: ConditionalVariable) -> tuple[str, str | None]:
    named = problem.names.get(cv)
    if named is not None:
        return named
    # fall back to any (variable, event) pair that restricts to cv
    for ev_name, event in list(problem.events.items()) + [("Omega", problem.space.omega())]:
        if event == cv.cond:
            for var_name, var in problem.variables.items():
                if restrict(var, event) == cv:
                    return var_name, None if event.is_sure else ev_name
    raise SchemaError("cannot name a witness variable in this document")


def witness_to_json(problem: Problem, bet: Bet, assessment: Assessment) -> dict:
    table = gain(bet, assessment)
    terms = []
    for term in bet.terms:
        var_name, given = _term_name(problem, term.variable)
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
    if not isinstance(doc, dict) or "terms" not in doc:
        raise SchemaError("a witness needs a list of terms")
    terms = []
    for row in doc["terms"]:
        variable = problem.variable_named(row["var"])
        given = problem.event_named(row.get("given"))
        terms.append(
            BetTerm(
                restrict(variable, given),
                parse_rational(row["stake"]),
                row.get("side", "for"),
                row.get("price", "lower"),
            )
        )
    return Bet(tuple(terms))


def verdict_to_json(
    verdict: Verdict, problem: Problem | None = None, assessment: Assessment | None = None
) -> dict:
    doc: dict[str, Any] = {
        "notion": verdict.notion,
        "passed": verdict.passed,
        "lpCount": verdict.lp_count,
    }
    if verdict.witness is not None and problem is not None and assessment is not None:
        doc["witness"] = witness_to_json(problem, verdict.witness, assessment)
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
