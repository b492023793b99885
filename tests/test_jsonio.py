from fractions import Fraction

import pytest

from previsio.checkers import check_aul, check_w_coherence
from previsio.conglomerability import definetti_example, walley_666_example
from previsio.errors import DuplicateEntry, SchemaError
from previsio.gains import gain
from previsio.jsonio import (
    dump_bundle,
    load_problem,
    parse_rational,
    rational_str,
    verdict_to_json,
    witness_from_json,
    witness_to_json,
)
from previsio.model import Assessment

F = Fraction

DOC = {
    "atoms": ["a", "b", "c"],
    "variables": {
        "X": {"a": "1", "b": "0", "c": "5"},
        "Y": {"a": "1/2", "b": "-2/3", "c": "0"},
    },
    "events": {"E": ["a", "b"]},
    "assessments": [
        {"var": "X", "given": "E", "lower": "1/3", "upper": "2/3"},
        {"var": "Y", "given": None, "lower": "-1/6"},
        {"var": "E", "given": None, "lower": "1/4"},
    ],
}


def test_parse_rational_accepts_exact_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert parse_rational(5) == F(5)
    for bad in ("0.5", "a", True, 1.5, "1/0"):
        with pytest.raises(SchemaError):
            parse_rational(bad)


def test_rational_str_is_exact():
    assert rational_str(F(1, 2)) == "1/2"
    assert rational_str(F(4, 2)) == "2"
    assert rational_str(F(-3, 9)) == "-1/3"


def test_load_problem_round_trip():
    problem = load_problem(DOC)
    assert problem.space.atoms == ("a", "b", "c")
    assert len(problem.assessment) == 3
    entry = problem.assessment.entries[0]
    assert entry.lower == F(1, 3)
    assert entry.upper == F(2, 3)
    assert entry.variable.cond == problem.events["E"]
    # events double as indicator variables
    assert problem.variables["E"].values == (F(1), F(1), F(0))


@pytest.mark.parametrize(
    "mutation",
    [
        lambda d: d.update(atoms="nope"),
        lambda d: d["assessments"].append({"var": "missing", "lower": "0"}),
        lambda d: d["assessments"].append(
            {"var": "X", "given": "unknown", "lower": "0"}
        ),
        lambda d: d["assessments"].__setitem__(
            0, {"var": "X", "given": "E", "lower": "0.5"}
        ),
        lambda d: d.__setitem__("events", {"E": ["a", "zzz"]}),
        lambda d: d.pop("assessments"),
    ],
)
def test_schema_errors(mutation):
    import copy

    doc = copy.deepcopy(DOC)
    mutation(doc)
    with pytest.raises(SchemaError):
        load_problem(doc)


@pytest.mark.parametrize(
    "raised,expected",
    [
        (DuplicateEntry("X given E is assessed twice"), SchemaError),
        (AssertionError("internal error"), AssertionError),
    ],
)
def test_only_package_errors_become_schema_errors(monkeypatch, raised, expected):
    # an internal error must not be reported as bad input
    def broken(cls, space, items):
        raise raised

    monkeypatch.setattr(Assessment, "build", classmethod(broken))
    with pytest.raises(expected):
        load_problem(DOC)


def test_witness_round_trip_reproduces_gain():
    doc = {
        "atoms": ["a", "b"],
        "events": {"Ea": ["a"], "Eb": ["b"]},
        "assessments": [
            {"var": "Ea", "lower": "3/5"},
            {"var": "Eb", "lower": "3/5"},
        ],
    }
    problem = load_problem(doc)
    verdict = check_aul(problem.assessment)
    assert not verdict.passed
    serialized = witness_to_json(problem, verdict.witness, problem.assessment)
    assert serialized["conditioning"] == ["a", "b"]
    assert all(term["stake"] == "1/2" for term in serialized["terms"])
    revived = witness_from_json(problem, serialized)
    table = gain(revived, problem.assessment)
    values = {
        atom: rational_str(table.values.value_at(atom))
        for atom in serialized["gain"]
    }
    assert values == serialized["gain"]
    assert table.sup_on_conditioning() == F(-1, 10)


def test_witness_upper_price_round_trip():
    doc = {
        "atoms": ["a", "b"],
        "events": {"Ea": ["a"]},
        "assessments": [{"var": "Ea", "lower": "2/3", "upper": "1/3"}],
    }
    problem = load_problem(doc)
    verdict = check_w_coherence(problem.assessment)
    assert not verdict.passed
    serialized = witness_to_json(problem, verdict.witness, problem.assessment)
    revived = witness_from_json(problem, serialized)
    table = gain(revived, problem.assessment)
    assert table.sup_on_conditioning() < 0


def test_verdict_json_shape():
    problem = load_problem(DOC)
    verdict = check_w_coherence(problem.assessment)
    doc = verdict_to_json(verdict, problem, problem.assessment)
    assert doc["notion"] == "w-coherence"
    assert isinstance(doc["passed"], bool)
    assert isinstance(doc["lpCount"], int)
    if not verdict.passed:
        assert "witness" in doc


def test_bundle_dump_is_loadable_and_equal():
    for bundle in (definetti_example(1, 2, 3), walley_666_example(3)):
        doc = dump_bundle(bundle)
        problem = load_problem(doc)
        assert problem.space == bundle.space
        assert set(problem.assessment.entries) == set(bundle.assessment.entries)
        assert "notes" in doc
