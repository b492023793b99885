from fractions import Fraction

import pytest

from previsio import jsonio
from previsio.checkers import check_aul, check_w_coherence
from previsio.conglomerability import walley_666_example
from previsio.errors import DuplicateEntry, SchemaError
from previsio.gains import gain
from previsio.jsonio import (
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
    # parse_rational reads the ints of the form it validates; every
    # accepted string must keep the value that Fraction(raw) parses
    accepted = {
        "3/4": F(3, 4),
        "-2": F(-2),
        "+3": F(3),
        " 3/4 ": F(3, 4),
        "\t-6/8\n": F(-3, 4),
        "007/010": F(7, 10),
        "-0": F(0),
        "0/5": F(0),
        "\u0663/\u0664": F(3, 4),  # Arabic-Indic digits
        "12345678901234567890/3": F(12345678901234567890, 3),
    }
    for raw, value in accepted.items():
        got = parse_rational(raw)
        assert got == value == F(raw) and type(got) is F
    assert parse_rational(5) == F(5)
    rejected = (
        "0.5", "a", "1/0", "1_0", "1/-2", "1e3", "0x1", "", "/", " ", "3/", "/4", "- 3",
        True, 1.5, None, [1],
    )
    for bad in rejected:
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
        # an empty name is no event, and names no sure event either
        lambda d: d["assessments"].append({"var": "X", "given": "", "lower": "0"}),
        # a present, non-null "variables" or "events" is an object, even
        # where no row reads it
        *(
            lambda d, key=key, value=value: d.update({key: value, "assessments": []})
            for key in ("variables", "events")
            for value in ([], 0, "", False)
        ),
    ],
)
def test_schema_errors(mutation):
    import copy

    doc = copy.deepcopy(DOC)
    mutation(doc)
    with pytest.raises(SchemaError):
        load_problem(doc)


def test_load_problem_parses_each_distinct_value_once(monkeypatch):
    doc = walley_666_example(2)
    values = [v for mapping in doc["variables"].values() for v in mapping.values()]
    values += [row[k] for row in doc["assessments"] for k in ("lower", "upper") if k in row]
    calls = []
    real = jsonio.parse_rational

    def spy(raw):
        calls.append(raw)
        return real(raw)

    monkeypatch.setattr(jsonio, "parse_rational", spy)
    problem = load_problem(doc)
    monkeypatch.undo()
    assert sorted(calls) == sorted(set(values)) and len(values) > 2 * len(calls)
    assert problem == load_problem(doc)


@pytest.mark.parametrize("where", ["variable", "lower", "upper"])
@pytest.mark.parametrize(
    "raw,message",
    [("1/0", "not an exact rational: '1/0'"), (True, "booleans are not rationals")],
)
def test_a_malformed_value_raises_what_parse_rational_raises(where, raw, message):
    # "1" is parsed before it, so a value equal to a parsed one (True == 1)
    # must still be refused
    import copy

    doc = copy.deepcopy(DOC)
    if where == "variable":
        doc["variables"]["X"]["b"] = raw
    else:
        doc["assessments"][1][where] = raw
    with pytest.raises(SchemaError) as raised:
        load_problem(doc)
    assert str(raised.value).endswith(message)


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
    serialized = witness_to_json(problem, verdict.witness)
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
    serialized = witness_to_json(problem, verdict.witness)
    revived = witness_from_json(problem, serialized)
    table = gain(revived, problem.assessment)
    assert table.sup_on_conditioning() < 0


def test_verdict_json_shape():
    problem = load_problem(DOC)
    verdict = check_w_coherence(problem.assessment)
    doc = verdict_to_json(verdict, problem)
    assert doc["notion"] == "w-coherence"
    assert isinstance(doc["passed"], bool)
    assert isinstance(doc["lpCount"], int)
    if not verdict.passed:
        assert "witness" in doc


@pytest.mark.parametrize(
    "term",
    [
        {"stake": "1"},  # no variable
        "Ea",  # not an object
        {"var": "Ea", "stake": "-1"},  # a negative stake
        {"var": "Ea", "stake": "1", "side": "up"},
        {"var": "Ea", "stake": "1", "price": "mid"},
        {"var": "Ea"},  # no stake
        {"var": ["Ea"], "stake": "1"},
        {"var": "Ea", "stake": "1", "given": ["Ea"]},
    ],
)
def test_a_malformed_witness_term_is_a_schema_error(term):
    problem = load_problem({"atoms": ["a", "b"], "events": {"Ea": ["a"]}, "assessments": []})
    with pytest.raises(SchemaError):
        witness_from_json(problem, {"terms": [term]})


@pytest.mark.parametrize("doc", [None, {}, {"terms": "Ea"}, {"terms": {"var": "Ea"}}])
def test_a_witness_without_a_list_of_terms_is_a_schema_error(doc):
    problem = load_problem({"atoms": ["a", "b"], "events": {"Ea": ["a"]}, "assessments": []})
    with pytest.raises(SchemaError):
        witness_from_json(problem, doc)
