import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import previsio
from previsio import checkers, cli
from previsio.cli import run
from previsio.extensions import extend
from previsio.gains import UPPER, Bet, against, gain
from previsio.jsonio import load_problem, rational_str, witness_from_json
from previsio.lp import Trace


def invoke(argv, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr(
            "sys.stdin", type("S", (), {"buffer": io.BytesIO(stdin_text.encode())})()
        )
    with redirect_stdout(out):
        code = run(argv)
    text = out.getvalue()
    report = json.loads(text) if text.strip() else None
    return code, report


VACUOUS = json.dumps(
    {
        "atoms": ["a", "b"],
        "events": {"Ea": ["a"], "Eb": ["b"]},
        "assessments": [
            {"var": "Ea", "lower": "0"},
            {"var": "Eb", "lower": "0"},
        ],
    }
)


def test_check_pass_exit_zero(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    path.write_text(VACUOUS)
    code, report = invoke(["check", "--notion", "w-coherence", "-f", str(path)])
    assert code == 0
    assert report["results"]["verdict"]["passed"] is True
    assert report["results"]["verdict"]["lpCount"] > 0
    assert report["inputDigest"].startswith("sha256:")
    assert report["lp"]["solves"] == report["results"]["verdict"]["lpCount"]


def test_check_fail_exit_one_with_witness(monkeypatch):
    code, report = invoke(
        ["check", "--notion", "bi-coherence", "-f", "-"],
        stdin_text=VACUOUS,
        monkeypatch=monkeypatch,
    )
    assert code == 1
    witness = report["results"]["verdict"]["witness"]
    assert witness["terms"]
    gains = set(witness["gain"].values())
    assert gains == {"-1/2"}


def test_check_usage_error_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report = invoke(["check", "--notion", "aul", "-f", str(path)])
    assert code == 2
    assert report is None


def test_internal_error_exit_three(monkeypatch, capsys):
    def broken(assessment, *, trace=None):
        raise AssertionError("internal error: witness gain is not negative")

    monkeypatch.setitem(cli.CHECKERS, "w-coherence", broken)
    code, report = invoke(
        ["check", "--notion", "w-coherence", "-f", "-"],
        stdin_text=VACUOUS,
        monkeypatch=monkeypatch,
    )
    assert code == 3
    assert report is None
    assert capsys.readouterr().err == (
        "previsio: internal error: witness gain is not negative\n"
    )


# a witness the re-check refuses or cannot price is an internal error,
# not bad input: a bet of no terms, which gains 0, and a term priced at
# an upper value that the lower-only document lacks
REFUSED_WITNESSES = {
    "empty-bet": (lambda search: Bet(()), "witness gain is not negative"),
    "unassessed-upper": (
        lambda search: Bet.of(against(search.elements[0].terms[0][0], 1, UPPER)),
        "witness cannot be priced: term is priced at the upper prevision, but none is assessed",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSED_WITNESSES))
def test_a_witness_the_recheck_refuses_exits_three(name, monkeypatch, capsys):
    witness, message = REFUSED_WITNESSES[name]
    monkeypatch.setattr(checkers._Search, "run", lambda search, combos, given=(): witness(search))
    code, report = invoke(
        ["check", "--notion", "aul", "-f", "-"], stdin_text=VACUOUS, monkeypatch=monkeypatch
    )
    assert code == 3
    assert report is None
    assert capsys.readouterr().err == f"previsio: internal error: {message}\n"


def test_unknown_notion_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["check", "--notion", "nonsense", "-f", "-"])
    assert exc.value.code == 2


def test_the_subcommands_are_pinned():
    # the stake grid is a test oracle (tests/grid_oracle.py), not a command
    (commands,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(commands.choices) == {"check", "extend", "envelope", "example"}


def test_the_oracle_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["oracle", "--notion", "aul", "-f", "-"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: previsio ")
    assert "invalid choice: 'oracle'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["example", "definetti", "--h", "0", "--k", "1", "--n", "2"],
        ["example", "definetti", "--h", "1", "--k", "-1", "--n", "2"],
        ["example", "definetti", "--h", "1", "--k", "1", "--n", "two"],
        ["example", "walley666", "--n", "0"],
    ],
)
def test_nonpositive_counts_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def _child_env():
    """The environment of a child interpreter that imports this previsio."""
    src = str(Path(previsio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(VACUOUS)
    env = _child_env()
    argv = [sys.executable, "-m", "previsio.cli", "check", "--notion"]
    passing = subprocess.run(
        argv + ["w-coherence", "-f", str(path)], capture_output=True, text=True, env=env
    )
    assert passing.returncode == 0, passing.stderr
    assert json.loads(passing.stdout)["results"]["verdict"]["passed"] is True
    failing = subprocess.run(
        argv + ["bi-coherence", "-f", str(path)], capture_output=True, text=True, env=env
    )
    assert failing.returncode == 1, failing.stderr
    assert json.loads(failing.stdout)["results"]["verdict"]["witness"]["terms"]


def test_a_closed_standard_output_exits_two():
    # the report of walley666 at n = 40 is 235,626 bytes, more than a
    # pipe holds: the writer is still writing when the reader leaves
    argv = [sys.executable, "-m", "previsio.cli", "example", "walley666", "--n", "40"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()
    ) as child:
        assert len(child.stdout.read(16)) == 16
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 2
    assert err.count("\n") == 1 and err.startswith("previsio: ")
    assert "Traceback" not in err and "Exception ignored" not in err


# sha256 of `json.dumps(report["results"])`: the documents that
# `previsio example` prints, byte for byte
EXAMPLE_SHA256 = {
    ("definetti", "--h", "1", "--k", "1", "--n", "3"):
        "210e43a1270dcedcc38089d4b8c68b13693dc2c150c39a550c23c72449045537",
    ("definetti", "--h", "1", "--k", "2", "--n", "4"):
        "cdd5ce069599f09d199a4f71c732ddd35525513b14980b2aff0286115da625b3",
    ("definetti", "--h", "2", "--k", "1", "--n", "3"):
        "dccaffd093bcb03ede4ad8d9f6eb1fc0735ef6b9c82767a7694d9eb2ba467801",
    ("definetti", "--h", "2", "--k", "2", "--n", "2"):
        "0eb91cac0f33b0f3d309e03c4c8eab5eaf12d144ea9761bd8c88987120d736ca",
    ("definetti", "--h", "3", "--k", "1", "--n", "2"):
        "5d68050cfff3123234b8ecd0c58b9e9c25f9e7ccbb4126c45e89c71a18d7871e",
    ("walley666", "--n", "1"):
        "19eb249de60ecd84ef25ac3803ef8248cb801d412116d681f60064b1dd9d2d45",
    ("walley666", "--n", "2"):
        "2cffeb41aab1c41756cc714fc84a531c1c3a25a32af7001d2c9067f07ebdf58b",
    ("walley666", "--n", "4"):
        "92f0c334a3a14b5176203a35270e2b9c22ae8d2b0f28ec0bc12d4453dff84644",
}


@pytest.mark.parametrize("argv,digest", EXAMPLE_SHA256.items())
def test_example_documents_are_pinned_and_load(argv, digest):
    code, report = invoke(["example", *argv])
    assert code == 0
    doc = report["results"]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest
    problem = load_problem(doc)
    assert doc["cells"] and set(doc["cells"]) <= problem.events.keys()
    assert doc["target"] in doc["variables"]


def test_example_pipes_into_check(monkeypatch):
    code, report = invoke(["example", "definetti", "--h", "1", "--k", "2", "--n", "4"])
    assert code == 0
    doc = report["results"]
    assert doc["assessments"]
    # the raw report pipes into check without editing
    code, checked = invoke(
        ["check", "--notion", "df-conditional", "-f", "-"],
        stdin_text=json.dumps(report),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert checked["results"]["verdict"]["passed"] is True


def test_example_walley666_aul(monkeypatch):
    code, report = invoke(["example", "walley666", "--n", "3"])
    assert code == 0
    doc = report["results"]
    code, report = invoke(
        ["check", "--notion", "aul", "-f", "-"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 0


def test_conglomerability_subcommand(monkeypatch):
    code, report = invoke(["example", "definetti", "--h", "1", "--k", "2", "--n", "4"])
    doc = report["results"]
    code, report = invoke(
        [
            "check",
            "--notion",
            "conglomerability",
            "-f",
            "-",
            "--target",
            "A",
            "--cells",
            "B1,B2,B3,B4",
        ],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 1  # not conglomerable over the listed cells
    body = report["results"]["conglomerability"]
    assert body["gap"] == "1/6"
    assert body["infCell"] == body["supCell"] == "1/3"


@pytest.mark.parametrize("cells", ["B1,B2,B3,", "B1,,B2,B3"])
def test_conglomerability_refuses_an_empty_cell_name(cells, tmp_path, capsys):
    # an empty name would be read as the sure event: an extra cell whose
    # value is mu(A) itself, which closes the gap of 1/6
    assert run(["example", "definetti", "--h", "1", "--k", "2", "--n", "3"]) == 0
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(json.loads(capsys.readouterr().out)["results"]))
    argv = ["check", "--notion", "conglomerability", "-f", str(path), "--target", "A"]
    assert run([*argv, "--cells", "B1,B2,B3"]) == 1
    assert json.loads(capsys.readouterr().out)["results"]["conglomerability"]["gap"] == "1/6"
    assert run([*argv, "--cells", cells]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "empty name" in captured.err


@pytest.mark.parametrize("cells", ["B1,Omega", "B1,B1"])
def test_conglomerability_refuses_overlapping_cells(cells, tmp_path, capsys):
    # Omega beside B1 would close the gap of 1/6; B1 twice would report
    # it over cells that are no partition
    assert run(["example", "definetti", "--h", "1", "--k", "2", "--n", "3"]) == 0
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(json.loads(capsys.readouterr().out)["results"]))
    argv = ["check", "--notion", "conglomerability", "-f", str(path), "--target", "A"]
    assert run([*argv, "--cells", cells]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "InvalidPartition: cells overlap" in captured.err


def test_extend_subcommand(monkeypatch):
    doc = {
        "atoms": ["a", "b"],
        "variables": {"X": {"a": "3", "b": "1"}},
        "events": {"Ea": ["a"]},
        "assessments": [{"var": "Ea", "lower": "1/4"}],
    }
    code, report = invoke(
        ["extend", "-f", "-", "--target", "X"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    body = report["results"]["extension"]
    assert body["target"] == "X"
    # X = 1 + 2*Ea, so homogeneity and additivity pin both bounds
    assert body["lower"] == "3/2"
    assert body["upper"] == "3/2"


def test_extend_subcommand_on_a_conditional_reproducer(monkeypatch):
    # the upper extension, -69/56, lies above the -3/2 that the programs
    # of every support union give; the bound is certified, so exit 0
    atoms = [f"w{i}" for i in range(6)]

    def variable(values):
        return {a: values.get(a, "0") for a in atoms}

    doc = {
        "atoms": atoms,
        "variables": {
            "X1": variable({"w0": "3", "w2": "3/2", "w3": "1/2", "w4": "1", "w5": "2"}),
            "X2": variable({"w0": "1", "w3": "-1", "w5": "1/2"}),
            "X3": variable({"w0": "1", "w1": "-3", "w3": "-1/2"}),
            "T": variable({"w0": "-1", "w1": "-3/2", "w2": "-3/2", "w4": "-3"}),
        },
        "events": {
            "B1": ["w0", "w2", "w3", "w4", "w5"],
            "B2": ["w0", "w3", "w5"],
            "B3": ["w0", "w1", "w3"],
            "B": ["w0", "w1", "w2", "w4"],
        },
        "assessments": [
            {"var": "X1", "given": "B1", "lower": "11/8"},
            {"var": "X2", "given": "B2", "lower": "-1/8"},
            {"var": "X3", "given": "B3", "lower": "-6/7"},
        ],
    }
    code, report = invoke(
        ["extend", "-f", "-", "--target", "T", "--given", "B"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    body = report["results"]["extension"]
    assert body == {"target": "T|B", "lower": "-3", "upper": "-69/56"}


def test_extend_reports_the_account_of_the_library_call(monkeypatch):
    doc = {
        "atoms": ["a", "b", "c"],
        "variables": {"X": {"a": "2", "b": "-1", "c": "1"}},
        "events": {"Ea": ["a"], "Eab": ["a", "b"]},
        "assessments": [
            {"var": "Ea", "lower": "1/4", "upper": "1/2"},
            {"var": "X", "given": "Eab", "lower": "0"},
        ],
    }
    code, report = invoke(
        ["extend", "-f", "-", "--target", "X"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    problem = load_problem(doc)
    trace = Trace()
    result = extend(problem.assessment, problem.variable_named("X").unconditional(), trace=trace)
    assert report["results"]["extension"]["lower"] == rational_str(result.lower)
    assert report["results"]["extension"]["upper"] == rational_str(result.upper)
    assert report["lp"] == {"solves": trace.solves, "maxPivots": trace.max_pivots}
    assert trace.solves > 3


def test_extend_refuses_an_empty_given(monkeypatch, capsys):
    # an empty name names no event: the sure event is --given left out
    doc = {
        "atoms": ["a", "b"],
        "variables": {"X": {"a": "2", "b": "-1"}},
        "events": {"Ea": ["a"]},
        "assessments": [{"var": "Ea", "lower": "1/4", "upper": "1/2"}],
    }
    argv = ["extend", "-f", "-", "--target", "X"]
    code, report = invoke([*argv, "--given", ""], json.dumps(doc), monkeypatch)
    assert (code, report) == (2, None)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "empty name" in err
    code, report = invoke(argv, json.dumps(doc), monkeypatch)
    assert code == 0 and report["results"]["extension"]["target"] == "X"


def test_envelope_subcommand(monkeypatch):
    doc = {
        "atoms": ["a", "b"],
        "events": {"Ea": ["a"], "Eb": ["b"]},
        "assessments": [
            {"var": "Ea", "lower": "3/10"},
            {"var": "Eb", "lower": "2/5"},
        ],
    }
    code, report = invoke(
        ["envelope", "-f", "-"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch
    )
    assert code == 0
    body = report["results"]["envelope"]
    assert sorted(body["vertices"]) == [["3/10", "7/10"], ["3/5", "2/5"]]
    assert body["perEntryMin"] == {"Ea": "3/10", "Eb": "2/5"}


def test_envelope_of_a_precise_entry(monkeypatch):
    doc = {
        "atoms": ["a", "b", "c"],
        "events": {"Ea": ["a"]},
        "assessments": [{"var": "Ea", "lower": "1/2", "upper": "1/2"}],
    }
    code, report = invoke(
        ["envelope", "-f", "-"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch
    )
    assert code == 0
    body = report["results"]["envelope"]
    assert sorted(body["vertices"]) == [["1/2", "0", "1/2"], ["1/2", "1/2", "0"]]
    assert body["perEntryMin"] == {"Ea": "1/2"}


CONDITIONAL_ENVELOPE = json.dumps(
    {
        "atoms": ["a", "b", "c", "d"],
        "variables": {"X": {"a": "1", "b": "3", "c": "0", "d": "2"}},
        "events": {"Ea": ["a"], "B": ["a", "b", "c"], "C": ["b", "d"]},
        "assessments": [
            {"var": "Ea", "given": "B", "lower": "1/4", "upper": "2/3"},
            {"var": "X", "given": "C", "lower": "5/2"},
            {"var": "X", "lower": "1"},
        ],
    }
)


@pytest.mark.parametrize(
    "flags,vertices",
    [
        (
            [],
            [
                ["1/7", "3/7", "0", "3/7"],
                ["4/19", "3/19", "9/19", "3/19"],
                ["1/4", "1/4", "1/2", "0"],
                ["1/4", "3/4", "0", "0"],
                ["1/2", "1/4", "0", "1/4"],
                ["8/13", "1/13", "3/13", "1/13"],
                ["2/3", "1/9", "2/9", "0"],
                ["2/3", "1/3", "0", "0"],
            ],
        ),
        (
            ["--delta", "1/5"],
            [
                ["1/7", "3/7", "0", "3/7"],
                ["4/19", "3/19", "9/19", "3/19"],
                ["1/4", "1/4", "1/2", "0"],
                ["1/4", "3/4", "0", "0"],
                ["2/5", "1/5", "2/5", "0"],
                ["1/2", "1/10", "3/10", "1/10"],
                ["1/2", "1/4", "0", "1/4"],
                ["3/5", "1/10", "1/5", "1/10"],
                ["2/3", "1/5", "2/15", "0"],
                ["2/3", "1/3", "0", "0"],
            ],
        ),
    ],
    ids=["filter", "delta"],
)
def test_envelope_vertex_order_is_pinned(flags, vertices, monkeypatch):
    # vertices come sorted by their rationals, coordinate by coordinate,
    # which is not the order of their strings
    code, report = invoke(
        ["envelope", "-f", "-", *flags],
        stdin_text=CONDITIONAL_ENVELOPE,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    body = report["results"]["envelope"]
    assert body["vertices"] == vertices
    assert body["perEntryMin"] == {"Ea|B": "1/4", "X|C": "5/2", "X": "1"}


@pytest.mark.parametrize("delta", ["0", "-1/2", "abc", "1/0"])
def test_nonpositive_delta_exits_two(delta, tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(CONDITIONAL_ENVELOPE)
    with pytest.raises(SystemExit) as exc:
        run(["envelope", "-f", str(path), f"--delta={delta}"])
    assert exc.value.code == 2
    assert "expected a positive rational" in capsys.readouterr().err


def test_extend_keeps_an_assessed_upper_value(monkeypatch):
    # P(Ea) in [1/4, 1/2]: a lower value above 1/2 would exceed the
    # assessed upper one, so the upper extension is 1/2, not 1
    doc = {
        "atoms": ["a", "b"],
        "events": {"Ea": ["a"]},
        "assessments": [{"var": "Ea", "lower": "1/4", "upper": "1/2"}],
    }
    code, report = invoke(
        ["extend", "-f", "-", "--target", "Ea"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert report["results"]["extension"] == {"target": "Ea", "lower": "1/4", "upper": "1/2"}


def test_input_digest_belongs_to_its_own_run(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(VACUOUS)
    code, report = invoke(["check", "--notion", "w-coherence", "-f", str(path)])
    assert code == 0
    assert report["inputDigest"] == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    code, report = invoke(["example", "walley666", "--n", "1"])
    assert code == 0
    assert report["inputDigest"] is None


def test_separate_notion_via_cli(monkeypatch):
    doc = {
        "atoms": ["a", "b", "c"],
        "events": {"L": ["a", "b"], "R": ["c"]},
        "assessments": [
            {"var": "L", "given": "L", "lower": "1"},
            {"var": "R", "given": "R", "lower": "1"},
        ],
    }
    code, report = invoke(
        ["check", "--notion", "separate", "-f", "-"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert report["results"]["verdict"]["passed"] is True
    assert report["lp"]["solves"] == report["results"]["verdict"]["lpCount"] > 0


WALLEY_ASL_DOC = {
    "atoms": ["a", "b"],
    "variables": {
        "zero": {"a": "0", "b": "0"},
        "X": {"a": "1", "b": "0"},
    },
    "events": {"L": ["a"], "R": ["b"]},
    "assessments": [
        {"var": "zero", "given": "L", "lower": "0", "upper": "0"},
        {"var": "zero", "given": "R", "lower": "0", "upper": "0"},
        {"var": "L", "given": "L", "lower": "1", "upper": "1"},
        {"var": "L", "given": "R", "lower": "0", "upper": "0"},
        {"var": "R", "given": "L", "lower": "0", "upper": "0"},
        {"var": "R", "given": "R", "lower": "1", "upper": "1"},
        {"var": "X", "given": "L", "lower": "1", "upper": "1"},
        {"var": "X", "given": "R", "lower": "0", "upper": "0"},
        {"var": "X", "lower": "1/2", "upper": "1/2"},
    ],
}


def test_walley_asl_via_cli(monkeypatch):
    code, report = invoke(
        ["check", "--notion", "walley-asl", "-f", "-"],
        stdin_text=json.dumps(WALLEY_ASL_DOC),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert report["results"]["verdict"]["passed"] is True
    assert report["lp"]["solves"] == report["results"]["verdict"]["lpCount"] > 1


SOLD_CELLWISE_DOC = {
    "atoms": ["a", "b", "c", "d"],
    "variables": {
        "zero": {"a": "0", "b": "0", "c": "0", "d": "0"},
        "X": {"a": "1", "b": "0", "c": "1", "d": "0"},
    },
    "events": {"L": ["a", "b"], "R": ["c", "d"]},
    "assessments": [
        {"var": "zero", "given": "L", "lower": "0", "upper": "0"},
        {"var": "zero", "given": "R", "lower": "0", "upper": "0"},
        {"var": "L", "given": "L", "lower": "1", "upper": "1"},
        {"var": "L", "given": "R", "lower": "0", "upper": "0"},
        {"var": "R", "given": "L", "lower": "0", "upper": "0"},
        {"var": "R", "given": "R", "lower": "1", "upper": "1"},
        {"var": "X", "given": "L", "lower": "1/2", "upper": "1/2"},
        {"var": "X", "given": "R", "lower": "1/2", "upper": "1/2"},
        {"var": "X", "lower": "9/10"},
    ],
}


def test_walley_asl_sells_a_precise_member(monkeypatch):
    # X is bought outright at 9/10 and sold on each cell at its precise
    # value 1/2: a sure loss of 1/5 at stakes 1/2
    code, report = invoke(
        ["check", "--notion", "walley-asl", "-f", "-"],
        stdin_text=json.dumps(SOLD_CELLWISE_DOC),
        monkeypatch=monkeypatch,
    )
    assert code == 1
    verdict = report["results"]["verdict"]
    assert "prerequisiteFailure" not in verdict
    assert verdict["witness"]["terms"] == [
        {"var": "X", "given": None, "stake": "1/2", "side": "for"},
        {"var": "X", "given": "L", "stake": "1/2", "side": "against", "price": "upper"},
        {"var": "X", "given": "R", "stake": "1/2", "side": "against", "price": "upper"},
    ]
    assert verdict["witness"]["gain"] == dict.fromkeys("abcd", "-1/5")
    code, _ = invoke(
        ["check", "--notion", "aul", "-f", "-"],
        stdin_text=json.dumps(SOLD_CELLWISE_DOC),
        monkeypatch=monkeypatch,
    )
    assert code == 1


def test_walley_asl_refuses_a_variable_not_assessed_on_every_cell(tmp_path, capsys):
    # Y is priced on L alone, above its supremum there: no family member
    # stands for it, so the family is refused rather than checked without Y
    doc = json.loads(json.dumps(WALLEY_ASL_DOC))
    doc["variables"]["Y"] = {"a": "5", "b": "-5"}
    doc["assessments"].append({"var": "Y", "given": "L", "lower": "99"})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(["check", "--notion", "walley-asl", "-f", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "MalformedFamily" in captured.err
    assert run(["check", "--notion", "w-coherence", "-f", str(path)]) == 1


def test_centered_convex_reports_a_zero_not_valued_zero(monkeypatch):
    doc = {
        "atoms": ["a", "b"],
        "variables": {"zero": {"a": "0", "b": "0"}},
        "assessments": [{"var": "zero", "lower": "1/2"}],
    }
    code, report = invoke(
        ["check", "--notion", "centered-convex", "-f", "-"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 1
    verdict = report["results"]["verdict"]
    assert verdict["structuralFailure"] == "0|{a,b} valued 1/2"
    assert "witness" not in verdict


def test_walley_asl_reports_an_incoherent_side_assessment(monkeypatch):
    # Y is 1 everywhere, so its lower prevision 2 is no coherent one
    doc = json.loads(json.dumps(WALLEY_ASL_DOC))
    doc["variables"]["Y"] = {"a": "1", "b": "1"}
    doc["assessments"].append({"var": "Y", "lower": "2"})
    code, report = invoke(
        ["check", "--notion", "walley-asl", "-f", "-"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 1
    verdict = report["results"]["verdict"]
    assert verdict["prerequisiteFailure"] == "unconditional part is not coherent"
    assert verdict["witness"]["terms"]


def test_debug_lp_dumps_programs(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(VACUOUS)
    code = run(["--debug-lp", "check", "--notion", "aul", "-f", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "max" in captured.err
    assert "<=" in captured.err


DEBUG_LP_SHA256 = {
    ("check", "--notion", "w-coherence"):
        "1f1086ebfa5931f16e40fa2dda00de808cb9b5c758da0fd4ea99a721cc1ad466",
    ("check", "--notion", "convex"):
        "c0431594cda41332c6495830b9199aad1a647d79ede4d6c145ff7ff01ca7f63a",
    ("extend", "--target", "A"):
        "7c0f7e59c6ea953a115a318627db67d3af74f0bf9175489340311ff48bb18d7a",
    ("extend", "--target", "A", "--given", "Brest"):
        "a6f685b98494d52d97200a91d5372b4c9d34f549d18fe096b080e88d4c984007",
    ("check", "--notion", "walley-asl"):
        "9c5a5ba03f7a72a26b3e551b31bcd3bba7a84a5fb2dedbbf395c28a5c38bff85",
}


@pytest.mark.parametrize("argv,digest", DEBUG_LP_SHA256.items())
def test_debug_lp_text_is_pinned(argv, digest, tmp_path, capsys):
    # the programs as `format_lp` writes them, from each int row over
    # its scale, byte for byte: of `WALLEY_ASL_DOC` for walley-asl, of
    # de Finetti(1,1,2) for the rest
    if "walley-asl" in argv:
        text = json.dumps(WALLEY_ASL_DOC)
    else:
        assert run(["example", "definetti", "--h", "1", "--k", "1", "--n", "2"]) == 0
        text = capsys.readouterr().out
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert run(["--debug-lp", *argv, "-f", str(path)]) == 0
    err = capsys.readouterr().err
    assert hashlib.sha256(err.encode()).hexdigest() == digest


MALFORMED = {
    "variables-list": {"variables": [1, 2], "assessments": []},
    "events-list": {"events": [1], "assessments": []},
    "var-list": {"assessments": [{"var": ["x"], "lower": "0"}]},
    "var-object": {"assessments": [{"var": {"x": 1}, "lower": "0"}]},
    "given-list": {"assessments": [{"var": "x", "given": ["a"], "lower": "0"}]},
}


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_exit_two(doc, tmp_path, capsys):
    # exit 1 means that the notion failed; a malformed document is an
    # input error, reported in one line
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"atoms": ["a"], "events": {"x": ["a"]}, **doc}))
    assert run(["check", "--notion", "w-coherence", "-f", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("previsio: ") and "Traceback" not in err


CHECK = ["check", "--notion", "w-coherence"]
CONGLOMERABILITY = ["check", "--notion", "conglomerability", "--target", "X"]
TWO_ATOMS = {"atoms": ["a", "b"], "variables": {"X": {"a": "1", "b": "0"}}}
NO_FILE, DIRECTORY = "no file", "a directory"
# every refusal the command line documents, each an input error of its own
REFUSALS = {
    "not-an-object": (CHECK, [TWO_ATOMS]),
    "duplicate-atoms": (CHECK, {"atoms": ["a", "a"], "assessments": []}),
    "variable-not-an-object": (CHECK, {**TWO_ATOMS, "variables": {"X": "1"}}),
    "variable-missing-an-atom": (CHECK, {**TWO_ATOMS, "variables": {"X": {"a": "1"}}}),
    "variable-unknown-atom": (
        CHECK, {**TWO_ATOMS, "variables": {"X": {"a": "1", "b": "0", "c": "0"}}}
    ),
    "event-not-a-list": (CHECK, {**TWO_ATOMS, "events": {"E": "a"}}),
    "row-without-lower": (CHECK, {**TWO_ATOMS, "assessments": [{"var": "X"}]}),
    "row-given-an-empty-event": (
        CHECK,
        {**TWO_ATOMS, "events": {"E": []},
         "assessments": [{"var": "X", "given": "E", "lower": "0"}]},
    ),
    "one-variable-two-values": (  # X is the indicator of Ea
        CHECK,
        {**TWO_ATOMS, "events": {"Ea": ["a"]},
         "assessments": [{"var": "X", "lower": "0"}, {"var": "Ea", "lower": "1/2"}]},
    ),
    "unreadable-path": (CHECK, NO_FILE),
    "directory-as-file": (CHECK, DIRECTORY),
    "walley-asl-without-a-conditional-row": (
        ["check", "--notion", "walley-asl"],
        {**TWO_ATOMS, "assessments": [{"var": "X", "lower": "0"}]},
    ),
    "conglomerability-without-cells": (
        CONGLOMERABILITY, {**TWO_ATOMS, "assessments": [{"var": "X", "lower": "0"}]}
    ),
    "conglomerability-unassessed-value": (
        [*CONGLOMERABILITY, "--cells", "Ea"],
        {**TWO_ATOMS, "events": {"Ea": ["a"]},
         "assessments": [{"var": "X", "given": "Ea", "lower": "1"}]},
    ),
    "family-not-covering-the-space": (
        ["check", "--notion", "walley-asl"],
        {**TWO_ATOMS, "events": {"Ea": ["a"]},
         "assessments": [{"var": "Ea", "given": "Ea", "lower": "1"}]},
    ),
}


@pytest.mark.parametrize("command,doc", REFUSALS.values(), ids=REFUSALS.keys())
def test_every_documented_refusal_exits_two(command, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    if doc == DIRECTORY:
        path = tmp_path
    elif doc != NO_FILE:
        path.write_text(json.dumps(doc))
    assert run([*command, "-f", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("previsio: ")
    assert "Traceback" not in captured.err


def test_the_parser_is_built_once_and_carries_nothing_between_runs(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(VACUOUS)
    argv = ["check", "--notion", "w-coherence", "-f", str(path)]
    assert run(["--debug-lp", *argv]) == 0
    debug = capsys.readouterr()
    assert run(argv) == 0
    plain = capsys.readouterr()
    assert "max" in debug.err and plain.err == ""
    first, second = json.loads(debug.out), json.loads(plain.out)
    for key in ("inputDigest", "results", "lp"):
        assert first[key] == second[key]
    assert cli.build_parser() is cli.build_parser()


# documents that `json.loads` itself refuses beyond a syntax error: an
# integer literal past Python's int-string limit (4,300 digits) and
# nesting deeper than the interpreter's stack
UNREADABLE = {
    "long-integer": '{"atoms": ["a"], "variables": {"X": {"a": ' + "7" * 5001 + "}}}",
    "deep-nesting": "[" * 200_000 + "]" * 200_000,
    "invalid-utf-8": '{"atoms": ["\xff"]}',
}
COMMANDS = {
    "check": ["check", "--notion", "w-coherence"],
    "extend": ["extend", "--target", "X"],
    "envelope": ["envelope"],
}


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
@pytest.mark.parametrize("text", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_documents_json_cannot_read_exit_two(text, command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("latin-1"))
    assert run([*command, "-f", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("previsio: invalid JSON: ") and "Traceback" not in err
    assert len(err) < 300


def test_a_long_rational_is_echoed_short(tmp_path, capsys):
    digits = "7" * 5001
    doc = {
        "atoms": ["a"],
        "variables": {"X": {"a": digits}},
        "assessments": [{"var": "X", "lower": "0"}],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(["check", "--notion", "w-coherence", "-f", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("previsio: not an exact rational: '777")
    assert len(err) < 100


LONG_NAME = "v" * 5000
LONG_NAMED = {
    "unknown-variable": {"assessments": [{"var": LONG_NAME, "lower": "0"}]},
    "unknown-event": {"assessments": [{"var": "X", "given": LONG_NAME, "lower": "0"}]},
    "unknown-atom": {
        "events": {"E": ["a", LONG_NAME]},
        "assessments": [{"var": "X", "lower": "0"}],
    },
}


@pytest.mark.parametrize("extra", LONG_NAMED.values(), ids=LONG_NAMED.keys())
def test_a_long_name_is_echoed_short(extra, tmp_path, capsys):
    doc = {"atoms": ["a", "b"], "variables": {"X": {"a": "1", "b": "0"}}, **extra}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(["check", "--notion", "aul", "-f", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("previsio: ") and "vvv...vvv" in err
    assert len(err) < 200


def test_extend_over_an_incoherent_base_reports_its_witness(monkeypatch, capsys):
    # P(a) >= 2/3 and P(b) >= 2/3 on two atoms: buying both loses 1/3
    # whatever happens, so the base is refused, with that bet
    doc = {
        "atoms": ["a", "b"],
        "variables": {"X": {"a": "1", "b": "0"}},
        "events": {"Ea": ["a"], "Eb": ["b"]},
        "assessments": [{"var": "Ea", "lower": "2/3"}, {"var": "Eb", "lower": "2/3"}],
    }
    code, report = invoke(
        ["extend", "-f", "-", "--target", "X"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "BaseNotCoherent" in capsys.readouterr().err
    body = report["results"]["extension"]
    assert body["target"] == "X"
    problem = load_problem(doc)
    bet = witness_from_json(problem, body["witness"])
    table = gain(bet, problem.assessment)
    assert table.sup_on_conditioning() < 0
    assert body["witness"]["gain"] == {
        a: rational_str(table.values.value_at(a)) for a in body["witness"]["gain"]
    }
    # the same losing bet, in the same form, as the check of the base
    _, checked = invoke(
        ["check", "--notion", "w-coherence", "-f", "-"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert checked["results"]["verdict"]["witness"] == body["witness"]
