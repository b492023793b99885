import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import previsio
from previsio import cli
from previsio.cli import run


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
    assert report["lp"]["solves"] >= report["results"]["verdict"]["lpCount"]


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
    def broken(assessment):
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


def test_unknown_notion_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["check", "--notion", "nonsense", "-f", "-"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["example", "definetti", "--h", "0", "--k", "1", "--n", "2"],
        ["example", "definetti", "--h", "1", "--k", "-1", "--n", "2"],
        ["example", "definetti", "--h", "1", "--k", "1", "--n", "two"],
        ["example", "walley666", "--n", "0"],
        ["oracle", "--notion", "aul", "--max-denominator", "0"],
    ],
)
def test_nonpositive_counts_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(VACUOUS)
    src = str(Path(previsio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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


def test_oracle_subcommand_agrees(monkeypatch):
    code, report = invoke(
        ["oracle", "--notion", "aul", "-f", "-", "--max-denominator", "4"],
        stdin_text=json.dumps(
            {
                "atoms": ["a", "b"],
                "events": {"Ea": ["a"], "Eb": ["b"]},
                "assessments": [
                    {"var": "Ea", "lower": "3/5"},
                    {"var": "Eb", "lower": "3/5"},
                ],
            }
        ),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    body = report["results"]["oracle"]
    assert body["agree"] is True
    assert body["gridFound"] is True
    assert body["checker"]["passed"] is False


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


def test_walley_asl_via_cli(monkeypatch):
    doc = {
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
    code, report = invoke(
        ["check", "--notion", "walley-asl", "-f", "-"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert report["results"]["verdict"]["passed"] is True


def test_debug_lp_dumps_programs(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(VACUOUS)
    code = run(["--debug-lp", "check", "--notion", "aul", "-f", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "max" in captured.err
    assert "<=" in captured.err
