"""Repeated runs must produce identical output."""

import io
import json
from contextlib import redirect_stdout

from previsio.cli import run


def test_cli_reports_are_deterministic(tmp_path):
    doc = {
        "atoms": ["a", "b", "c"],
        "events": {"E": ["a", "b"]},
        "variables": {"X": {"a": "1", "b": "0", "c": "2"}},
        "assessments": [
            {"var": "X", "given": "E", "lower": "1/2"},
            {"var": "E", "lower": "1/4", "upper": "3/4"},
        ],
    }
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))

    def run_once():
        out = io.StringIO()
        with redirect_stdout(out):
            code = run(["check", "--notion", "w-coherence", "-f", str(path)])
        report = json.loads(out.getvalue())
        report.pop("wallTimeSeconds")
        return code, report

    first = run_once()
    second = run_once()
    assert first == second
