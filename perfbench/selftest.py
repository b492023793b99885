"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

* Exact counts repeat: the first operations of every workload run
  twice, each time in a fresh traced interpreter, and lp.solves,
  lp.pivots, checkers.lp_per_check and envelopes.vertices must come out
  identical.
* The tracer binds one wrapper to every module attribute that holds a
  traced function, restores them all, and reports a function that no
  longer exists as absent instead of failing.
* In a directory that holds only BENCHMARK.json and perfbench/, the
  benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

EXACT = ("lp.solves", "lp.pivots", "checkers.lp_per_check", "envelopes.vertices")
OPS = 10


def exact_counts_repeat() -> None:
    for workload in run.WORKLOADS:
        args = ["--workload", workload, "--seed", "7", "--ops", str(OPS), "--trace"]
        first, second = (run._spawn(args, 120)[1]["layers"] for _ in range(2))
        for name in EXACT:
            assert first[name] == second[name], (workload, name, first[name], second[name])
        print(f"{workload}: " + ", ".join(f"{n}={first[n][0]:g}" for n in EXACT))


def tracer_binds_and_reports_absent() -> None:
    import previsio.checkers
    import previsio.cli
    import previsio.extensions
    import previsio.lp
    from previsio.model import Assessment

    solve = previsio.lp.solve
    build = vars(Assessment)["build"]
    spans = [s for s in tracing.SPANS if s[0] != "gains.gain"]
    spans.append(("gains.gain", "previsio.gains", "renamed_gain"))
    tracer = tracing.Tracer(tuple(spans))
    tracer.install()
    try:
        wrapped = previsio.lp.solve
        assert wrapped is not solve
        assert previsio.checkers.solve is wrapped and previsio.extensions.solve is wrapped
        assert previsio.cli.CHECKERS["aul"] is previsio.checkers.check_aul
        assert getattr(previsio.checkers.check_aul, "traced_span", None) == "checkers.check"
        assert vars(Assessment)["build"] is not build
    finally:
        tracer.uninstall()
    assert previsio.lp.solve is solve and previsio.checkers.solve is solve
    assert vars(Assessment)["build"] is build
    names = tracing.layer_metrics({}, tracing.Counts(), 1, 1.0)
    absent = tracing.absent_metrics(tracer, names)
    assert set(absent) == {"gains.calls", "gains.self_s", "gains.self_share"}, absent
    print("tracer: every binding wrapped and restored; absent:", sorted(absent))


def fails_without_sources() -> None:
    scratch = HERE / "_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        shutil.copytree(HERE, scratch / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        if (ROOT / "BENCHMARK.json").is_file():
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "classical",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            assert "correct" not in json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    print(f"without sources: exit code {proc.returncode}, no result")


if __name__ == "__main__":
    exact_counts_repeat()
    tracer_binds_and_reports_absent()
    fails_without_sources()
    print("selftest passed")
