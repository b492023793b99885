"""Repeated runs must produce identical output, and calls made at the
same time keep separate LP accounts."""

import io
import json
import random
import sys
import threading
from contextlib import contextmanager, redirect_stdout

from conftest import random_arbitrary_assessment, random_coherent_assessment, random_space
from previsio.checkers import check_aul, check_convex, check_w_coherence
from previsio.cli import run
from previsio.conglomerability import definetti_example
from previsio.lp import Trace


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


@contextmanager
def _fine_switching():
    """Let threads take turns every 10 microseconds, so that calls made
    at the same time interleave their programs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _seeded_checks(seed):
    rng = random.Random(seed)
    cases = []
    for _ in range(12):
        space = random_space(rng, 4, 5)
        for assessment in (
            random_coherent_assessment(rng, space, max_entries=4),
            random_arbitrary_assessment(rng, space, max_entries=4),
        ):
            cases += [(check, assessment) for check in (check_w_coherence, check_aul, check_convex)]
    return cases


def _run_on(cases, trace):
    return [check(assessment, trace=trace) for check, assessment in cases]


def test_threads_keep_one_account_each():
    # more threads than the two cores of a small machine
    lists = [_seeded_checks(seed) for seed in (171, 173, 177)]
    sequential = []
    for cases in lists:
        trace = Trace()
        sequential.append((_run_on(cases, trace), trace))

    traces = [Trace() for _ in lists]
    results = [None] * len(lists)
    start = threading.Barrier(len(lists))

    def worker(i):
        start.wait(timeout=60)
        results[i] = _run_on(lists[i], traces[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(lists))]
    with _fine_switching():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    for (verdicts, alone), threaded, trace in zip(sequential, results, traces):
        assert threaded == verdicts
        assert [v.lp_count for v in threaded] == [v.lp_count for v in verdicts]
        assert (trace.solves, trace.max_pivots) == (alone.solves, alone.max_pivots)
        assert trace.solves == sum(v.lp_count for v in verdicts) > 0


def test_only_the_command_with_debug_lp_dumps(tmp_path, capsys):
    path = tmp_path / "definetti.json"
    path.write_text(json.dumps(definetti_example(1, 2, 3)))
    argv = ["--debug-lp", "check", "--notion", "w-coherence", "-f", str(path)]
    assert run(argv) == 0
    alone = capsys.readouterr()

    _, assessment = _seeded_checks(179)[0]
    library = Trace()
    verdicts = []
    done = threading.Event()

    def checking():
        while not (done.is_set() and verdicts):
            verdicts.append(check_w_coherence(assessment, trace=library))

    worker = threading.Thread(target=checking)
    with _fine_switching():
        worker.start()
        try:
            assert run(argv) == 0
        finally:
            done.set()
            worker.join(timeout=60)
    assert not worker.is_alive()
    concurrent = capsys.readouterr()
    assert concurrent.err == alone.err
    report = json.loads(concurrent.out)
    dumped = [line for line in concurrent.err.splitlines() if line.startswith("max ")]
    assert len(dumped) == report["lp"]["solves"] > 0
    assert library.solves == sum(v.lp_count for v in verdicts) > 0
