"""The programs built from int rows, against the `Fraction` oracle.

Every program a checker or an extension solves is built from the int
rows of the assessment's elements (`_Search.program`,
`extensions._bound_program`).  `fraction_checks` builds the same
programs from `Fraction` coefficients through `lp.constraint`; both must
give the same rows, field for field, and every solved program must come
from one of those two functions.
"""

import random

import pytest

import fraction_checks as ref
from conftest import random_arbitrary_assessment, random_coherent_assessment, random_domain
from previsio import extensions, lp
from previsio.checkers import (
    _Search,
    check_bi_coherence,
    check_convex,
    check_w_coherence,
)
from previsio.extensions import extend, natural_extension_prevision


def _fields(program: lp.LinearProgram):
    rows = [(c.terms, c.scale, c.int_rhs, c.arity) for c in program.constraints]
    return rows, program.objective


@pytest.fixture
def programs(monkeypatch):
    """Each solved program, and each built one with its oracle."""
    solved, built = [], []
    real_solve, real_program = lp.Trace.solve, _Search.program
    real_bound = extensions._bound_program

    def solve(trace, program):
        solved.append(program)
        return real_solve(trace, program)

    def program(search, *args):
        out = real_program(search, *args)
        built.append((out, ref.violation_program(search, *args), "violation"))
        return out

    def bound_program(*args):
        out = real_bound(*args)
        built.append((out, ref.bound_program(*args), "bound"))
        return out

    monkeypatch.setattr(lp.Trace, "solve", solve)
    monkeypatch.setattr(_Search, "program", program)
    monkeypatch.setattr(extensions, "_bound_program", bound_program)
    return solved, built


def test_every_program_equals_the_fraction_oracle(programs):
    solved, built = programs
    rng = random.Random(20)
    for _ in range(32):
        coherent = random_coherent_assessment(rng, max_entries=4)
        arbitrary = random_arbitrary_assessment(rng, max_entries=4)
        unconditional = random_arbitrary_assessment(rng, max_entries=3, conditional=False)
        for assessment in (coherent, arbitrary):
            check_w_coherence(assessment)
            check_convex(assessment)
        check_bi_coherence(unconditional)
        extend(coherent, random_domain(rng, coherent.space, 1)[0])
    assert len(solved) == len(built) > 600
    assert all(s is b for s, (b, _, _) in zip(solved, built))
    assert {kind for _, _, kind in built} == {"violation", "bound"}
    for got, want, _ in built:
        assert _fields(got) == _fields(want)
        assert got == want


def test_a_long_lived_search_keeps_no_state(monkeypatch):
    # one search serves every lookup of the prevision; nothing but its
    # trace may change across lookups
    searches = []
    real = extensions._search

    def spy(*args):
        searches.append(real(*args))
        return searches[-1]

    monkeypatch.setattr(extensions, "_search", spy)
    rng = random.Random(3)
    assessment = random_coherent_assessment(rng, max_entries=4)
    lookup = natural_extension_prevision(assessment)
    (search,) = searches

    def state() -> str:
        return repr({k: v for k, v in vars(search).items() if k != "trace"})

    before = state()
    for target in random_domain(rng, assessment.space, 10):
        lookup(target)
        assert state() == before
    assert search.trace.solves > 10
