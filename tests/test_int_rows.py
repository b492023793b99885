"""The programs built from int rows, against the `Fraction` oracle.

Every program a checker or an extension solves is built from the int
rows of the elements (`_Search.program`, `extensions._bound_program`).
`fraction_checks` builds the same programs from `Fraction` gains taken
from the model's values, through its own `constraint`; both must give
the same rows, field for field, and every solved program must come
from one of those two functions.
"""

import random
from fractions import Fraction

import pytest

import fraction_checks as ref
from conftest import (
    bayes_value,
    family_entries,
    positive_vector,
    random_arbitrary_assessment,
    random_coherent_assessment,
    random_domain,
    random_precise_assessment,
    random_space,
)
from previsio import extensions, lp
from previsio.checkers import (
    PartitionFamily,
    _Search,
    check_bi_coherence,
    check_convex,
    check_df_precise_conditional,
    check_w_coherence,
    check_walley_asl,
)
from previsio.conglomerability import definetti_example, walley_666_example
from previsio.extensions import extend, natural_extension_prevision
from previsio.jsonio import load_problem
from previsio.model import Assessment, Entry, PossibilitySpace


def _fields(program: lp.LinearProgram):
    rows = [(c.coeffs, c.scale, c.int_rhs, c.arity) for c in program.constraints]
    return rows, program.objective


@pytest.fixture
def programs(monkeypatch):
    """Each solved program, and each built one with the oracle that
    rebuilds it from an assessment's `Fraction` gains."""
    solved, built = [], []
    real_solve, real_program = lp.Trace.solve, _Search.program
    real_bound = extensions._bound_program

    def solve(trace, program):
        solved.append(program)
        return real_solve(trace, program)

    def program(search, *args):
        out = real_program(search, *args)
        built.append(
            (out, "violation", lambda gains: ref.violation_program(gains, search.convex, *args))
        )
        return out

    def bound_program(search, payoff, *args):
        out = real_bound(search, payoff, *args)
        built.append(
            (out, "bound", lambda gains: ref.bound_program(gains, payoff.target, payoff.sign, *args))
        )
        return out

    monkeypatch.setattr(lp.Trace, "solve", solve)
    monkeypatch.setattr(_Search, "program", program)
    monkeypatch.setattr(extensions, "_bound_program", bound_program)
    return solved, built


def _walley_family(rng: random.Random) -> tuple[Assessment, PartitionFamily]:
    """Bayes cell values of a positive p on 4-5 atoms and two cells, one
    member sometimes widened to lower < upper, and X priced anywhere
    between its least and greatest value."""
    space = PossibilitySpace(("a", "b", "c", "d", "e")[: rng.randint(4, 5)])
    cells = [space.event(space.atoms[:2]), space.event(space.atoms[2:])]
    # never 0 or 1, so that X coincides with no other member on a cell
    x = space.variable({a: Fraction(rng.choice([-3, -2, -1, 2, 3])) for a in space.atoms})
    members = [space.constant(0), space.indicator(cells[0]), space.indicator(cells[1]), x]
    p = positive_vector(rng, space)
    table = [
        tuple(
            sum(p[i] * m.values[i] for i in c.members) / sum(p[i] for i in c.members)
            for c in cells
        )
        for m in members
    ]
    widen = Fraction(rng.choice([0, 0, 1]), 4)
    lower = (*table[:3], tuple(v - widen for v in table[3]))
    upper = (*table[:3], tuple(v + widen for v in table[3]))
    family = PartitionFamily(space, tuple(cells), tuple(members))
    price = min(x.values) + (max(x.values) - min(x.values)) * Fraction(rng.randint(0, 8), 8)
    side = Entry(x.unconditional(), price, price)
    return Assessment(space, (side, *family_entries(cells, members, lower, upper))), family


def _interval_assessment(rng: random.Random) -> Assessment:
    """The least and greatest Bayes value of two or three positive
    vectors on a conditional domain, the greatest sometimes moved, so
    that lower < upper over different denominators, coherent or not."""
    space = random_space(rng)
    vectors = [positive_vector(rng, space) for _ in range(rng.randint(2, 3))]
    items = []
    for cv in random_domain(rng, space, 4):
        values = [bayes_value(p, cv) for p in vectors]
        moved = Fraction(rng.choice([0, 0, -1, 1]), rng.randint(2, 7))
        items.append((cv, min(values), max(values) + moved))
    return Assessment.build(space, items)


def test_every_program_equals_the_fraction_oracle(programs):
    solved, built = programs

    def compare(start: int, assessment) -> None:
        # every program built since `start` is over `assessment`
        for got, _, oracle in built[start:]:
            want = oracle(ref.fraction_gains(assessment))
            assert _fields(got) == _fields(want)
            assert got == want

    rng = random.Random(20)
    for _ in range(32):
        coherent = random_coherent_assessment(rng, max_entries=4)
        arbitrary = random_arbitrary_assessment(rng, max_entries=4)
        unconditional = random_arbitrary_assessment(rng, max_entries=3, conditional=False)
        # both directions of every entry: precise, and lower < upper
        precise = random_precise_assessment(rng, max_entries=4)
        interval = _interval_assessment(rng)
        for assessment in (coherent, arbitrary, precise, interval):
            start = len(built)
            check_w_coherence(assessment)
            check_convex(assessment)
            compare(start, assessment)
        start = len(built)
        check_bi_coherence(unconditional)
        compare(start, unconditional)
        start = len(built)
        extend(coherent, random_domain(rng, coherent.space, 1)[0])
        compare(start, coherent)
    # the paper's counterexamples, read from their documents
    for doc in (definetti_example(1, 1, 3), walley_666_example(2)):
        assessment = load_problem(doc).assessment
        start = len(built)
        for check in (check_w_coherence, check_convex, check_df_precise_conditional):
            assert check(assessment).passed
        compare(start, assessment)
    # the main step of walley-asl comes last; its prerequisites are
    # coherence checks of the forms above
    main_steps = 0
    for _ in range(24):
        assessment, family = _walley_family(rng)
        if check_walley_asl(assessment, family).prerequisite_failure is None:
            got = built[-1][0]
            want = ref.walley_program(assessment, family)
            assert _fields(got) == _fields(want)
            assert got == want
            main_steps += 1
    assert main_steps > 8
    assert len(solved) == len(built) > 600
    assert all(s is b for s, (b, _, _) in zip(solved, built))
    assert {kind for _, kind, _ in built} == {"violation", "bound"}


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
