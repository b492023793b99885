"""Shared generators for randomized suites.

Random W-coherent assessments are built as lower envelopes of strictly
positive probability vectors (the envelope theorem guarantees
coherence); arbitrary assessments draw values freely around the
variable range and may be inconsistent.
"""

import random
from fractions import Fraction

import pytest

from previsio import lp
from previsio.envelopes import lower_envelope
from previsio.errors import MalformedFamily
from previsio.model import Assessment, Entry, Event, PossibilitySpace, restrict

F = Fraction

ATOM_NAMES = ("a", "b", "c", "d", "e", "f")


def random_space(rng: random.Random, min_atoms=3, max_atoms=4) -> PossibilitySpace:
    return PossibilitySpace(ATOM_NAMES[: rng.randint(min_atoms, max_atoms)])


def random_event(rng: random.Random, space: PossibilitySpace, nonempty=True) -> Event:
    while True:
        picked = [a for a in space.atoms if rng.random() < 0.5]
        if picked or not nonempty:
            return space.event(picked)


def random_variable(rng: random.Random, space: PossibilitySpace, span=4):
    return space.variable(
        {a: F(rng.randint(-span, span), rng.randint(1, 2)) for a in space.atoms}
    )


def positive_vector(rng: random.Random, space: PossibilitySpace):
    weights = [rng.randint(1, 6) for _ in space.atoms]
    total = sum(weights)
    return [F(w, total) for w in weights]


def random_domain(rng: random.Random, space: PossibilitySpace, max_entries=4,
                  conditional=True):
    cvs = []
    for _ in range(rng.randint(1, max_entries)):
        x = random_variable(rng, space)
        event = random_event(rng, space) if conditional else space.omega()
        cv = restrict(x, event)
        if cv not in cvs:
            cvs.append(cv)
    return cvs


def random_coherent_assessment(
    rng: random.Random,
    space=None,
    max_entries=4,
    members=None,
    conditional=True,
) -> Assessment:
    space = space or random_space(rng)
    domain = random_domain(rng, space, max_entries, conditional)
    vectors = [
        positive_vector(rng, space) for _ in range(members or rng.randint(1, 3))
    ]
    return lower_envelope(space, vectors, domain)


def random_arbitrary_assessment(
    rng: random.Random, space=None, max_entries=4, conditional=True
) -> Assessment:
    space = space or random_space(rng)
    domain = random_domain(rng, space, max_entries, conditional)
    items = []
    for cv in domain:
        lo, hi = cv.inf(), cv.sup()
        value = lo + (hi - lo) * F(rng.randint(-1, 5), 4)
        items.append((cv, value))
    return Assessment.build(space, items)


def bayes_value(p, cv) -> Fraction:
    mass = sum(p[i] for i in cv.cond.members)
    return sum(p[i] * v for i, v in cv.value_map().items()) / mass


def random_precise_assessment(rng: random.Random, space=None, max_entries=4,
                              conditional=True) -> Assessment:
    """Precise and dF-coherent: Bayes values of one positive vector."""
    space = space or random_space(rng)
    domain = random_domain(rng, space, max_entries, conditional)
    p = positive_vector(rng, space)
    items = []
    for cv in domain:
        value = bayes_value(p, cv)
        items.append((cv, value, value))
    return Assessment.build(space, items)


def family_entries(cells, members, lower, upper=None) -> list[Entry]:
    """Each member restricted to each cell, in (cell, member) order,
    valued lower[i][j] (and upper[i][j], or lower[i][j] when no upper
    table is given) for members[i] on cells[j].  Members that restrict
    equally on a cell give one entry, and must be valued alike there."""
    upper = lower if upper is None else upper
    seen = {}
    for j, cell in enumerate(cells):
        for i, member in enumerate(members):
            cv = restrict(member, cell)
            value = (F(lower[i][j]), None if upper[i][j] is None else F(upper[i][j]))
            if seen.setdefault(cv, value) != value:
                raise MalformedFamily(
                    "members restricting equally on a cell carry conflicting values"
                )
    return [Entry(cv, lo, up) for cv, (lo, up) in seen.items()]


def random_shifted_assessment(rng: random.Random, space=None, max_entries=4):
    """Precise and dF-incoherent: every atom indicator at a positive
    vector p, plus Bayes values of p on a random conditional domain with
    one of them moved by a nonzero rational.  The indicators pin the
    only candidate prevision to p, which the moved entry contradicts."""
    space = space or random_space(rng)
    p = positive_vector(rng, space)
    indicators = [space.indicator(space.event([a])).unconditional() for a in space.atoms]
    domain = []
    while not domain:
        domain = [cv for cv in random_domain(rng, space, max_entries)
                  if cv not in indicators]
    moved = domain[rng.randrange(len(domain))]
    items = []
    for cv in indicators + domain:
        value = bayes_value(p, cv)
        if cv == moved:
            value += F(rng.choice((-1, 1)), rng.randint(2, 5))
        items.append((cv, value, value))
    return Assessment.build(space, items)


@pytest.fixture
def solved_programs(monkeypatch):
    """Every program solved through a trace, with its outcome."""
    seen = []
    real = lp.Trace.solve

    def solve(trace, program):
        outcome = real(trace, program)
        seen.append((program, outcome))
        return outcome

    monkeypatch.setattr(lp.Trace, "solve", solve)
    return seen

