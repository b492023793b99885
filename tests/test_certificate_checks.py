"""Strictness of the certificate checks on integer rows.

`lp.satisfies` and the chain walk `checkers._Search.closed_by` decide
on ints over common denominators.  The boundary tests put each side of
a sign test exactly level, and then one unit of the int comparison
off, over denominators that share no factor (3, 7 and the prime
2**61 - 1); a vector p is checked there as a chain of one step that
every atom of p closes.  The property tests hold the checks to the
plain `Fraction` formulas of `fraction_checks` on random programs,
vectors and assessments, and the walk to the reference that walks one
combination at a time, on the chains of the checkers and of the
extensions and on mutants of them.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_checks as ref
from conftest import (
    random_arbitrary_assessment,
    random_coherent_assessment,
    random_event,
    random_precise_assessment,
    random_space,
)
from fraction_checks import constraint
from previsio import extensions, lp
from previsio.checkers import (
    _Search,
    check_bi_coherence,
    check_convex,
    check_w_coherence,
    expanded_elements,
)
from previsio.lp import LinearProgram, over_one_denominator, solve
from previsio.model import Assessment, PossibilitySpace, restrict

F = Fraction
_BIG = 2**61 - 1  # a Mersenne prime, so it shares no factor with anything

# a.x = 1/3 at _X and a.x = 0 at _Z, both nonnegative points over
# 2 * _BIG.  The row is over 21 * _BIG, so moving the last coordinate by
# _STEP moves a.x by 1 / (42 * _BIG**2): one unit of the int comparison,
# the least change it can see.
_A = (F(1, 3), F(2, _BIG), F(-1, 7), F(1, 21 * _BIG))
_X = (1 + F(3, _BIG), F(1, 2), F(15, _BIG), F(3))
_Z = (F(3, _BIG), F(1, 2), F(15, _BIG), F(3))
_STEP = F(1, 2 * _BIG)
_UNIT = F(1, 42 * _BIG**2)


def satisfies(prog, point):
    """`lp.satisfies` at a `Fraction` point, put over one denominator."""
    return lp.satisfies(prog, *over_one_denominator(point))


def _moved(vector, step):
    return (*vector[:3], vector[3] + step)


def _program(rows=()):
    return LinearProgram(objective=(F(0),) * 4, constraints=tuple(rows))


def _reading(relation, rhs):
    """a.x `relation` rhs as rows of the one form: ">=" is the negated
    row, which needs rhs <= 0, and "=" is both rows."""
    rows = []
    if relation != ">=":
        rows.append(constraint(_A, rhs))
    if relation != "<=":
        rows.append(constraint([-a for a in _A], -rhs))
    return _program(rows)


# -- satisfies ---------------------------------------------------------------


@pytest.mark.parametrize("relation", ["<=", ">=", "="])
def test_a_point_on_the_row_satisfies_every_relation(relation):
    assert sum(a * x for a, x in zip(_A, _Z)) == 0
    assert satisfies(_reading(relation, 0), _Z)
    assert sum(a * x for a, x in zip(_A, _X)) == F(1, 3)
    assert satisfies(_program([constraint(_A, F(1, 3))]), _X)


@pytest.mark.parametrize(
    "relation,step,holds",
    [("<=", 1, False), ("<=", -1, True), (">=", -1, False), (">=", 1, True),
     ("=", 1, False), ("=", -1, False)],
)
def test_a_point_one_unit_off_the_row(relation, step, holds):
    point = _moved(_Z, step * _STEP)
    assert sum(a * x for a, x in zip(_A, point)) == step * _UNIT
    assert satisfies(_reading(relation, 0), point) is holds
    # and off a row with a positive rhs, which only "<=" can have
    point = _moved(_X, step * _STEP)
    assert sum(a * x for a, x in zip(_A, point)) - F(1, 3) == step * _UNIT
    assert satisfies(_program([constraint(_A, F(1, 3))]), point) is (step < 0)


def test_a_point_on_its_bounds_satisfies_them():
    # x >= 0 is the one bound; a coordinate at zero meets it
    assert satisfies(_program(), (F(0),) * 4)
    assert satisfies(_program(), _moved(_Z, -_Z[3]))


@pytest.mark.parametrize("step", [1, -1])
def test_a_point_one_unit_off_a_bound(step):
    # the least nonzero coordinate over 2 * _BIG, on either side of zero
    point = _moved(_Z, step * _STEP - _Z[3])
    assert satisfies(_program(), point) is (step > 0)
    assert satisfies(_reading("<=", F(1, 3)), point) is (step > 0)


# -- one-step chains ---------------------------------------------------------

_SPACE = PossibilitySpace(("a", "b", "c"))
_AB = _SPACE.event(["a", "b"])  # so mass on c changes no expectation
_GX = {"a": F(1, 3) + F(1, _BIG), "b": F(-1, 7), "c": F(5, 7)}  # X|{a,b} at 0


def _search(extra=(), convex=False):
    x = restrict(_SPACE.variable(_GX), _AB)
    items = [(x, 0), *extra]
    return _Search(expanded_elements(Assessment.build(_SPACE, items)), convex=convex)


def _dominates(search, p, carriers, combo):
    """Whether the chain of the one `Fraction` vector p, given to the walk
    as int masses over one denominator, closes `combo` from `carriers`
    when every atom of p closes it: whether p dominates them.  The walk
    reads the terms of `combo` among the carriers."""
    masses, _ = over_one_denominator(list(p.values()))
    chain = [dict(zip(p, masses))]
    carriers = [*carriers, *(k for k in combo if k not in carriers)]
    return search.closed_by(chain, carriers, [combo], closing=frozenset(p)) == {combo}


def _p(t):
    return {0: t, 1: 1 - t, 2: F(0)}


def _p_expecting(e):
    # t.g_a + (1 - t).g_b = e, with 0 < t < 1
    g_a, g_b = _GX["a"], _GX["b"]
    return _p((e - g_b) / (g_a - g_b))


def test_an_expectation_of_zero_dominates():
    search = _search()
    p = _p_expecting(0)
    assert p[0] * _GX["a"] + p[1] * _GX["b"] == 0
    assert _dominates(search, p, [0], ())
    assert _dominates(search, p, [], (0,))


def test_an_expectation_of_minus_one_millionth_fails():
    search = _search()
    p = _p_expecting(F(-1, 10**6))
    assert p[0] * _GX["a"] + p[1] * _GX["b"] == F(-1, 10**6)
    assert not _dominates(search, p, [0], ())
    assert not _dominates(search, _p_expecting(F(1, 10**6)), [], (0,))
    assert _dominates(search, _p_expecting(F(1, 10**6)), [0], ())


def test_convexity_compares_expectations_exactly():
    # y - 1 = x - 0 under every p, and y - (1 - 10**-6) expects 10**-6 more
    y = restrict(_SPACE.variable({a: v + 1 for a, v in _GX.items()}), _AB)
    p = _p_expecting(F(1, 3))
    level = _search([(y, 1)], convex=True)
    assert _dominates(level, p, [0], (1,))
    above = _search([(y, 1 - F(1, 10**6))], convex=True)
    assert not _dominates(above, p, [0], (1,))
    below = _search([(y, 1 + F(1, 10**6))], convex=True)
    assert _dominates(below, p, [0], (1,))
    # and the other way round: x - 0 expects 10**-6 less than y - 1 + 10**-6
    assert not _dominates(below, p, [1], (0,))
    assert _dominates(level, p, [1], (0,))


def test_a_dominating_vector_may_have_zeros_but_no_negative_mass():
    search = _search()
    p = _p_expecting(0)
    assert p[2] == 0 and _dominates(search, p, [0], ())
    assert not _dominates(search, {**p, 2: -F(1, _BIG**2)}, [0], ())
    assert not _dominates(search, {0: F(0), 1: F(0), 2: F(0)}, [0], ())


# -- differential: the integer checks against the Fraction formulas ----------

_DENOMINATORS = st.sampled_from([1, 1, 2, 3, 7, _BIG])
_Q = st.builds(F, st.integers(-6, 6), _DENOMINATORS)
_OFFSET = st.sampled_from([F(0), F(0), _UNIT, -_UNIT]) | _Q


@st.composite
def _programs(draw):
    """A program built around a point, so that rows are often level or
    one unit off at it, with the point itself.  A row whose rhs would be
    negative is negated, which keeps it level or off by as much."""
    n = draw(st.integers(1, 4))
    x = [abs(draw(_Q)) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = [draw(_Q | st.just(F(0))) for _ in range(n)]
        rhs = sum(a * v for a, v in zip(coeffs, x)) + draw(_OFFSET)
        if rhs < 0:
            coeffs, rhs = [-a for a in coeffs], -rhs
        rows.append(constraint(coeffs, rhs))
    prog = LinearProgram(
        objective=tuple(draw(_Q | st.just(F(0))) for _ in range(n)),
        constraints=tuple(rows),
    )
    return prog, x


def _nudged(vector, draw):
    out = list(vector)
    if out:
        j = draw(st.integers(0, len(out) - 1))
        out[j] += draw(st.sampled_from([_UNIT, -_UNIT, _STEP, -_STEP]))
    return out


@settings(max_examples=300, deadline=None)
@given(made=_programs(), data=st.data())
def test_integer_checks_agree_with_the_fraction_formulas(made, data):
    prog, x = made
    n = prog.arity
    points = [x, _nudged(x, data.draw), [data.draw(_Q) for _ in range(n)], x[:-1]]
    try:
        out = solve(prog)  # its point passed the integer check
    except AssertionError as error:
        assert str(error) == "internal error: an unbounded program"
    else:
        points += [out.point, _nudged(out.point, data.draw)]
    for point in points:
        assert satisfies(prog, point) == ref.satisfies(prog, point)


@st.composite
def _searches(draw):
    """Elements on 3-5 atoms with a vector p, each entry valued where p
    expects its gain to be zero, one unit off that, or anywhere."""
    space = PossibilitySpace(("a", "b", "c", "d", "e")[: draw(st.integers(3, 5))])
    p = {a: draw(st.sampled_from([F(0), F(0), F(1, 3), F(2, _BIG), F(5, 7), F(-1, 7)]))
         for a in range(space.size)}
    items = {}
    for _ in range(draw(st.integers(1, 4))):
        atoms = draw(st.lists(st.sampled_from(space.atoms), min_size=1, unique=True))
        x = space.variable({a: draw(_Q) for a in space.atoms})
        cv = restrict(x, space.event(atoms))
        mass = sum(p[i] for i in cv.cond.members)
        fair = sum(p[i] * v for i, v in cv.value_map().items()) / mass if mass else F(0)
        lower = fair + draw(_OFFSET)
        upper = draw(st.sampled_from([None, fair, fair + _UNIT, fair - _UNIT]))
        items[cv] = (cv, lower, upper)
    assessment = Assessment.build(space, list(items.values()))
    search = _Search(expanded_elements(assessment), convex=draw(st.booleans()))
    indices = range(len(search.elements))
    carriers = draw(st.lists(st.sampled_from(indices), unique=True))
    size = 1 if search.convex else draw(st.integers(0, min(2, len(indices))))
    combo = tuple(draw(st.lists(st.sampled_from(indices), min_size=size,
                                max_size=size, unique=True)))
    return search, ref.fraction_gains(assessment), p, carriers, combo


@settings(max_examples=300, deadline=None)
@given(made=_searches())
def test_dominates_agrees_with_the_fraction_formula(made):
    # a one-step chain: the walk closes the combination exactly when the
    # reference walk does, which is when p dominates the carriers
    # outside it, by the formula
    search, gains, p, carriers, combo = made
    outside = [i for i in carriers if i not in combo]
    expected = ref.dominates(gains, search.convex, p, outside, combo) is not None
    events = search.events
    assert ref.closes(gains, events, search.convex, [p], carriers, combo, closing=frozenset(p)) is expected
    assert _dominates(search, p, carriers, combo) is expected


# -- the walk against the reference, chain by chain --------------------------

_BEYOND = F(1, 10**9)


def _mutants(rng, chain, atoms):
    """The chain and three of its mutants: one mass made negative, a zero
    mass on an atom a step does not charge, drawn from `atoms`, and the
    chain cut short by its last step."""
    out = [chain]
    if chain:
        step = rng.randrange(len(chain))
        negative = [dict(p) for p in chain]
        atom = rng.choice(sorted(negative[step]))
        negative[step][atom] = -negative[step][atom]
        free = sorted(set(atoms) - set(chain[step]))
        zero = [dict(p) for p in chain]
        if free:
            zero[step][rng.choice(free)] = 0
        out += [negative, zero, chain[:-1]]
    return out


def _walks_agree(search, gains, chain, carriers, combos, against=(), closing=frozenset(), walk=None):
    """The walk's closed combinations against the reference's, each
    combination walked on its own; returns how many closed."""
    walked = (walk or search.closed_by)(chain, carriers, combos)
    expected = {
        c for c in combos
        if ref.closes(gains, search.events, search.convex, chain, carriers, c, against, closing)
    }
    assert walked == expected
    return len(walked)


def test_the_walk_agrees_with_the_reference_on_checker_chains(monkeypatch):
    # every chain the checks run, passing or failing, plain and convex,
    # walked for every combination of the notion: a chain is tried on
    # against-terms other than its own, and its mutants on all of them
    runs = []
    shrink = _Search.shrink

    def spy(search, active, combo, excluded=frozenset()):
        stakes, chain, left = shrink(search, active, combo, excluded)
        runs.append((search, list(chain)))
        return stakes, chain, left

    monkeypatch.setattr(_Search, "shrink", spy)
    rng = random.Random(17)
    gains_of = {}
    for i in range(190):
        space = random_space(rng, 3, 5)
        make = (random_coherent_assessment, random_precise_assessment, random_arbitrary_assessment)[i % 3]
        assessment = make(rng, space, max_entries=4, conditional=i % 4 != 0)
        start = len(runs)
        check_w_coherence(assessment), check_convex(assessment)
        if assessment.is_unconditional:
            check_bi_coherence(assessment)
        for search, _ in runs[start:]:
            gains_of[id(search)] = (search, ref.fraction_gains(assessment))
    chains = closed = 0
    for search, chain in runs:
        gains = gains_of[id(search)][1]
        n = len(search.elements)
        everything = range(n)
        combos = [(k,) for k in everything]
        if not search.convex:
            combos = [()] + combos + [c for c in combinations(everything, 2) if n < 5]
        atoms = frozenset().union(*search.events)
        for mutant in _mutants(rng, chain, atoms):
            closed += _walks_agree(search, gains, mutant, everything, combos)
        chains += 1
    assert chains > 600 and closed > 2000


def test_the_walk_agrees_with_the_reference_on_extension_chains():
    # the chain of LE and of every upper combination, with the target's
    # row at the bound and 10**-9 beyond it, walked for every
    # combination of the upper extension, and their mutants
    rng = random.Random(19)
    chains = closed = 0
    while chains < 500:
        space = random_space(rng, 3, 6)
        base = random_coherent_assessment(rng, space=space, max_entries=4, conditional=rng.random() < 0.7)
        target = restrict(space.variable({a: F(rng.randint(-4, 4), rng.randint(1, 3)) for a in space.atoms}),
                          random_event(rng, space))
        if base.entry_for(target) is not None:
            continue
        search = _Search(expanded_elements(base))
        gains = ref.fraction_gains(base)
        b = target.cond.members
        x = target.value_map()
        everything = list(range(len(search.elements)))
        combos = [(k,) for k in everything] + [()]
        lower, upper = extensions._payoff(target, 1), extensions._payoff(target, -1)
        le, chain = extensions._bound(search, lower, (), everything)
        # each bound is its value less the payoff's floor
        runs = [(lower, lower.floor + le.rel, chain)]
        bounds = [extensions._bound(search, upper, c, everything) for c in combos]
        best = max(upper.floor + bound.rel for bound, _ in bounds if bound is not None)
        runs += [(upper, best, chain) for _, chain in bounds]
        for payoff, value, chain in runs:
            for v in (value, value - _BEYOND):
                # Y - v on B, for the payoff's Y = sign * X
                t = {a: payoff.sign * x[a] - v for a in b}

                def walk(chain, carriers, combos):
                    rel = v - payoff.floor
                    return extensions._closed(search, payoff, rel, combos, chain, carriers)

                for mutant in _mutants(rng, list(chain), b | frozenset().union(*search.events)):
                    closed += _walks_agree(search, gains, mutant, everything, combos, [t], b, walk)
            chains += 1
    assert closed > 1000
