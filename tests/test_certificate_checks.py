"""Strictness of the certificate checks on integer rows.

`lp.satisfies`, `lp.verify_ray`, `lp.verify_farkas` and
`checkers._Search._dominates` decide on ints over common denominators.
The boundary tests put each side of a sign test exactly level, and then
one unit of the int comparison off, over denominators that share no
factor (3, 7 and the prime 2**61 - 1).  The property tests hold the
checks to the plain `Fraction` formulas of `fraction_checks` on random
programs, vectors and assessments.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_checks as ref
from previsio.checkers import _Search, expanded_elements
from previsio.lp import (
    FarkasCertificate,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    constraint,
    satisfies,
    solve,
    verify_farkas,
    verify_ray,
)
from previsio.model import Assessment, PossibilitySpace, restrict

F = Fraction
_BIG = 2**61 - 1  # a Mersenne prime, so it shares no factor with anything

# a.x = 1/3 at _X.  The row is over 21 * _BIG and the point over 2 * _BIG,
# so moving the last coordinate by _STEP moves a.x by 1 / (42 * _BIG**2):
# one unit of the int comparison, the least change it can see.
_A = (F(1, 3), F(2, _BIG), F(-1, 7), F(1, 21 * _BIG))
_X = (1 + F(3, _BIG), F(1, 2), F(14, _BIG), F(0))
_R = (F(3, _BIG), F(1, 2), F(14, _BIG), F(0))  # a.r = 0
_STEP = F(1, 2 * _BIG)
_UNIT = F(1, 42 * _BIG**2)
_FREE = ((None, None),) * 4


def _moved(vector, step):
    return (*vector[:3], vector[3] + step)


def _program(rows=(), bounds=_FREE, objective=(F(0),) * 4, sense="max"):
    return LinearProgram(
        objective=tuple(objective), sense=sense, constraints=tuple(rows),
        bounds=tuple(bounds),
    )


# -- satisfies ---------------------------------------------------------------


@pytest.mark.parametrize("relation", ["<=", ">=", "="])
def test_a_point_on_the_row_satisfies_every_relation(relation):
    assert sum(a * x for a, x in zip(_A, _X)) == F(1, 3)
    assert satisfies(_program([constraint(_A, relation, F(1, 3))]), _X)


@pytest.mark.parametrize(
    "relation,step,holds",
    [("<=", 1, False), ("<=", -1, True), (">=", -1, False), (">=", 1, True),
     ("=", 1, False), ("=", -1, False)],
)
def test_a_point_one_unit_off_the_row(relation, step, holds):
    prog = _program([constraint(_A, relation, F(1, 3))])
    point = _moved(_X, step * _STEP)
    assert sum(a * x for a, x in zip(_A, point)) - F(1, 3) == step * _UNIT
    assert satisfies(prog, point) is holds


def test_a_point_on_its_bounds_satisfies_them():
    assert satisfies(_program(bounds=[(x, x) for x in _X]), _X)
    assert satisfies(_program(bounds=[(x, None) for x in _X]), _X)
    assert satisfies(_program(bounds=[(None, x) for x in _X]), _X)


@pytest.mark.parametrize("step", [1, -1])
def test_a_point_one_unit_off_a_bound(step):
    point = _moved(_X, step * _STEP)
    at_x = _program(bounds=[(x, x) for x in _X])
    assert not satisfies(at_x, point)
    lower = _program(bounds=[(x, None) for x in _X])
    upper = _program(bounds=[(None, x) for x in _X])
    assert satisfies(lower, point) is (step > 0)
    assert satisfies(upper, point) is (step < 0)


# -- verify_ray --------------------------------------------------------------

_GAIN = (F(1),) + (F(0),) * 3  # the first coordinate of _R is positive


@pytest.mark.parametrize("relation", ["<=", ">=", "="])
def test_a_ray_along_the_row_is_a_recession_direction(relation):
    assert sum(a * d for a, d in zip(_A, _R)) == 0
    assert verify_ray(_program([constraint(_A, relation, 5)], objective=_GAIN), _R)


@pytest.mark.parametrize(
    "relation,step,holds",
    [("<=", 1, False), ("<=", -1, True), (">=", -1, False), (">=", 1, True),
     ("=", 1, False), ("=", -1, False)],
)
def test_a_ray_one_unit_off_the_row(relation, step, holds):
    prog = _program([constraint(_A, relation, 5)], objective=_GAIN)
    ray = _moved(_R, step * _STEP)
    assert sum(a * d for a, d in zip(_A, ray)) == step * _UNIT
    assert verify_ray(prog, ray) is holds


@pytest.mark.parametrize("sense", ["max", "min"])
def test_a_ray_that_gains_exactly_nothing_is_rejected(sense):
    level = _A[:3] + (F(0),)  # level.r = 0 with r != 0
    assert not verify_ray(_program(objective=level, sense=sense), _R)
    ahead = _A[:3] + (F(1, 21 * _BIG),)
    up, down = _moved(_R, _STEP), _moved(_R, -_STEP)
    assert verify_ray(_program(objective=ahead, sense=sense), up) is (sense == "max")
    assert verify_ray(_program(objective=ahead, sense=sense), down) is (sense == "min")


def test_a_ray_on_its_bounds():
    # a zero component may meet both bounds; one step outward may not
    def last(bound):
        return _program(bounds=[(None, None)] * 3 + [bound], objective=_GAIN)

    assert verify_ray(last((F(1, 3), F(2, _BIG))), _R)
    assert not verify_ray(last((F(1, 3), None)), _moved(_R, -_STEP))
    assert verify_ray(last((F(1, 3), None)), _moved(_R, _STEP))
    assert not verify_ray(last((None, F(2, _BIG))), _moved(_R, _STEP))
    assert verify_ray(last((None, F(2, _BIG))), _moved(_R, -_STEP))


# -- verify_farkas -----------------------------------------------------------
#
# Row 0 is a.x >= 1/3 and row 1 is (-5/_BIG) a.x >= b; multipliers
# 5/(7 _BIG) and 1/7 cancel every coefficient and leave 5/(21 _BIG) + b/7.

_LEVEL_B = F(-5, 3 * _BIG)
_M = (F(5, 7 * _BIG), F(1, 7))


def _pair(b):
    rows = [constraint(_A, ">=", F(1, 3)),
            constraint([F(-5, _BIG) * a for a in _A], ">=", b)]
    return _program(rows, bounds=[(F(0), None)] * 4)


def _cert(*head):
    return FarkasCertificate((*head, F(0), F(0), F(0), F(0)))


def test_a_farkas_combination_with_rhs_exactly_zero_is_rejected():
    assert ref.verify_farkas(_pair(_LEVEL_B), _cert(*_M)) is False
    assert not verify_farkas(_pair(_LEVEL_B), _cert(*_M))


@pytest.mark.parametrize("step,holds", [(1, True), (-1, False)])
def test_a_farkas_rhs_one_unit_from_zero(step, holds):
    assert verify_farkas(_pair(_LEVEL_B + 7 * step * _UNIT), _cert(*_M)) is holds


def test_a_farkas_combination_one_unit_from_cancelling_is_rejected():
    prog = _pair(_LEVEL_B + 7)
    assert verify_farkas(prog, _cert(*_M))
    for nudge in (_UNIT, -_UNIT):
        assert not verify_farkas(prog, _cert(_M[0], _M[1] + nudge))


def test_bound_rows_combine_without_unit_rows():
    # x >= lo and x <= up with lo - up one unit above zero, then level
    up = F(5, 7) + F(1, _BIG)
    for lo, holds in ((up + _UNIT, True), (up, False), (up - _UNIT, False)):
        prog = LinearProgram(objective=(F(0), F(0)), bounds=((None, None), (lo, up)))
        cert = FarkasCertificate((F(1, 3), F(1, 3)))
        assert verify_farkas(prog, cert) is holds


def test_farkas_multipliers_may_be_zero_but_not_negative():
    assert verify_farkas(_pair(_LEVEL_B + 7), FarkasCertificate((*_M, 0, 0, 0, 0)))
    # x_0 = 1/3 is two bound rows that cancel under any equal multipliers,
    # and 1/3 + unit <= x_1 <= 1/3 is infeasible: equal negative
    # multipliers on x_0's rows would change neither the sum nor its rhs
    prog = LinearProgram(
        objective=(F(0), F(0)),
        bounds=((F(1, 3), F(1, 3)), (F(1, 3) + _UNIT, F(1, 3))),
    )
    assert verify_farkas(prog, FarkasCertificate((F(0), F(0), F(1), F(1))))
    assert verify_farkas(prog, FarkasCertificate((F(2), F(2), F(1), F(1))))
    assert not verify_farkas(prog, FarkasCertificate((-_UNIT, -_UNIT, F(1), F(1))))


# -- _dominates --------------------------------------------------------------

_SPACE = PossibilitySpace(("a", "b", "c"))
_AB = _SPACE.event(["a", "b"])  # so mass on c changes no expectation
_GX = {"a": F(1, 3) + F(1, _BIG), "b": F(-1, 7), "c": F(5, 7)}  # X|{a,b} at 0


def _search(extra=(), convex=False):
    x = restrict(_SPACE.variable(_GX), _AB)
    items = [(x, 0), *extra]
    return _Search(expanded_elements(Assessment.build(_SPACE, items)), convex=convex)


def _p(t):
    return {0: t, 1: 1 - t, 2: F(0)}


def _p_expecting(e):
    # t.g_a + (1 - t).g_b = e, with 0 < t < 1
    g_a, g_b = _GX["a"], _GX["b"]
    return _p((e - g_b) / (g_a - g_b))


def test_an_expectation_of_zero_dominates():
    search = _search()
    assert search._dominates(_p_expecting(0), [0], ()) == {0: 0}
    assert search._dominates(_p_expecting(0), [], (0,)) == {0: 0}


def test_an_expectation_of_minus_one_millionth_fails():
    search = _search()
    p = _p_expecting(F(-1, 10**6))
    assert p[0] * _GX["a"] + p[1] * _GX["b"] == F(-1, 10**6)
    assert search._dominates(p, [0], ()) is None
    assert search._dominates(_p_expecting(F(1, 10**6)), [], (0,)) is None
    assert search._dominates(_p_expecting(F(1, 10**6)), [0], ()) == {0: F(1, 10**6)}


def test_convexity_compares_expectations_exactly():
    # y - 1 = x - 0 under every p, and y - (1 - 10**-6) expects 10**-6 more
    y = restrict(_SPACE.variable({a: v + 1 for a, v in _GX.items()}), _AB)
    p = _p_expecting(F(1, 3))
    level = _search([(y, 1)], convex=True)
    assert level._dominates(p, [0], (1,)) == {0: F(1, 3), 1: F(1, 3)}
    above = _search([(y, 1 - F(1, 10**6))], convex=True)
    assert above._dominates(p, [0], (1,)) is None
    below = _search([(y, 1 + F(1, 10**6))], convex=True)
    assert below._dominates(p, [0], (1,)) == {0: F(1, 3), 1: F(1, 3) - F(1, 10**6)}


def test_a_dominating_vector_may_have_zeros_but_no_negative_mass():
    search = _search()
    p = _p_expecting(0)
    assert search._dominates({**p, 2: -F(1, _BIG**2)}, [0], ()) is None
    assert search._dominates({0: F(0), 1: F(0), 2: F(0)}, [0], ()) is None


# -- differential: the integer checks against the Fraction formulas ----------

_DENOMINATORS = st.sampled_from([1, 1, 2, 3, 7, _BIG])
_Q = st.builds(F, st.integers(-6, 6), _DENOMINATORS)
_OFFSET = st.sampled_from([F(0), F(0), _UNIT, -_UNIT]) | _Q


@st.composite
def _programs(draw):
    """A program built around a point, so that rows and bounds are often
    level or one unit off at it, with the point itself."""
    n = draw(st.integers(1, 4))
    x = [draw(_Q) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = [draw(_Q | st.just(F(0))) for _ in range(n)]
        rhs = sum(a * v for a, v in zip(coeffs, x)) + draw(_OFFSET)
        rows.append(constraint(coeffs, draw(st.sampled_from(["<=", ">=", "="])), rhs))
    bounds = []
    for v in x:
        kind = draw(st.sampled_from(["free", "zero", "lower", "upper", "both"]))
        lo = v + draw(_OFFSET) if kind in ("lower", "both") else None
        up = v + draw(_OFFSET) if kind in ("upper", "both") else None
        bounds.append((F(0), None) if kind == "zero" else (lo, up))
    prog = LinearProgram(
        objective=tuple(draw(_Q | st.just(F(0))) for _ in range(n)),
        sense=draw(st.sampled_from(["max", "min"])),
        constraints=tuple(rows),
        bounds=tuple(bounds),
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
    n_rows = len(ref.canonical_geq_rows(prog))
    out = solve(prog)  # its own certificate passed the integer checks
    points = [x, _nudged(x, data.draw), [data.draw(_Q) for _ in range(n)], x[:-1]]
    rays = [[data.draw(_Q | st.just(F(0))) for _ in range(n)], [F(0)] * n]
    multipliers = [
        [data.draw(st.sampled_from([F(0), F(0), F(1), F(1, _BIG), F(2, 3)]))
         for _ in range(n_rows)],
        [data.draw(_Q) for _ in range(n_rows)],
        [F(0)] * (n_rows + 1),
    ]
    if isinstance(out, (Optimal, Unbounded)):
        points += [out.point, _nudged(out.point, data.draw)]
    if isinstance(out, Unbounded):
        rays += [out.ray, _nudged(out.ray, data.draw)]
    if isinstance(out, Infeasible):
        m = out.certificate.multipliers
        multipliers += [m, _nudged(m, data.draw), [w * F(3, _BIG) for w in m]]
    rays += [_nudged(r, data.draw) for r in rays]
    for point in points:
        assert satisfies(prog, point) == ref.satisfies(prog, point)
    for ray in rays:
        assert verify_ray(prog, ray) == ref.verify_ray(prog, ray)
    for m in multipliers:
        cert = FarkasCertificate(tuple(m))
        assert verify_farkas(prog, cert) == ref.verify_farkas(prog, cert)


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
    search = _Search(
        expanded_elements(Assessment.build(space, list(items.values()))),
        convex=draw(st.booleans()),
    )
    indices = range(len(search.elements))
    carriers = draw(st.lists(st.sampled_from(indices), unique=True))
    size = 1 if search.convex else draw(st.integers(0, min(2, len(indices))))
    combo = tuple(draw(st.lists(st.sampled_from(indices), min_size=size,
                                max_size=size, unique=True)))
    return search, p, carriers, combo


@settings(max_examples=300, deadline=None)
@given(made=_searches())
def test_dominates_agrees_with_the_fraction_formula(made):
    search, p, carriers, combo = made
    coeffs = [el.coefficients() for el in search.elements]
    expected = ref.dominates(coeffs, search.convex, p, carriers, combo)
    assert search._dominates(p, carriers, combo) == expected
