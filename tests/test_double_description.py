"""The double description on integer rows against its `Fraction` form.

`fraction_dd` keeps the enumeration on `Fraction` vertices; the two
must return the same vertices in the same order, the same constraints,
and fail with `EmptyCredalSet` on the same inputs.  The cases reach 12
atoms, carry coefficients over coprime denominators up to 2**61 - 1,
and include cuts through several vertices at once.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_dd
from conftest import positive_vector, random_event, random_variable
from previsio import envelopes
from previsio.envelopes import HalfSpace, credal_polytope
from previsio.errors import EmptyCredalSet
from previsio.model import Assessment, PossibilitySpace, restrict
from vertex_oracle import oracle_vertices

F = Fraction
DENOMINATORS = (1, 3, 7, 2**61 - 1)


def points(n, halfspaces):
    return [
        tuple(F(x, d) for x in v) for v, d in envelopes._enumerate_vertices(n, halfspaces)
    ]


def zero_slacks(n, halfspaces):
    """The most vertices that one cut of the `Fraction` enumeration
    finds exactly on its hyperplane."""
    vertices = fraction_dd._simplex_vertices(n)
    most = 0
    for i, h in enumerate(halfspaces):
        most = max(most, sum(h.slack(v) == 0 for v, _ in vertices))
        vertices = fraction_dd._cut(vertices, h, 1 << (n + i), n)
        if not vertices:
            break
    return most


def random_halfspace(rng, n):
    """Dense rows over one of `DENOMINATORS`, or sparse rows p_a >= p_b
    scaled by one, which every unit vector but two meets with equality."""
    den = rng.choice(DENOMINATORS)
    if rng.random() < 0.3:
        a, b = rng.sample(range(n), 2)
        coeffs = [F(0)] * n
        coeffs[a], coeffs[b] = F(1, den), F(-1, den)
        return HalfSpace(tuple(coeffs), F(0))
    coeffs = tuple(F(rng.randint(-3, 3), den) for _ in range(n))
    rhs = F(rng.randint(-1, 1), rng.choice(DENOMINATORS))
    return HalfSpace(coeffs, rhs)


def test_int_vertices_match_the_fraction_enumeration():
    rng = random.Random(907)
    seen = {"nonempty": 0, "empty": 0, "degenerate": 0}
    for _ in range(150):
        n = rng.randint(4, 12)
        halfspaces = [random_halfspace(rng, n) for _ in range(rng.randint(1, 6 if n <= 8 else 4))]
        expected = fraction_dd.enumerate_vertices(n, halfspaces)
        assert points(n, halfspaces) == expected
        seen["nonempty" if expected else "empty"] += 1
        seen["degenerate"] += zero_slacks(n, halfspaces) >= 2
    assert min(seen.values()) >= 10, seen


def test_homogeneous_vertices_are_in_lowest_terms():
    rng = random.Random(911)
    for _ in range(40):
        n = rng.randint(4, 8)
        halfspaces = [random_halfspace(rng, n) for _ in range(4)]
        for v, d in envelopes._enumerate_vertices(n, halfspaces):
            assert all(type(x) is int and x >= 0 for x in v)
            assert type(d) is int and sum(v) == d > 0
            assert math.gcd(*v) == 1


@st.composite
def halfspace_systems(draw):
    n = draw(st.integers(4, 12))
    rows = []
    for _ in range(draw(st.integers(1, 5 if n <= 8 else 3))):
        den = draw(st.sampled_from(DENOMINATORS))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rhs = F(draw(st.integers(-2, 2)), draw(st.sampled_from(DENOMINATORS)))
        rows.append(HalfSpace(tuple(F(c, den) for c in coeffs), rhs))
    return n, rows


@settings(max_examples=60, deadline=None)
@given(halfspace_systems())
def test_int_vertices_match_the_fraction_enumeration_property(system):
    n, halfspaces = system
    assert points(n, halfspaces) == fraction_dd.enumerate_vertices(n, halfspaces)


def test_large_denominators_match_the_subset_oracle():
    rng = random.Random(919)
    nonempty = 0
    for _ in range(40):
        n = rng.randint(4, 6)
        halfspaces = [random_halfspace(rng, n) for _ in range(rng.randint(2, 4))]
        expected = oracle_vertices(n, halfspaces)
        assert points(n, halfspaces) == expected
        nonempty += bool(expected)
    assert nonempty >= 10


def _assessment_case(rng):
    """An assessment on 4-12 atoms around the values of a few positive
    members, its values and bounds moved by multiples of 1/3, 1/7 or
    1/(2**61 - 1) (so it may be incoherent or empty), and a positivity
    regime: filtered, or under a delta."""
    atoms = rng.randint(4, 12)
    space = PossibilitySpace(tuple(f"w{i}" for i in range(atoms)))
    members = [positive_vector(rng, space) for _ in range(2)]
    items = []
    for _ in range(rng.randint(1, 3 if atoms <= 8 else 2)):
        cond = random_event(rng, space)
        cv = restrict(random_variable(rng, space), cond)
        if any(cv == item[0] for item in items):
            continue
        values = [
            sum(p[i] * v for i, v in cv.value_map().items())
            / sum(p[i] for i in cond.members)
            for p in members
        ]
        shift = F(rng.randint(-1, 3), rng.choice(DENOMINATORS))
        if rng.random() < 0.5:
            items.append((cv, min(values) + shift))
        else:
            items.append((cv, min(values) + shift, max(values) + shift))
    assessment = Assessment.build(space, items)
    positivity = rng.choice((None, [], [random_event(rng, space)]))
    if rng.random() < 0.5:
        return assessment, positivity, {}
    return assessment, positivity, {"delta": F(1, rng.choice(DENOMINATORS[1:]))}


def test_credal_polytope_matches_the_fraction_enumeration():
    rng = random.Random(929)
    seen = {"filter": 0, "delta": 0, "empty": 0}
    for _ in range(120):
        assessment, positivity, regime = _assessment_case(rng)
        try:
            expected = fraction_dd.credal_polytope(assessment, positivity, **regime)
        except EmptyCredalSet:
            seen["empty"] += 1
            with pytest.raises(EmptyCredalSet):
                credal_polytope(assessment, positivity, **regime)
            continue
        credal = credal_polytope(assessment, positivity, **regime)
        assert credal.vertices == expected.vertices
        assert credal.constraints == expected.constraints
        seen["delta" if "delta" in regime else "filter"] += 1
    assert min(seen.values()) >= 10, seen
