import random
from fractions import Fraction

import pytest

from conftest import (
    bayes_value,
    positive_vector,
    random_domain,
    random_event,
    random_space,
    random_variable,
)
from previsio.checkers import (
    check_centered_convex,
    check_convex,
    check_df_precise_conditional,
    check_w_coherence,
)
from previsio.envelopes import (
    MAX_ATOMS,
    HalfSpace,
    convex_envelope,
    credal_polytope,
    domination_constraints,
    lower_envelope,
)
from previsio.errors import (
    DimensionLimitExceeded,
    EmptyCredalSet,
    MemberNotCoherent,
    ZeroProbabilityConditioning,
)
from previsio.model import Assessment, PossibilitySpace, restrict, zero_given
from vertex_oracle import oracle_vertices, tight_rank

F = Fraction


def test_vacuous_polytope_is_the_simplex():
    space = PossibilitySpace(("a", "b"))
    x = space.indicator(space.event(["a"]))
    a = Assessment.build(space, [(x.unconditional(), 0)])
    credal = credal_polytope(a)
    assert set(credal.vertices) == {(F(1), F(0)), (F(0), F(1))}


def test_two_binding_constraints_polytope():
    space = PossibilitySpace(("a", "b"))
    w1 = space.indicator(space.event(["a"]))
    w2 = space.indicator(space.event(["b"]))
    a = Assessment.build(
        space,
        [(w1.unconditional(), F(3, 10)), (w2.unconditional(), F(2, 5))],
    )
    credal = credal_polytope(a)
    assert set(credal.vertices) == {
        (F(3, 10), F(7, 10)),
        (F(3, 5), F(2, 5)),
    }


def test_precise_prevision_polytope_is_a_point():
    space = PossibilitySpace(("a", "b", "c"))
    items = [
        (space.indicator(space.event([w])).unconditional(), F(1, 3), F(1, 3))
        for w in space.atoms
    ]
    credal = credal_polytope(Assessment.build(space, items))
    assert credal.vertices == ((F(1, 3), F(1, 3), F(1, 3)),)


def test_precise_entry_keeps_its_upper_halfspace():
    # P(1{a}) = 1/2 precise on three atoms: the credal set is the segment
    # from (1/2, 1/2, 0) to (1/2, 0, 1/2), and with P >= 1/2 alone (1, 0, 0)
    # would be a vertex too
    space = PossibilitySpace(("a", "b", "c"))
    x = space.indicator(space.event(["a"])).unconditional()
    a = Assessment.build(space, [(x, F(1, 2), F(1, 2))])
    assert len(domination_constraints(a)) == 2
    credal = credal_polytope(a)
    assert set(credal.vertices) == {
        (F(1, 2), F(1, 2), F(0)),
        (F(1, 2), F(0), F(1, 2)),
    }


def test_polytope_dimension_cap():
    space = PossibilitySpace(tuple(f"w{i}" for i in range(MAX_ATOMS + 1)))
    x = space.indicator(space.event(["w0"]))
    a = Assessment.build(space, [(x.unconditional(), 0)])
    with pytest.raises(DimensionLimitExceeded):
        credal_polytope(a)


def test_empty_credal_set_reported_distinctly():
    space = PossibilitySpace(("a", "b"))
    x = space.indicator(space.event(["a"]))
    a = Assessment.build(space, [(x.unconditional(), F(3, 2))])  # above sup
    with pytest.raises(EmptyCredalSet):
        credal_polytope(a)


def test_positivity_filter_against_delta_mode():
    space = PossibilitySpace(("a", "b", "c"))
    cell = space.event(["a", "b"])
    x = space.variable({"a": 1, "b": 0, "c": 0})
    a = Assessment.build(space, [(restrict(x, cell), F(1, 2))])
    filtered = credal_polytope(a)
    assert all(
        sum(v[i] for i in cell.members) > 0 for v in filtered.vertices
    )
    delta = credal_polytope(a, delta=F(1, 100))
    assert all(
        sum(v[i] for i in cell.members) >= F(1, 100) for v in delta.vertices
    )
    for vertex in delta.vertices:
        for half in delta.constraints:
            assert half.slack(vertex) >= 0


def test_delta_mode_keeps_only_vertices():
    # the tight positivity rows of (1/4, 1/4, 1/4, 1/4) span the ones
    # row, so a test that ignores sum p = 1 takes it for a vertex; it is
    # the midpoint of the edge from (0, 1/2, 1/2, 0) to (1/2, 0, 0, 1/2)
    space = PossibilitySpace(("a", "b", "c", "d"))
    x = space.indicator(space.event(["a"]))
    a = Assessment.build(space, [(x.unconditional(), 0)])
    credal = credal_polytope(
        a,
        positivity=[
            space.event(["a", "b"]),
            space.event(["c", "d"]),
            space.event(["a", "c"]),
        ],
        delta=F(1, 2),
    )
    half = F(1, 2)
    assert credal.vertices == (
        (F(0), half, half, F(0)),
        (half, F(0), F(0), half),
        (half, F(0), half, F(0)),
    )


def _mass(p, event):
    return sum((p[i] for i in event.members), F(0))


def _random_polytope_case(rng):
    """A conditional assessment with one-sided, two-sided and precise
    entries around the values of a few positive members (so it may be
    incoherent or empty), and a positivity regime: filtered, or under a
    delta."""
    space = random_space(rng, 3, 5)
    members = [positive_vector(rng, space) for _ in range(rng.randint(1, 3))]
    items = []
    for cv in random_domain(rng, space, max_entries=3):
        values = [
            sum(p[i] * v for i, v in cv.value_map().items()) / _mass(p, cv.cond)
            for p in members
        ]
        lower = min(values) + F(rng.randint(-2, 1), 4)
        shape = rng.choice(("one-sided", "two-sided", "precise"))
        if shape == "one-sided":
            items.append((cv, lower))
        elif shape == "two-sided":
            items.append((cv, lower, max(values) + F(rng.randint(-1, 2), 4)))
        else:
            items.append((cv, lower, lower))
    assessment = Assessment.build(space, items)
    positivity = rng.choice((
        None,
        [],
        [random_event(rng, space) for _ in range(rng.randint(1, 3))],
    ))
    if rng.random() < 0.5:
        return assessment, positivity, {}
    return assessment, positivity, {"delta": F(1, rng.randint(2, 12))}


def test_vertices_match_the_subset_oracle():
    rng = random.Random(401)
    seen = {"filter": 0, "delta": 0, "delta rows": 0, "empty": 0}
    for _ in range(240):
        assessment, positivity, regime = _random_polytope_case(rng)
        n = assessment.space.size
        required = (
            list(positivity)
            if positivity is not None
            else [e for e in assessment.conditioning_events() if not e.is_sure]
        )
        halfspaces = domination_constraints(assessment)
        if "delta" in regime:
            for event in required:
                row = tuple(F(int(i in event.members)) for i in range(n))
                halfspaces.append(HalfSpace(row, regime["delta"]))
                seen["delta rows"] += 1
        expected = oracle_vertices(n, halfspaces)
        if "delta" not in regime:
            expected = [
                v for v in expected if all(_mass(v, e) > 0 for e in required)
            ]
        if not expected:
            seen["empty"] += 1
            with pytest.raises(EmptyCredalSet):
                credal_polytope(assessment, positivity, **regime)
            continue
        credal = credal_polytope(assessment, positivity, **regime)
        assert credal.vertices == tuple(expected)
        assert credal.constraints == tuple(halfspaces)
        seen["delta" if "delta" in regime else "filter"] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("atoms", [10, 12])
def test_large_polytope_vertices_are_certified(atoms):
    rng = random.Random(409 + atoms)
    space = PossibilitySpace(tuple(f"w{i}" for i in range(atoms)))
    members = [positive_vector(rng, space) for _ in range(3)]
    domain = [
        restrict(random_variable(rng, space), random_event(rng, space))
        for _ in range(4)
    ]
    env = lower_envelope(space, members, domain)
    items = []
    for entry in env.entries:
        cv = entry.variable
        upper = max(
            sum(p[i] * v for i, v in cv.value_map().items()) / _mass(p, cv.cond)
            for p in members
        )
        items.append((cv, entry.lower, upper))
    two_sided = Assessment.build(space, items)
    credal = credal_polytope(two_sided, positivity=[])
    assert len(credal.vertices) > 300
    for vertex in credal.vertices:
        assert all(x >= 0 for x in vertex) and sum(vertex) == 1
        assert all(h.slack(vertex) >= 0 for h in credal.constraints)
        assert tight_rank(vertex, credal.constraints) == atoms
    per_entry = credal.per_entry_min(two_sided)
    for entry in env.entries:
        assert per_entry[entry.variable] == entry.lower


def test_lower_envelope_singleton_is_the_member():
    space = PossibilitySpace(("a", "b"))
    domain = [
        space.indicator(space.event(["a"])).unconditional(),
        space.indicator(space.event(["b"])).unconditional(),
    ]
    env = lower_envelope(space, [[F(3, 10), F(7, 10)]], domain)
    assert env.lower(domain[0]) == F(3, 10)
    assert env.lower(domain[1]) == F(7, 10)


def test_lower_envelope_pointwise_minimum():
    space = PossibilitySpace(("a", "b"))
    domain = [
        space.indicator(space.event(["a"])).unconditional(),
        space.indicator(space.event(["b"])).unconditional(),
    ]
    env = lower_envelope(
        space,
        [[F(3, 10), F(7, 10)], [F(3, 5), F(2, 5)]],
        domain,
    )
    assert env.lower(domain[0]) == F(3, 10)
    assert env.lower(domain[1]) == F(2, 5)
    assert check_w_coherence(env).passed


def test_lower_envelope_member_validation():
    space = PossibilitySpace(("a", "b"))
    domain = [space.indicator(space.event(["a"])).unconditional()]
    with pytest.raises(MemberNotCoherent):
        lower_envelope(space, [[F(1, 2), F(1, 3)]], domain)  # does not sum to 1
    cell = space.event(["a"])
    conditional_domain = [restrict(space.indicator(cell), cell)]
    with pytest.raises(ZeroProbabilityConditioning):
        lower_envelope(space, [[F(0), F(1)]], conditional_domain)


def test_a_member_with_mass_on_every_conditioning_event_is_df_coherent():
    # why `lower_envelope` checks no member by a program: under such a
    # member p, every bet on its previsions expects 0, and the union of
    # the bet's events has positive mass, so the bet gains >= 0 somewhere
    # there.  Some members leave atoms without mass
    rng = random.Random(313)
    members = zero_atoms = 0
    while members < 80:
        space = random_space(rng, 3, 5)
        weights = [rng.choice([0, 1, 2, 3, 5]) for _ in space.atoms]
        if not any(weights):
            continue
        p = [F(w, sum(weights)) for w in weights]
        domain = [
            cv for cv in random_domain(rng, space, max_entries=4)
            if any(p[i] for i in cv.cond.members)
        ]
        if not domain:
            continue
        values = [bayes_value(p, cv) for cv in domain]
        member = Assessment.build(space, [(cv, v, v) for cv, v in zip(domain, values)])
        assert check_df_precise_conditional(member).passed
        envelope = lower_envelope(space, [p], domain)
        assert [envelope.lower(cv) for cv in domain] == values
        members += 1
        zero_atoms += 0 in weights
    assert zero_atoms > 20


def test_envelope_round_trip_randomized():
    rng = random.Random(307)
    for _ in range(30):
        space = random_space(rng, 3, 4)
        domain = random_domain(rng, space, max_entries=3)
        members = [positive_vector(rng, space) for _ in range(rng.randint(1, 3))]
        env = lower_envelope(space, members, domain)
        assert check_w_coherence(env).passed
        credal = credal_polytope(env, positivity=[])
        per_entry = credal.per_entry_min(env)
        for entry in env.entries:
            assert per_entry[entry.variable] == entry.lower


def test_vertices_dominate_the_assessment():
    rng = random.Random(311)
    for _ in range(20):
        space = random_space(rng, 3, 3)
        domain = random_domain(rng, space, max_entries=3)
        members = [positive_vector(rng, space) for _ in range(2)]
        env = lower_envelope(space, members, domain)
        credal = credal_polytope(env, positivity=[])
        for vertex in credal.vertices:
            for entry in env.entries:
                cv = entry.variable
                mass = sum(vertex[i] for i in cv.cond.members)
                if mass == 0:
                    continue
                value = (
                    sum(vertex[i] * v for i, v in cv.value_map().items()) / mass
                )
                assert value >= entry.lower


def test_convex_envelope_alpha_zero_reduces_to_lower_envelope():
    space = PossibilitySpace(("a", "b"))
    domain = [
        space.indicator(space.event(["a"])).unconditional(),
        space.indicator(space.event(["b"])).unconditional(),
    ]
    members = [[F(3, 10), F(7, 10)], [F(3, 5), F(2, 5)]]
    plain = lower_envelope(space, members, domain)
    shifted = convex_envelope(space, members, [0, 0], domain)
    assert shifted.assessment == plain
    assert shifted.centered
    assert check_w_coherence(shifted.assessment).passed


def test_convex_envelope_shifted_single_member():
    space = PossibilitySpace(("a", "b"))
    cell = space.event(["a"])
    x = space.variable({"a": 4, "b": 0})
    domain = [restrict(x, cell), zero_given(cell)]
    result = convex_envelope(space, [[F(1, 2), F(1, 2)]], [1], domain)
    assert result.assessment.lower(domain[0]) == F(6)  # P(X|B) + 1/(1/2)
    assert not result.centered
    assert check_convex(result.assessment).passed
    assert not check_centered_convex(result.assessment).passed


def test_convex_envelope_centered_flag_matches_direct_test():
    rng = random.Random(313)
    for _ in range(25):
        space = random_space(rng, 3, 3)
        domain = random_domain(rng, space, max_entries=2)
        for cv in list(domain):
            zero = zero_given(cv.cond)
            if zero not in domain:
                domain.append(zero)
        members = [positive_vector(rng, space) for _ in range(rng.randint(1, 3))]
        alphas = [F(rng.randint(0, 3), 2) for _ in members]
        result = convex_envelope(space, members, alphas, domain)
        assert check_convex(result.assessment).passed
        events = []
        for cv in domain:
            if cv.cond not in events:
                events.append(cv.cond)
        direct = all(
            min(
                a / sum(p[i] for i in event.members)
                for p, a in zip(
                    [[F(x) for x in m] for m in members], alphas
                )
            )
            == 0
            for event in events
        )
        assert result.centered == direct
        if result.centered:
            assert check_centered_convex(result.assessment).passed
