import random
from fractions import Fraction

import pytest

from conftest import (
    family_entries,
    positive_vector,
    random_arbitrary_assessment,
    random_coherent_assessment,
    random_precise_assessment,
    random_shifted_assessment,
    random_space,
)
from corpus import small_corpus
from previsio import gains, lp
from previsio.checkers import (
    PartitionFamily,
    check_aul,
    check_bi_coherence,
    check_centered_convex,
    check_coherence_unconditional,
    check_convex,
    check_df_precise_conditional,
    check_df_precise_unconditional,
    check_separate_coherence,
    check_w_coherence,
    check_walley_asl,
    _Search,
    expanded_elements,
)
from previsio.conglomerability import definetti_example, walley_666_example
from previsio.jsonio import load_problem
from previsio.envelopes import HalfSpace, convex_envelope, lower_envelope
from previsio.errors import (
    ConditionalEntriesUnsupported,
    EmptyAssessment,
    MalformedFamily,
    MissingSelfIndicator,
    MissingZeroVariables,
    NotPrecise,
)
from previsio.model import Assessment, Entry, PossibilitySpace, restrict, zero_given
from vertex_oracle import oracle_vertices

F = Fraction


def vacuous(space, domain):
    return Assessment.build(space, [(cv, cv.inf()) for cv in domain])


def witness_is_sound(verdict, assessment):
    table = gains.gain(verdict.witness, assessment)
    return table.sup_on_conditioning() < 0


# ---------------------------------------------------------------------------
# W-coherence


def test_w_coherence_vacuous_passes():
    space = PossibilitySpace(("a", "b", "c"))
    domain = [
        restrict(space.variable({"a": 1, "b": 2, "c": 0}), space.event(["a", "b"])),
        space.variable({"a": -1, "b": 4, "c": 2}).unconditional(),
    ]
    verdict = check_w_coherence(vacuous(space, domain))
    assert verdict.passed


def test_w_coherence_price_above_sup_fails_with_witness():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": 0})
    a = Assessment.build(space, [(x.unconditional(), F(3, 2))])
    verdict = check_w_coherence(a)
    assert not verdict.passed
    assert witness_is_sound(verdict, a)


def test_w_coherence_price_below_inf_fails():
    # coherence forces prices into [inf, sup]: selling at the assessed
    # price is a sure loss when it undercuts the infimum
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 3, "b": 5})
    a = Assessment.build(space, [(x.unconditional(), 1)])
    verdict = check_w_coherence(a)
    assert not verdict.passed
    assert witness_is_sound(verdict, a)
    sides = {t.side for t in verdict.witness.terms}
    assert sides == {"against"}


def test_w_coherence_upper_below_lower_detected():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": 0})
    a = Assessment.build(space, [(x.unconditional(), F(2, 3), F(1, 3))])
    verdict = check_w_coherence(a)
    assert not verdict.passed
    assert witness_is_sound(verdict, a)


def test_w_coherence_definetti_truncation_passes():
    problem = load_problem(definetti_example(1, 2, 4))
    assert check_w_coherence(problem.assessment).passed


def test_empty_assessment_rejected():
    space = PossibilitySpace(("a",))
    with pytest.raises(EmptyAssessment):
        check_w_coherence(Assessment(space, ()))


# ---------------------------------------------------------------------------
# AUL


def test_aul_overpriced_atoms():
    space = PossibilitySpace(("a", "b"))
    items = [
        (space.indicator(space.event([w])).unconditional(), F(3, 5))
        for w in space.atoms
    ]
    a = Assessment.build(space, items)
    verdict = check_aul(a)
    assert not verdict.passed
    table = gains.gain(verdict.witness, a)
    assert table.sup_on_conditioning() == F(-1, 10)
    assert {t.stake for t in verdict.witness.terms} == {F(1, 2)}


def test_w_coherent_implies_aul_randomized():
    rng = random.Random(101)
    for _ in range(25):
        a = random_coherent_assessment(rng)
        assert check_w_coherence(a).passed
        assert check_aul(a).passed


def test_precise_aul_equals_df():
    rng = random.Random(103)
    for _ in range(20):
        a = random_precise_assessment(rng)
        assert check_aul(a).passed == check_df_precise_conditional(a).passed
    space = PossibilitySpace(("a", "b"))
    x = space.indicator(space.event(["a"]))
    bad = Assessment.build(
        space,
        [
            (x.unconditional(), F(1, 2), F(1, 2)),
            (x.scale(2).unconditional(), F(2, 3), F(2, 3)),
        ],
    )
    assert not check_aul(bad).passed
    assert not check_df_precise_conditional(bad).passed


# ---------------------------------------------------------------------------
# precise dF-coherence


def test_df_uniform_probability_passes():
    space = PossibilitySpace(("a", "b", "c"))
    items = [
        (space.indicator(space.event([w])).unconditional(), F(1, 3), F(1, 3))
        for w in space.atoms
    ]
    assert check_df_precise_conditional(Assessment.build(space, items)).passed
    assert check_df_precise_unconditional(Assessment.build(space, items)).passed


def test_df_definetti_n8_passes():
    problem = load_problem(definetti_example(1, 2, 8))
    assert check_df_precise_conditional(problem.assessment).passed


def test_df_conflicting_scaled_copy_fails():
    # a second variable carrying the same information priced differently:
    # two-sided betting exposes the conflict
    space = PossibilitySpace(("a", "b"))
    x = space.indicator(space.event(["a"]))
    a = Assessment.build(
        space,
        [
            (x.unconditional(), F(1, 2), F(1, 2)),
            (x.scale(2).unconditional(), F(2, 3), F(2, 3)),
        ],
    )
    verdict = check_df_precise_conditional(a)
    assert not verdict.passed
    assert witness_is_sound(verdict, a)


def test_df_requires_precision():
    space = PossibilitySpace(("a", "b"))
    x = space.indicator(space.event(["a"]))
    imprecise = Assessment.build(space, [(x.unconditional(), F(1, 3), F(1, 2))])
    with pytest.raises(NotPrecise):
        check_df_precise_conditional(imprecise)
    lower_only = Assessment.build(space, [(x.unconditional(), F(1, 3))])
    with pytest.raises(NotPrecise):
        check_df_precise_conditional(lower_only)


def test_unconditional_checkers_reject_conditional_entries():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": 0})
    a = Assessment.build(space, [(restrict(x, space.event(["a"])), 1, 1)])
    with pytest.raises(ConditionalEntriesUnsupported):
        check_df_precise_unconditional(a)
    with pytest.raises(ConditionalEntriesUnsupported):
        check_coherence_unconditional(a)
    with pytest.raises(ConditionalEntriesUnsupported):
        check_bi_coherence(a)


# ---------------------------------------------------------------------------
# bi-coherence


def test_bi_coherence_vacuous_three_atoms_passes():
    space = PossibilitySpace(("w1", "w2", "w3"))
    items = [
        (space.indicator(space.event([w])).unconditional(), 0) for w in space.atoms
    ]
    assert check_bi_coherence(Assessment.build(space, items)).passed


def test_bi_coherence_vacuous_two_atoms_fails_uniformly():
    space = PossibilitySpace(("w1", "w2"))
    items = [
        (space.indicator(space.event([w])).unconditional(), 0) for w in space.atoms
    ]
    a = Assessment.build(space, items)
    verdict = check_bi_coherence(a)
    assert not verdict.passed
    table = gains.gain(verdict.witness, a)
    assert set(table.values.values) == {F(-1, 2)}
    assert all(t.side == "against" and t.stake == F(1, 2) for t in verdict.witness.terms)


def test_bi_coherence_df_precise_passes():
    rng = random.Random(107)
    for _ in range(15):
        a = random_precise_assessment(rng, conditional=False)
        assert check_bi_coherence(a).passed


def test_bi_coherence_additivity_property():
    # on domains containing x, y and x + y a passing prevision is additive
    rng = random.Random(109)
    additive_cases = 0
    for _ in range(40):
        space = random_space(rng)
        x = space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms})
        y = space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms})
        domain = [x.unconditional(), y.unconditional(), (x + y).unconditional()]
        if len(set(domain)) < 3:
            continue
        members = [positive_vector(rng, space) for _ in range(rng.randint(1, 2))]
        a = lower_envelope(space, members, domain)
        if check_bi_coherence(a).passed:
            additive_cases += 1
            assert a.lower(domain[2]) == a.lower(domain[0]) + a.lower(domain[1])
    assert additive_cases > 5


def test_bi_coherence_negative_scaling_property():
    rng = random.Random(113)
    seen = 0
    for _ in range(40):
        space = random_space(rng)
        x = space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms})
        alpha = F(-rng.randint(1, 3))
        domain = [x.unconditional(), x.scale(alpha).unconditional()]
        if len(set(domain)) < 2:
            continue
        members = [positive_vector(rng, space) for _ in range(rng.randint(1, 2))]
        a = lower_envelope(space, members, domain)
        if check_bi_coherence(a).passed:
            seen += 1
            assert a.lower(domain[1]) == alpha * a.lower(domain[0])
    assert seen > 5


# ---------------------------------------------------------------------------
# convexity


def with_zeros(a):
    """`a` with 0|B assessed at 0 for every conditioning event B."""
    items = [(e.variable, e.lower, e.upper) for e in a.entries]
    for event in a.conditioning_events():
        zero = zero_given(event)
        if a.entry_for(zero) is None:
            items.append((zero, 0, None))
    return Assessment.build(a.space, items)


def test_w_coherent_with_zeros_is_centered_convex():
    rng = random.Random(127)
    for _ in range(15):
        enriched = with_zeros(random_coherent_assessment(rng))
        assert check_w_coherence(enriched).passed
        assert check_convex(enriched).passed
        assert check_centered_convex(enriched).passed


def test_alpha_shifted_envelope_convex_not_centered():
    space = PossibilitySpace(("a", "b"))
    cell = space.event(["a"])
    x = space.variable({"a": 4, "b": 0})
    domain = [restrict(x, cell), zero_given(cell)]
    result = convex_envelope(space, [[F(1, 2), F(1, 2)]], [F(1)], domain)
    assert result.assessment.lower(domain[0]) == F(4) + F(2)
    assert result.assessment.lower(domain[1]) == F(2)
    assert not result.centered
    assert check_convex(result.assessment).passed
    verdict = check_centered_convex(result.assessment)
    assert not verdict.passed
    assert verdict.structural_failure is not None
    assert verdict.witness is None


def test_centered_convex_missing_zero_raises():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": 0})
    a = Assessment.build(space, [(x.unconditional(), F(1, 2))])
    with pytest.raises(MissingZeroVariables):
        check_centered_convex(a)


def test_centered_convex_nonzero_price_fails_structurally():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": 0})
    a = Assessment.build(
        space,
        [(x.unconditional(), F(1, 2)), (zero_given(space.omega()), 1)],
    )
    verdict = check_centered_convex(a)
    assert not verdict.passed
    assert verdict.structural_failure


# ---------------------------------------------------------------------------
# separate coherence


def _separate_family(space, cells, price_of_cell=None):
    items = []
    for cell in cells:
        indicator = restrict(space.indicator(cell), cell)
        price = 1 if price_of_cell is None else price_of_cell(cell)
        items.append((indicator, price))
    return Assessment.build(space, items)


def test_separate_vacuous_passes():
    space = PossibilitySpace(("a", "b", "c"))
    cells = [space.event(["a"]), space.event(["b", "c"])]
    verdict = check_separate_coherence(_separate_family(space, cells))
    assert verdict.passed


def test_separate_wrong_self_price_fails():
    space = PossibilitySpace(("a", "b", "c"))
    cells = [space.event(["a", "b"]), space.event(["c"])]
    family = _separate_family(
        space, cells, lambda cell: F(1, 2) if len(cell) == 2 else 1
    )
    verdict = check_separate_coherence(family)
    assert not verdict.passed
    assert verdict.structural_failure


def test_separate_missing_self_indicator():
    space = PossibilitySpace(("a", "b"))
    cell = space.event(["a", "b"])
    x = space.variable({"a": 1, "b": 0})
    family = Assessment.build(space, [(restrict(x, cell), F(1, 2))])
    with pytest.raises(MissingSelfIndicator):
        check_separate_coherence(family)


def _random_separate_family(rng):
    space = random_space(rng)
    atoms = list(space.atoms)
    rng.shuffle(atoms)
    split = rng.randint(1, len(atoms) - 1)
    cells = [space.event(atoms[:split]), space.event(atoms[split:])]
    p = positive_vector(rng, space)
    items = {}
    for cell in cells:
        indicator = restrict(space.indicator(cell), cell)
        items[indicator] = (F(1), F(1))
        for _ in range(rng.randint(0, 2)):
            x = space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms})
            cv = restrict(x, cell)
            if cv in items:
                continue
            mass = sum(p[i] for i in cell.members)
            value = sum(p[i] * v for i, v in cv.value_map().items()) / mass
            jitter = F(rng.randint(0, 2), 7)
            items[cv] = (value - jitter, None)
    return Assessment.build(space, [(cv, lo, up) for cv, (lo, up) in items.items()])


def test_separate_equivalent_to_w_coherence_of_merged():
    rng = random.Random(131)
    for _ in range(25):
        family = _random_separate_family(rng)
        assert check_separate_coherence(family).passed == check_w_coherence(family).passed


def test_separate_witness_reverifies():
    space = PossibilitySpace(("a", "b", "c"))
    cell = space.event(["a", "b"])
    other = space.event(["c"])
    x = space.variable({"a": 1, "b": 0, "c": 0})
    family = Assessment.build(
        space,
        [
            (restrict(space.indicator(cell), cell), 1),
            (restrict(x, cell), F(3, 2)),  # above the sup on the cell
            (restrict(space.indicator(other), other), 1),
        ],
    )
    verdict = check_separate_coherence(family)
    assert not verdict.passed
    table = gains.gain(verdict.witness, family)
    assert table.sup_on_conditioning() < 0


# ---------------------------------------------------------------------------
# partition decomposition of W-coherence


def test_partition_decomposition_matches_whole():
    rng = random.Random(137)
    for _ in range(20):
        space = random_space(rng, 4, 4)
        left = space.event(space.atoms[:2])
        right = space.event(space.atoms[2:])
        items = []
        p = positive_vector(rng, space)
        for cell in (left, right):
            for _ in range(rng.randint(1, 2)):
                x = space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms})
                sub = rng.choice(
                    [cell, space.event([space.atoms[min(cell.members)]])]
                )
                cv = restrict(x, sub)
                if any(cv == c for c, *_ in items):
                    continue
                mass = sum(p[i] for i in sub.members)
                value = sum(p[i] * v for i, v in cv.value_map().items()) / mass
                items.append((cv, value - F(rng.randint(0, 1), 5)))
        whole = Assessment.build(space, items)
        pieces = [
            Assessment.build(
                space, [(cv, lo) for cv, lo in items if cv.cond.implies(cell)]
            )
            for cell in (left, right)
        ]
        piecewise = all(
            check_w_coherence(piece).passed for piece in pieces if len(piece)
        )
        assert piecewise == check_w_coherence(whole).passed


# ---------------------------------------------------------------------------
# product rule


def test_product_rule_on_coherent_triples():
    rng = random.Random(139)
    seen = 0
    for _ in range(40):
        space = random_space(rng, 3, 4)
        b = space.omega()
        a_event = random_event_strict(rng, space)
        meet = a_event
        x = space.variable({at: F(rng.randint(0, 4)) for at in space.atoms})
        ax = space.indicator(a_event).pointwise_mul(x)
        domain = [
            restrict(ax, b),
            restrict(space.indicator(a_event), b),
            restrict(x, meet),
        ]
        if len(set(domain)) < 3:
            continue
        members = [positive_vector(rng, space) for _ in range(rng.randint(1, 3))]
        assessment = lower_envelope(space, members, domain)
        if assessment.lower(domain[2]) <= 0:
            continue
        assert check_w_coherence(assessment).passed
        seen += 1
        assert assessment.lower(domain[0]) >= assessment.lower(domain[1]) * assessment.lower(domain[2])
    assert seen > 5


def random_event_strict(rng, space):
    while True:
        picked = [a for a in space.atoms if rng.random() < 0.5]
        if picked and len(picked) < space.size:
            return space.event(picked)


# ---------------------------------------------------------------------------
# Walley's avoiding sure loss


def _bayes_family(space, cells, members, p, side=()):
    """The family of `members` on `cells`, and the assessment of the
    entries `side`, then of each member's Bayes value under p on each
    cell."""
    table = []
    for member in members:
        row = []
        for cell in cells:
            mass = sum(p[i] for i in cell.members)
            value = sum(
                p[i] * member.values[i] for i in cell.members
            ) / mass
            row.append(value)
        table.append(row)
    entries = family_entries(cells, members, table)
    return Assessment(space, (*side, *entries)), PartitionFamily(space, tuple(cells), tuple(members))


def test_walley_asl_bayes_family_passes():
    space = PossibilitySpace(("a", "b", "c", "d"))
    cells = [space.event(["a", "b"]), space.event(["c", "d"])]
    members = [
        space.constant(0),
        space.indicator(cells[0]),
        space.indicator(cells[1]),
        space.variable({"a": 1, "b": 0, "c": 2, "d": 1}),
    ]
    p = [F(1, 4)] * 4
    k = Assessment.build(
        space, [(members[3].unconditional(), F(1), F(1))]
    )
    assessment, family = _bayes_family(space, cells, members, p, k.entries)
    verdict = check_walley_asl(assessment, family)
    assert verdict.passed


def test_walley_asl_reduces_to_coherence_on_trivial_partition():
    rng = random.Random(149)
    for _ in range(15):
        space = random_space(rng)
        omega = space.omega()
        p = positive_vector(rng, space)
        members = [space.constant(0), space.indicator(omega)]
        extra = space.variable({a: F(rng.randint(-2, 3)) for a in space.atoms})
        members.append(extra)
        assessment, family = _bayes_family(space, [omega], members, p)
        verdict = check_walley_asl(assessment, family)
        assert verdict.passed == check_coherence_unconditional(assessment).passed


def test_walley_asl_implies_aul_randomized():
    rng = random.Random(151)
    checked = 0
    for _ in range(20):
        space = random_space(rng, 4, 4)
        cells = [space.event(space.atoms[:2]), space.event(space.atoms[2:])]
        members = [
            space.constant(0),
            space.indicator(cells[0]),
            space.indicator(cells[1]),
            space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms}),
        ]
        p = positive_vector(rng, space)
        k = Assessment.build(
            space,
            [(
                members[3].unconditional(),
                sum(pi * v for pi, v in zip(p, members[3].values)),
            )],
        )
        assessment, family = _bayes_family(space, cells, members, p, k.entries)
        verdict = check_walley_asl(assessment, family)
        if verdict.passed:
            checked += 1
            assert check_aul(assessment).passed
    assert checked > 10


def test_walley_asl_detects_sure_loss():
    # a non-conglomerable combination: the variable is priced alike on
    # both cells but otherwise unconditionally, so buying it where it is
    # cheaper and selling it where it is dearer loses 2/5 whatever
    # happens; in the second case a precise member is sold cell-wise at
    # its upper value
    space = PossibilitySpace(("a", "b", "c", "d"))
    cells = [space.event(["a", "b"]), space.event(["c", "d"])]
    x = space.variable({"a": 1, "b": 0, "c": 1, "d": 0})
    members = [
        space.constant(0),
        space.indicator(cells[0]),
        space.indicator(cells[1]),
        x,
    ]
    family = PartitionFamily(space, tuple(cells), tuple(members))
    cases = [
        (F(1, 2), F(9, 10), ("against", "upper"), ("for", "lower")),
        (F(9, 10), F(1, 2), ("for", "lower"), ("against", "upper")),
    ]
    for side_value, cell_value, outright, cellwise in cases:
        table = [[0, 0], [1, 0], [0, 1], [cell_value, cell_value]]
        k = Assessment.build(space, [(x.unconditional(), side_value, side_value)])
        assessment = Assessment(space, (*k.entries, *family_entries(cells, members, table)))
        verdict = check_walley_asl(assessment, family)
        assert not verdict.passed
        assert verdict.prerequisite_failure is None
        assert [(t.variable, t.stake, t.side, t.price) for t in verdict.witness.terms] == [
            (x.unconditional(), F(1, 2), *outright),
            (restrict(x, cells[0]), F(1, 2), *cellwise),
            (restrict(x, cells[1]), F(1, 2), *cellwise),
        ]
        table_ = gains.gain(verdict.witness, assessment)
        assert table_.sup_on_conditioning() < 0
        assert list(table_.values.values) == [F(-1, 5)] * 4


def test_walley_asl_truncated_mixture_example_passes():
    # the two-sided mixture truncated with a remainder cell: every cell
    # has positive mass, all values are Bayes quotients, so no gain of
    # the conglomerative form can be uniformly negative
    doc = walley_666_example(4)
    problem = load_problem(doc)
    space = problem.space
    omega = space.omega()
    cells = [problem.events[name] for name in (*doc["cells"], "Brest")]
    members = [space.constant(0)] + [space.indicator(c) for c in cells]
    members.append(problem.variables["A"])
    p = [
        problem.assessment.lower(restrict(space.indicator(space.event([a])), omega))
        for a in space.atoms
    ]
    table = []
    for member in members:
        row = []
        for cell in cells:
            mass = sum(p[i] for i in cell.members)
            row.append(sum(p[i] * member.values[i] for i in cell.members) / mass)
        table.append(row)
    family = PartitionFamily(space, tuple(cells), tuple(members))
    k = Assessment.build(
        space,
        [(problem.variables["A"].unconditional(), F(1, 2), F(1, 2))],
    )
    assessment = Assessment(space, (*k.entries, *family_entries(cells, members, table)))
    verdict = check_walley_asl(assessment, family)
    assert verdict.prerequisite_failure is None
    assert verdict.passed
    # and the merged reading still avoids uniform loss
    assert check_aul(assessment).passed


def test_walley_asl_prerequisite_failure_reported():
    space = PossibilitySpace(("a", "b"))
    cells = [space.event(["a"]), space.event(["b"])]
    members = [space.constant(0), space.indicator(cells[0]), space.indicator(cells[1])]
    table = [[0, 0], [1, 0], [0, 1]]
    family = PartitionFamily(space, tuple(cells), tuple(members))
    x = space.variable({"a": 1, "b": 0})
    bad_k = Assessment.build(space, [(x.unconditional(), F(3, 2))])
    assessment = Assessment(space, (*bad_k.entries, *family_entries(cells, members, table)))
    verdict = check_walley_asl(assessment, family)
    assert not verdict.passed
    assert verdict.prerequisite_failure


def _two_singletons():
    """A family on two singleton cells, and its indicator table."""
    space = PossibilitySpace(("a", "b"))
    cells = [space.event(["a"]), space.event(["b"])]
    members = [space.constant(0), space.indicator(cells[0]), space.indicator(cells[1])]
    return space, cells, members, [[0, 0], [1, 0], [0, 1]]


def test_walley_asl_refuses_an_entry_no_member_stands_for():
    # Y|{a} priced above its supremum: checked without it, the family
    # would pass
    space, cells, members, table = _two_singletons()
    y = space.variable({"a": 5, "b": -5})
    entries = [*family_entries(cells, members, table), Entry(restrict(y, cells[0]), 99)]
    family = PartitionFamily(space, tuple(cells), tuple(members))
    with pytest.raises(MalformedFamily, match="entry of \\(5\\) given {a} is no family member"):
        check_walley_asl(Assessment(space, tuple(entries)), family)


def test_walley_asl_refuses_a_member_missing_on_a_cell():
    space, cells, members, table = _two_singletons()
    x = space.variable({"a": 2, "b": 3})
    entries = [*family_entries(cells, members, table), Entry(restrict(x, cells[0]), 2)]
    family = PartitionFamily(space, tuple(cells), (*members, x))
    with pytest.raises(MalformedFamily, match="member \\(2, 3\\) has no entry given {b}"):
        check_walley_asl(Assessment(space, tuple(entries)), family)


@pytest.mark.parametrize(
    "drop,extra,message",
    [
        (None, 1, "members must be distinct variables"),
        (0, None, "the zero variable must belong to the family"),
        (2, None, "every cell indicator must belong to the family"),
    ],
)
def test_a_family_refuses_members_that_are_no_partition_family(drop, extra, message):
    # a member twice, or the zero variable or a cell indicator left out
    space, cells, members, _ = _two_singletons()
    if extra is not None:
        members.append(members[extra])
    if drop is not None:
        del members[drop]
    with pytest.raises(MalformedFamily, match=message):
        PartitionFamily(space, tuple(cells), tuple(members))


def _walley_family(rng):
    space = random_space(rng, 4, 4)
    cells = [space.event(space.atoms[:2]), space.event(space.atoms[2:])]
    x = space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms})
    members = [space.constant(0), space.indicator(cells[0]), space.indicator(cells[1]), x]
    p = positive_vector(rng, space)
    k = Assessment.build(
        space, [(x.unconditional(), sum(pi * v for pi, v in zip(p, x.values)))]
    )
    return k, *_bayes_family(space, cells, members, p, k.entries)


def test_nested_checks_count_what_their_inner_checks_count_alone(monkeypatch):
    # one trace runs through a nested check: its count is the sum of its
    # inner checks' counts when each is run alone, its pivots their max
    rng = random.Random(167)
    for _ in range(10):
        family = _random_separate_family(rng)
        inner = []
        for cell in family.conditioning_events():
            entries = [e for e in family.entries if e.variable.cond == cell]
            inner.append(check_w_coherence(Assessment(family.space, tuple(entries))))
            if not inner[-1].passed:
                break
        verdict = check_separate_coherence(family)
        assert verdict.passed == all(v.passed for v in inner)
        assert verdict.lp_count == sum(v.lp_count for v in inner) > 0
        assert verdict.max_pivots == max(v.max_pivots for v in inner)

    pivots = []
    solve = lp.solve

    def recording(program):
        outcome = solve(program)
        pivots.append(outcome.pivots)
        return outcome

    passes = 0
    for _ in range(10):
        k, assessment, family = _walley_family(rng)
        per_cell = Assessment(family.space, assessment.entries[len(k):])
        inner = [
            check_coherence_unconditional(k),
            check_separate_coherence(per_cell),
        ]
        monkeypatch.setattr(lp, "solve", recording)
        verdict = check_walley_asl(assessment, family)
        monkeypatch.undo()
        if not verdict.passed:
            continue
        passes += 1
        main = pivots[-1]  # the conglomerative program comes last
        assert verdict.lp_count == sum(v.lp_count for v in inner) + 1
        assert verdict.max_pivots == max(main, *(v.max_pivots for v in inner))
    assert passes > 5


def _gordan_family(rng):
    """A family of 0, the cell indicators and X on 4-5 atoms cut into
    2-3 contiguous cells, valued by Bayes quotients of a positive p with
    X widened by 0 or 1/4, and X priced outright at k/8 of its range,
    with or without an upper value; and whether X is precise."""
    space = random_space(rng, 4, 5)
    n = space.size
    cuts = [0, *sorted(rng.sample(range(1, n), rng.randint(1, 2))), n]
    cells = [space.event(space.atoms[i:j]) for i, j in zip(cuts, cuts[1:])]
    x = space.variable({a: F(rng.choice((-3, -2, -1, 2, 3))) for a in space.atoms})
    members = [space.constant(0), *(space.indicator(c) for c in cells), x]
    p = positive_vector(rng, space)
    width = rng.choice((F(0), F(1, 4)))
    entries = {}
    for cell in cells:
        mass = sum(p[a] for a in cell.members)
        for m in members:
            q = sum(p[a] * m.values[a] for a in cell.members) / mass
            w = width if m is x else 0
            entries.setdefault(restrict(m, cell), (q - w, q + w))
    lo, hi = min(x.values), max(x.values)
    k = rng.randint(0, 8)
    upper = None if rng.random() < 0.5 else lo + (hi - lo) * rng.randint(k, 8) / 8
    side = Entry(x.unconditional(), lo + (hi - lo) * k / 8, upper)
    assessment = Assessment(space, (side, *(Entry(cv, *v) for cv, v in entries.items())))
    return assessment, PartitionFamily(space, tuple(cells), tuple(members)), width == 0


def _conglomerative_gains(assessment, family, precise_against=True):
    """The gains of the main step of walley-asl from the definition: for
    each unconditional entry X - L and U - X; for each member the sum
    over cells B of B(X - L(X|B)), and of B(U(X|B) - X) when every cell
    has an upper value (unless it is precise on every cell and
    `precise_against` is false); zero gains left out."""
    atoms = range(family.space.size)
    out = []
    for e in assessment.entries:
        if e.variable.cond.is_sure:
            out.append([v - e.lower for v in e.variable.values])
            if e.upper is not None:
                out.append([e.upper - v for v in e.variable.values])
    for m in family.members:
        on = [assessment.entry_for(restrict(m, c)) for c in family.cells]
        cell_of = {a: on[j] for j, c in enumerate(family.cells) for a in c.members}
        out.append([m.values[a] - cell_of[a].lower for a in atoms])
        if all(e.upper is not None for e in on):
            if precise_against or any(e.upper != e.lower for e in on):
                out.append([cell_of[a].upper - m.values[a] for a in atoms])
    return [g for g in out if any(g)]


def _some_p_expects_no_loss(n, gain_rows):
    """Whether some probability vector p has p.g >= 0 for every g."""
    return bool(oracle_vertices(n, [HalfSpace(tuple(g), F(0)) for g in gain_rows]))


def test_walley_asl_main_step_agrees_with_gordan():
    # the main step bets only "for", on gains that live on the whole
    # space: by Gordan's alternative, it passes exactly when some p has
    # p.g >= 0 for every gain g, which the vertex oracle decides
    rng = random.Random(7)
    main_steps = precise_sold = 0
    for _ in range(400):
        assessment, family, precise = _gordan_family(rng)
        verdict = check_walley_asl(assessment, family)
        if verdict.prerequisite_failure is not None:
            continue
        main_steps += 1
        n = family.space.size
        assert verdict.passed == _some_p_expects_no_loss(
            n, _conglomerative_gains(assessment, family)
        )
        if not verdict.passed and _some_p_expects_no_loss(
            n, _conglomerative_gains(assessment, family, precise_against=False)
        ):
            assert precise
            precise_sold += 1
    assert main_steps > 200
    assert precise_sold >= 40


# ---------------------------------------------------------------------------
# implication chain


def test_implication_chain_randomized():
    rng = random.Random(157)
    for _ in range(40):
        precise = random_precise_assessment(rng, conditional=False)
        assert check_df_precise_unconditional(precise).passed
        assert check_bi_coherence(precise).passed
        assert check_coherence_unconditional(precise).passed

        coherent = random_coherent_assessment(rng)
        assert check_w_coherence(coherent).passed
        assert check_aul(coherent).passed


def test_every_failed_verdict_witness_reverifies():
    rng = random.Random(163)
    from conftest import random_arbitrary_assessment

    failures = 0
    for _ in range(60):
        a = random_arbitrary_assessment(rng)
        verdict = check_w_coherence(a)
        if not verdict.passed:
            failures += 1
            assert witness_is_sound(verdict, a)
        verdict = check_aul(a)
        if not verdict.passed:
            assert witness_is_sound(verdict, a)
    assert failures > 10


# ---------------------------------------------------------------------------
# support shrinking


PINNED_CHECKS = pytest.mark.parametrize(
    "example,checker,lp_count,max_pivots",
    [
        (lambda: load_problem(walley_666_example(2)), check_w_coherence, 1, 6),
        (lambda: load_problem(walley_666_example(4)), check_w_coherence, 1, 10),
        (lambda: load_problem(definetti_example(1, 1, 4)), check_w_coherence, 4, 2),
        (lambda: load_problem(definetti_example(1, 2, 3)), check_df_precise_conditional, 3, 6),
        (lambda: load_problem(definetti_example(1, 2, 16)), check_w_coherence, 16, 19),
        (lambda: load_problem(walley_666_example(4)), check_convex, 3, 9),
        (lambda: load_problem(definetti_example(1, 2, 16)), check_convex, 33, 19),
    ],
    ids=["walley666-2-w-coherence", "walley666-4-w-coherence",
         "definetti-1-1-4-w-coherence", "definetti-1-2-3-df-conditional",
         "definetti-1-2-16-w-coherence", "walley666-4-convex",
         "definetti-1-2-16-convex"],
)


@PINNED_CHECKS
def test_shrinking_lp_counts_are_pinned(example, checker, lp_count, max_pivots):
    # one program per shrinking step; the counts are deterministic, so a
    # change here is a change of algorithm
    verdict = checker(example().assessment)
    assert verdict.passed
    assert verdict.lp_count == lp_count


@PINNED_CHECKS
def test_shrinking_max_pivots_are_pinned(example, checker, lp_count, max_pivots):
    # every program starts on its slacks, at the origin; the pivot
    # counts are deterministic
    verdict = checker(example().assessment)
    assert verdict.max_pivots == max_pivots


# bi-coherence on the unconditional inputs of the small corpus: passed,
# programs and max pivots.  A pair shares the chains of the
# combinations run before it, so uniform-precise solves the dF check's
# one program (16 with a chain per pair) and zero-variable 2 (5).
# Deterministic, so a change here is a change of algorithm
PINNED_BI_COHERENCE = {
    "vacuous-pair": (False, 3, 3),
    "overpriced-atoms": (False, 1, 3),
    "uniform-precise": (True, 1, 3),
    "price-above-sup": (False, 1, 2),
    "price-below-inf": (False, 2, 2),
    "upper-below-lower": (False, 1, 3),
    "scaled-conflict": (False, 1, 4),
    "imprecise-sound": (False, 4, 5),
    "superadditivity-break": (False, 3, 4),
    "single-entry-tight": (False, 3, 3),
    "zero-variable": (True, 2, 2),
    "zero-priced-wrong": (False, 1, 2),
}


@pytest.mark.parametrize("name", sorted(PINNED_BI_COHERENCE))
def test_bi_coherence_counts_are_pinned(name):
    verdict = check_bi_coherence(dict(small_corpus())[name])
    assert (verdict.passed, verdict.lp_count, verdict.max_pivots) == PINNED_BI_COHERENCE[name]


def test_bi_coherence_of_a_precise_assessment_is_its_df_check():
    # the chain without against-terms closes every single against-term
    # and every pair on a precise unconditional input, coherent or moved
    rng = random.Random(31)
    failed = 0
    for i in range(300):
        space = random_space(rng, 3, 5)
        a = random_precise_assessment(rng, space, max_entries=5, conditional=False)
        if i % 2:
            moved = rng.randrange(len(a.entries))
            shift = F(rng.choice([-1, 1]), rng.randint(2, 6))
            values = [e.lower + shift * (j == moved) for j, e in enumerate(a.entries)]
            a = Assessment.build(a.space, [(e.variable, v, v) for e, v in zip(a.entries, values)])
        bi = check_bi_coherence(a)
        df = check_df_precise_conditional(a)
        assert (bi.passed, bi.witness, bi.lp_count) == (df.passed, df.witness, df.lp_count)
        failed += not bi.passed
    assert 50 < failed < 150


def test_stake_programs_start_feasible(solved_programs):
    # stakes sum to at most one, so zero stakes are a feasible start of
    # every program; a violation still stakes exactly one, and convexity
    # one more against its against-term
    rng = random.Random(41)
    failed = convex_failed = 0
    for _ in range(30):
        conditional = random_arbitrary_assessment(rng)
        unconditional = random_arbitrary_assessment(rng, conditional=False)
        checks = [
            (check_w_coherence, conditional),
            (check_aul, conditional),
            (check_w_coherence, random_coherent_assessment(rng)),
            (check_df_precise_conditional, random_precise_assessment(rng)),
            (check_df_precise_conditional, random_shifted_assessment(rng)),
            (check_coherence_unconditional, unconditional),
            (check_bi_coherence, unconditional),
            (check_convex, conditional),
            (check_convex, unconditional),
            (check_centered_convex, with_zeros(conditional)),
            (check_centered_convex, with_zeros(random_coherent_assessment(rng))),
        ]
        for checker, assessment in checks:
            verdict = checker(assessment)
            if not verdict.passed:
                failed += 1
                assert witness_is_sound(verdict, assessment)
                convex = checker in (check_convex, check_centered_convex)
                convex_failed += convex
                assert sum(t.stake for t in verdict.witness.terms) == 1 + convex
    space = PossibilitySpace(("a", "b", "c", "d"))
    cells = [space.event(["a", "b"]), space.event(["c", "d"])]
    x = space.variable({"a": 1, "b": 0, "c": 1, "d": 0})
    members = [space.constant(0), space.indicator(cells[0]), space.indicator(cells[1]), x]
    family = PartitionFamily(space, tuple(cells), tuple(members))
    table = [[0, 0], [1, 0], [0, 1], [F(9, 10), F(9, 10)]]
    k = Assessment.build(space, [(x.unconditional(), F(1, 2), F(1, 2))])
    assessment = Assessment(space, (*k.entries, *family_entries(cells, members, table)))
    before = len(solved_programs)
    assert not check_walley_asl(assessment, family).passed
    assert len(solved_programs) > before
    assert failed > 40 and convex_failed > 20 and len(solved_programs) > 200
    # `Constraint` holds every row to rhs >= 0 over x >= 0, so the
    # origin is a feasible start; every program ends optimal
    assert all(isinstance(outcome, lp.Optimal) for _, outcome in solved_programs)


def test_convexity_runs_one_chain_per_against_term():
    # the chain of against-term X|{a,b,c} ends at a p on {a}, which
    # expects 0 of 2|{a} and less of X|{a,b,c}; with a unit
    # against-stake that p proves nothing for 2|{a}, whose own chain
    # finds the violation
    space = PossibilitySpace(("a", "b", "c", "d"))
    x = space.variable({"a": 3, "b": F(-3, 2), "c": F(-1, 2), "d": 0})
    two = restrict(space.constant(2), space.event(["a"]))
    a = Assessment.build(
        space, [(restrict(x, space.event(["a", "b", "c"])), F(33, 8)), (two, 2)]
    )
    verdict = check_convex(a)
    assert not verdict.passed
    assert witness_is_sound(verdict, a)
    assert verdict.lp_count == 2


def test_convexity_programs_do_not_grow_with_walley_666():
    # one chain closes every against-term it reaches with p.g_j = p.g_k,
    # so the count stays flat where it was 8n + 8
    counts = [check_convex(load_problem(walley_666_example(n)).assessment) for n in (2, 4, 6, 8)]
    assert all(v.passed for v in counts)
    assert [v.lp_count for v in counts] == [3, 3, 3, 3]


def _precise_corpus():
    rng = random.Random(29)
    for i in range(800):
        space = random_space(rng, 3, 5)
        if i % 2:
            yield random_shifted_assessment(rng, space)
        else:
            yield random_precise_assessment(rng, space)


def test_w_coherence_of_a_precise_assessment_is_its_df_check():
    # the reduction of W-coherence to dF-coherence on precise inputs: the
    # chain without against-terms closes every single against-term
    failed = 0
    for a in _precise_corpus():
        w = check_w_coherence(a)
        df = check_df_precise_conditional(a)
        assert (w.passed, w.witness, w.lp_count) == (df.passed, df.witness, df.lp_count)
        failed += not w.passed
    assert failed == 400


def one_step(search, p, carriers, combo):
    """Whether the chain of the one vector p closes `combo` from
    `carriers` when every atom of p closes it: whether p dominates.  The
    walk reads the terms of `combo` among the carriers."""
    carriers = [*carriers, *(k for k in combo if k not in carriers)]
    return search.closed_by([p], carriers, [combo], closing=frozenset(p)) == {combo}


def test_dominating_vector_is_checked_exactly():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": -1}).unconditional()
    y = space.variable({"a": 0, "b": 2}).unconditional()
    search = _Search(expanded_elements(Assessment.build(space, [(x, 0), (y, 1)])))
    # p is int masses over a dropped denominator; x - 0 and y - 1 both
    # expect 0 under the uniform vector, so either may be bet against
    assert one_step(search, {0: 1, 1: 1}, [0, 1], ())
    assert one_step(search, {0: 1, 1: 1}, [0], (1,))
    assert one_step(search, {0: 1, 1: 1}, [1], (0,))
    assert not one_step(search, {0: 0, 1: 0}, [0, 1], ())
    assert not one_step(search, {}, [0, 1], ())
    assert not one_step(search, {0: 3, 1: -1}, [0, 1], ())
    assert not one_step(search, {0: 1, 1: -1}, [], ())  # a negative mass, nothing to expect
    assert not one_step(search, {0: 1, 1: 0}, [0, 1], ())  # y - 1 expects -1
    assert one_step(search, {0: 5, 1: 5}, [0], (1,))
    assert not one_step(search, {0: 0, 1: 1}, [], (1,))  # y - 1 expects 1
    convex = _Search(search.elements, convex=True)
    assert one_step(convex, {0: 1, 1: 0}, [0], (1,))  # 1 >= -1
    assert not one_step(convex, {0: 0, 1: 1}, [0], (1,))  # -1 < 1


def test_the_chain_verifier_accepts_the_checkers_own_chains(monkeypatch):
    # every chain a check runs for one against-term of W-coherence, or
    # for a term of convexity, that ends on the term's event closes that
    # term, walked for every single term; cut short, with one mass made
    # negative, or cut short with a zero mass on the term's event, it
    # does not
    chains = []
    shrink = _Search.shrink

    def spy(search, active, combo, excluded=frozenset()):
        stakes, chain, left = shrink(search, active, combo, excluded)
        if combo and left is None:
            chains.append((search, combo, list(chain)))
        return stakes, chain, left

    monkeypatch.setattr(_Search, "shrink", spy)
    rng = random.Random(3)
    for i in range(400):
        space = random_space(rng, 3, 6)
        make = random_precise_assessment if i % 2 else random_coherent_assessment
        assessment = make(rng, space, max_entries=5)
        assert check_w_coherence(assessment).passed and check_convex(assessment).passed
    assert len(chains) > 900
    assert {search.convex for search, _, _ in chains} == {False, True}
    zeros = 0
    for search, combo, chain in chains:
        everything = range(len(search.elements))
        singles = [(k,) for k in everything]
        assert combo in search.closed_by(chain, everything, singles)
        assert combo not in search.closed_by(chain[:-1], everything, singles)
        negative = [dict(p) for p in chain]
        step = rng.randrange(len(chain))
        atom = rng.choice(sorted(negative[step]))
        negative[step][atom] = -negative[step][atom]
        assert combo not in search.closed_by(negative, everything, singles)
        if len(chain) > 1:
            (k,) = combo
            zero = [*chain[:-2], {**chain[-2], min(search.events[k]): 0}]
            assert combo not in search.closed_by(zero, everything, singles)
            zeros += 1
    assert zeros > 100


def test_a_chain_closes_the_empty_combination_once_nothing_is_active():
    # with no against-term, a chain closes () once its drops leave no
    # element active: what `shrink(everything, ())` runs on a passing
    # check; cut short, with a negative mass, or with an against row
    # that every p expects to lose on, it does not
    rng = random.Random(5)
    chains = longer = 0
    for i in range(300):
        space = random_space(rng, 3, 6)
        make = (random_coherent_assessment, random_precise_assessment, random_arbitrary_assessment)[i % 3]
        assessment = make(rng, space, max_entries=5)
        if not check_aul(assessment).passed:
            continue
        search = _Search(expanded_elements(assessment))
        everything = range(len(search.elements))
        stakes, chain, (active, _) = search.shrink(everything, ())
        assert stakes is None and not active
        assert search.closed_by(chain, everything, [()]) == {()}
        assert search.closed_by(chain[:-1], everything, [()]) == set()
        negative = [dict(p) for p in chain]
        step = rng.randrange(len(chain))
        atom = rng.choice(sorted(negative[step]))
        negative[step][atom] = -negative[step][atom]
        assert search.closed_by(negative, everything, [()]) == set()
        losing = {a: -1 for a in range(space.size)}
        assert search.closed_by(chain, everything, [()], [losing]) == set()
        chains += 1
        longer += len(chain) > 1
    assert chains > 200 and longer > 50
