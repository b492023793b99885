import random
from fractions import Fraction

import pytest

from conftest import (
    positive_vector,
    random_coherent_assessment,
    random_precise_assessment,
    random_space,
)
from previsio import gains
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
    merged_family,
)
from previsio.conglomerability import definetti_example, walley_666_example
from previsio.envelopes import convex_envelope, lower_envelope
from previsio.errors import (
    ConditionalEntriesUnsupported,
    EmptyAssessment,
    MissingSelfIndicator,
    MissingZeroVariables,
    NotPrecise,
)
from previsio.model import Assessment, PossibilitySpace, restrict, zero_given

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
    assert verdict.certificate


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
    bundle = definetti_example(1, 2, 4)
    assert check_w_coherence(bundle.assessment).passed


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
    bundle = definetti_example(1, 2, 8)
    assert check_df_precise_conditional(bundle.assessment).passed


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
        a = lower_envelope(space, members, domain, check_members=False)
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
        a = lower_envelope(space, members, domain, check_members=False)
        if check_bi_coherence(a).passed:
            seen += 1
            assert a.lower(domain[1]) == alpha * a.lower(domain[0])
    assert seen > 5


# ---------------------------------------------------------------------------
# convexity


def test_w_coherent_with_zeros_is_centered_convex():
    rng = random.Random(127)
    for _ in range(15):
        a = random_coherent_assessment(rng)
        items = [(e.variable, e.lower, e.upper) for e in a.entries]
        for event in a.conditioning_events():
            zero = zero_given(event)
            if a.entry_for(zero) is None:
                items.append((zero, 0, None))
        enriched = Assessment.build(a.space, items)
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
    family = []
    for cell in cells:
        indicator = restrict(space.indicator(cell), cell)
        price = 1 if price_of_cell is None else price_of_cell(cell)
        family.append((cell, Assessment.build(space, [(indicator, price)])))
    return family


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
    family = [(cell, Assessment.build(space, [(restrict(x, cell), F(1, 2))]))]
    with pytest.raises(MissingSelfIndicator):
        check_separate_coherence(family)


def _random_separate_family(rng):
    space = random_space(rng)
    atoms = list(space.atoms)
    rng.shuffle(atoms)
    split = rng.randint(1, len(atoms) - 1)
    cells = [space.event(atoms[:split]), space.event(atoms[split:])]
    p = positive_vector(rng, space)
    family = []
    for cell in cells:
        items = {}
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
        family.append(
            (cell, Assessment.build(space, [(cv, lo, up) for cv, (lo, up) in items.items()]))
        )
    return family


def test_separate_equivalent_to_w_coherence_of_merged():
    rng = random.Random(131)
    for _ in range(25):
        family = _random_separate_family(rng)
        separate = check_separate_coherence(family).passed
        merged = merged_family(family)
        assert separate == check_w_coherence(merged).passed


def test_separate_witness_reverifies():
    space = PossibilitySpace(("a", "b", "c"))
    cell = space.event(["a", "b"])
    other = space.event(["c"])
    x = space.variable({"a": 1, "b": 0, "c": 0})
    family = [
        (
            cell,
            Assessment.build(
                space,
                [
                    (restrict(space.indicator(cell), cell), 1),
                    (restrict(x, cell), F(3, 2)),  # above the sup on the cell
                ],
            ),
        ),
        (
            other,
            Assessment.build(space, [(restrict(space.indicator(other), other), 1)]),
        ),
    ]
    verdict = check_separate_coherence(family)
    assert not verdict.passed
    table = gains.gain(verdict.witness, merged_family(family))
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
        assessment = lower_envelope(space, members, domain, check_members=False)
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


def _bayes_family(space, cells, members, p):
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
    return PartitionFamily.precise(space, cells, members, table)


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
    family = _bayes_family(space, cells, members, p)
    k = Assessment.build(
        space, [(members[3].unconditional(), F(1), F(1))]
    )
    verdict = check_walley_asl(k, family)
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
        family = _bayes_family(space, [omega], members, p)
        verdict = check_walley_asl(None, family)
        merged = family.merged_assessment(None)
        assert verdict.passed == check_coherence_unconditional(merged).passed


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
        family = _bayes_family(space, cells, members, p)
        k = Assessment.build(
            space,
            [(
                members[3].unconditional(),
                sum(pi * v for pi, v in zip(p, members[3].values)),
            )],
        )
        verdict = check_walley_asl(k, family)
        if verdict.passed:
            checked += 1
            assert check_aul(family.merged_assessment(k)).passed
    assert checked > 10


def test_walley_asl_detects_sure_loss():
    # a non-conglomerable combination: the variable is priced 9/10 on
    # both cells but only 1/2 unconditionally, so buying it cell-wise
    # and selling it outright loses 2/5 whatever happens
    space = PossibilitySpace(("a", "b", "c", "d"))
    cells = [space.event(["a", "b"]), space.event(["c", "d"])]
    x = space.variable({"a": 1, "b": 0, "c": 1, "d": 0})
    members = [
        space.constant(0),
        space.indicator(cells[0]),
        space.indicator(cells[1]),
        x,
    ]
    table = [
        [0, 0],
        [1, 0],
        [0, 1],
        [F(9, 10), F(9, 10)],
    ]
    family = PartitionFamily.precise(space, cells, members, table)
    k = Assessment.build(space, [(x.unconditional(), F(1, 2), F(1, 2))])
    verdict = check_walley_asl(k, family)
    assert not verdict.passed
    assert verdict.prerequisite_failure is None
    table_ = gains.gain(verdict.witness, family.merged_assessment(k))
    assert table_.sup_on_conditioning() < 0


def test_walley_asl_truncated_mixture_example_passes():
    # the two-sided mixture truncated with a remainder cell: every cell
    # has positive mass, all values are Bayes quotients, so no gain of
    # the conglomerative form can be uniformly negative
    from previsio.conglomerability import walley_666_example

    bundle = walley_666_example(4)
    space = bundle.space
    omega = space.omega()
    cells = list(bundle.cells) + [bundle.events["Brest"]]
    members = [space.constant(0)] + [space.indicator(c) for c in cells]
    members.append(bundle.variables["A"])
    p = [
        bundle.assessment.lower(restrict(space.indicator(space.event([a])), omega))
        for a in space.atoms
    ]
    table = []
    for member in members:
        row = []
        for cell in cells:
            mass = sum(p[i] for i in cell.members)
            row.append(sum(p[i] * member.values[i] for i in cell.members) / mass)
        table.append(row)
    family = PartitionFamily.precise(space, cells, members, table)
    k = Assessment.build(
        space,
        [(bundle.variables["A"].unconditional(), F(1, 2), F(1, 2))],
    )
    verdict = check_walley_asl(k, family)
    assert verdict.prerequisite_failure is None
    assert verdict.passed
    # and the merged reading still avoids uniform loss
    assert check_aul(family.merged_assessment(k)).passed


def test_walley_asl_prerequisite_failure_reported():
    space = PossibilitySpace(("a", "b"))
    cells = [space.event(["a"]), space.event(["b"])]
    members = [space.constant(0), space.indicator(cells[0]), space.indicator(cells[1])]
    table = [[0, 0], [1, 0], [0, 1]]
    family = PartitionFamily.precise(space, cells, members, table)
    x = space.variable({"a": 1, "b": 0})
    bad_k = Assessment.build(space, [(x.unconditional(), F(3, 2))])
    verdict = check_walley_asl(bad_k, family)
    assert not verdict.passed
    assert verdict.prerequisite_failure


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
        (lambda: walley_666_example(2), check_w_coherence, 25, 7),
        (lambda: definetti_example(1, 1, 4), check_w_coherence, 26, 3),
        (lambda: definetti_example(1, 2, 3), check_df_precise_conditional, 3, 6),
    ],
    ids=["walley666-2-w-coherence", "definetti-1-1-4-w-coherence",
         "definetti-1-2-3-df-conditional"],
)


@PINNED_CHECKS
def test_shrinking_lp_counts_are_pinned(example, checker, lp_count, max_pivots):
    # one program per shrinking step, each recorded once; the counts are
    # deterministic, so a change here is a change of algorithm
    verdict = checker(example().assessment)
    assert verdict.passed
    assert verdict.lp_count == lp_count
    assert len(verdict.certificate) == lp_count


@PINNED_CHECKS
def test_shrinking_max_pivots_are_pinned(example, checker, lp_count, max_pivots):
    # a checker's program has one "=" row, so phase 1 drives out a single
    # artificial; the pivot counts are deterministic
    verdict = checker(example().assessment)
    assert verdict.max_pivots == max_pivots


def test_dominating_vector_is_checked_exactly():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": -1}).unconditional()
    y = space.variable({"a": 0, "b": 2}).unconditional()
    search = _Search(expanded_elements(Assessment.build(space, [(x, 0), (y, 1)])))
    half = F(1, 2)
    # x - 0 and y - 1 both expect 0 under the uniform vector
    assert search._dominates({0: half, 1: half}, [0, 1], ())
    assert not search._dominates({0: F(0), 1: F(0)}, [0, 1], ())
    assert not search._dominates({0: F(3, 2), 1: -half}, [0, 1], ())
    assert not search._dominates({0: F(1), 1: F(0)}, [0, 1], ())  # y - 1 expects -1
    assert search._dominates({0: half, 1: half}, [0], (1,))
    assert not search._dominates({0: F(0), 1: F(1)}, [], (1,))  # y - 1 expects 1
    convex = _Search(search.elements, convex=True)
    assert convex._dominates({0: F(1), 1: F(0)}, [0], (1,))  # 1 >= -1
    assert not convex._dominates({0: F(0), 1: F(1)}, [0], (1,))  # -1 < 1
