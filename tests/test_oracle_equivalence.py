"""Cross-validation of the checkers' support shrinking, the only
production path, against two oracles on the small corpus: the
enumeration of every support union and the brute-force stake grid.
Convexity is also checked on a seeded corpus of 4-5 atoms, where its
chains share the most, against the enumeration and against
`fraction_checks.convex_violation`, which shares no program form with
the checkers; bi-coherence, whose pairs share chains too, on a seeded
corpus of 4-6 atoms, against the enumeration."""

import random

import pytest

from conftest import (
    random_arbitrary_assessment,
    random_coherent_assessment,
    random_precise_assessment,
    random_space,
)
from corpus import small_corpus
from enumeration_oracle import find_violation_enumeration
from fraction_checks import convex_violation
from previsio import gains
from previsio.bruteforce import find_violation_grid
from previsio.checkers import (
    _Search,
    check_aul,
    check_bi_coherence,
    check_coherence_unconditional,
    check_convex,
    check_df_precise_conditional,
    check_w_coherence,
)

CHECKS = {
    "w-coherence": check_w_coherence,
    "aul": check_aul,
    "convex": check_convex,
}

CORPUS = small_corpus()


@pytest.mark.parametrize("name,assessment", CORPUS, ids=[n for n, _ in CORPUS])
@pytest.mark.parametrize("notion", sorted(CHECKS))
def test_enumerator_and_fast_path_agree(name, assessment, notion):
    # "fast path": the checkers' support shrinking
    verdict = CHECKS[notion](assessment)
    bet = find_violation_enumeration(assessment, notion)
    assert (bet is None) == verdict.passed
    for witness in (verdict.witness, bet):
        if witness is not None:
            table = gains.gain(witness, assessment)
            assert table.sup_on_conditioning() < 0


@pytest.mark.parametrize("name,assessment", CORPUS, ids=[n for n, _ in CORPUS])
@pytest.mark.parametrize("notion", sorted(CHECKS))
def test_grid_search_agrees(name, assessment, notion):
    verdict = CHECKS[notion](assessment)
    bet = find_violation_grid(assessment, notion, max_denominator=8)
    assert (bet is None) == verdict.passed
    if bet is not None:
        table = gains.gain(bet, assessment)
        assert table.sup_on_conditioning() < 0


@pytest.mark.parametrize("name,assessment", CORPUS, ids=[n for n, _ in CORPUS])
def test_unconditional_notions_agree_where_defined(name, assessment):
    if not assessment.is_unconditional:
        return
    for notion, checker in (
        ("coherence-unconditional", check_coherence_unconditional),
        ("bi-coherence", check_bi_coherence),
    ):
        verdict = checker(assessment)
        enumerated = find_violation_enumeration(assessment, notion)
        assert (enumerated is None) == verdict.passed
        bet = find_violation_grid(assessment, notion, max_denominator=8)
        assert (bet is None) == verdict.passed
    if assessment.is_precise:
        plain = check_df_precise_conditional(assessment)
        bet = find_violation_grid(
            assessment, "df-precise-conditional", max_denominator=8
        )
        assert (bet is None) == plain.passed


def _convex_corpus():
    """160 seeded inputs on 4-5 atoms: arbitrary lower values,
    conditional and not, W-coherent envelopes and precise assessments."""
    rng = random.Random(2003)
    for i in range(160):
        space = random_space(rng, 4, 5)
        if i % 4 < 2:
            yield random_arbitrary_assessment(rng, space, conditional=i % 4 == 0)
        elif i % 4 == 2:
            yield random_coherent_assessment(rng, space)
        else:
            yield random_precise_assessment(rng, space, conditional=i % 8 == 3)


def test_convexity_agrees_with_both_oracles_on_a_seeded_corpus():
    failed = 0
    for assessment in _convex_corpus():
        verdict = check_convex(assessment)
        bet = find_violation_enumeration(assessment, "convex")
        direct = convex_violation(assessment)
        assert (bet is None) == verdict.passed
        assert (direct is None) == verdict.passed
        for witness in (verdict.witness, bet, direct):
            if witness is not None:
                assert gains.gain(witness, assessment).sup_on_conditioning() < 0
        failed += not verdict.passed
    assert 25 < failed < 135


def _bi_coherence_corpus():
    """200 seeded unconditional inputs on 4-6 atoms: W-coherent
    envelopes, arbitrary lower values and precise assessments."""
    rng = random.Random(1998)
    makers = (random_coherent_assessment, random_arbitrary_assessment, random_precise_assessment)
    for i in range(200):
        space = random_space(rng, 4, 6)
        yield makers[i % 3](rng, space, max_entries=5, conditional=False)


def test_bi_coherence_agrees_with_the_enumeration_on_a_seeded_corpus(monkeypatch):
    # a pair closed by the chain of another combination is never
    # violated: shrunk on its own from every element, it finds no stakes
    shared = []
    closed_by = _Search.closed_by

    def spy(search, chain, carriers, combos, *args):
        shut = closed_by(search, chain, carriers, combos, *args)
        shared.extend((search, c) for c in shut if len(c) == 2 and c != combos[0])
        return shut

    monkeypatch.setattr(_Search, "closed_by", spy)
    failed = 0
    for assessment in _bi_coherence_corpus():
        verdict = check_bi_coherence(assessment)
        bet = find_violation_enumeration(assessment, "bi-coherence")
        assert (bet is None) == verdict.passed
        for witness in (verdict.witness, bet):
            if witness is not None:
                assert gains.gain(witness, assessment).sup_on_conditioning() < 0
        failed += not verdict.passed
    for search, pair in shared:
        assert search.shrink(list(range(len(search.elements))), pair)[0] is None
    assert 40 < failed < 100 and len(shared) > 1000
