"""Cross-validation of the checkers' support shrinking, the only
production path, against two oracles on the small corpus: the
enumeration of every support union and the brute-force stake grid."""

import pytest

from corpus import small_corpus
from previsio import gains
from previsio.bruteforce import find_violation_enumeration, find_violation_grid
from previsio.checkers import (
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
        ("convex", check_convex),
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
