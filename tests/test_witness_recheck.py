"""The re-check of a failing check's witness (`checkers._verify_witness`).

A failing verdict carries a losing bet, and the check prices it again
from the assessment before it returns.  These tests pin the witnesses
of a seeded corpus of failing checks, hold the re-check to the gain
table of `gains.gain` on those witnesses and on perturbed ones, and
show that it reads nothing of the search's elements."""

import functools
import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import random_arbitrary_assessment, random_shifted_assessment, random_space
from previsio import checkers
from previsio.checkers import (
    _verify_witness,
    check_aul,
    check_convex,
    check_df_precise_conditional,
    check_w_coherence,
)
from previsio.gains import AGAINST, FOR, Bet, gain
from previsio.model import Assessment, PossibilitySpace

ARBITRARY = {"aul": check_aul, "w-coherence": check_w_coherence, "convex": check_convex}
SHIFTED = {"df-conditional": check_df_precise_conditional, **ARBITRARY}


@functools.cache
def failing_checks(count=1000):
    """At least `count` failing checks, as (notion, assessment, verdict):
    seeded arbitrary assessments under AUL, W-coherence and convexity,
    and shifted precise ones under those and dF coherence, in turn."""
    rng = random.Random(3301)
    found = []
    for i in itertools.count():
        if len(found) >= count:
            return found
        space = random_space(rng, 3, 5)
        if i % 2:
            assessment, notions = random_shifted_assessment(rng, space), SHIFTED
        else:
            assessment, notions = random_arbitrary_assessment(rng, space), ARBITRARY
        for notion, check in notions.items():
            verdict = check(assessment)
            if not verdict.passed:
                found.append((notion, assessment, verdict))


def _described(notion, verdict):
    terms = tuple(
        (
            tuple(sorted(t.variable.cond.members)),
            tuple(map(str, t.variable.values)),
            str(t.stake),
            t.side,
            t.price,
        )
        for t in verdict.witness.terms
    )
    return repr((notion, terms, verdict.lp_count, verdict.max_pivots))


# sha256 over the failing checks of `failing_checks` of each one's
# notion, witness terms in order (variable, stake, side and price),
# programs and largest pivot count.  Deterministic, so a change here is
# a change of the search or of its read-out
PINNED_WITNESSES = "7ebd04f49aa6c2da1aac802ab1ec8f9183c8d15bc1aca6e37caa033b050afc08"


def test_the_failing_witnesses_are_pinned():
    checks = failing_checks()
    assert len(checks) >= 1000
    assert {notion for notion, _, _ in checks} == set(SHIFTED)
    digest = hashlib.sha256()
    for notion, _, verdict in checks:
        digest.update(_described(notion, verdict).encode())
    assert digest.hexdigest() == PINNED_WITNESSES


_FLIPPED = {FOR: AGAINST, AGAINST: FOR}


def _variants(bet, rng):
    """`bet`, then bets near it: one stake doubled, one halved, one term
    dropped (when there are two or more) and one term's side flipped,
    each term drawn by `rng`."""
    terms = bet.terms

    def changed(i, **fields):
        return Bet(terms[:i] + (replace(terms[i], **fields),) + terms[i + 1:])

    yield bet
    i = rng.randrange(len(terms))
    yield changed(i, stake=terms[i].stake * 2)
    i = rng.randrange(len(terms))
    yield changed(i, stake=terms[i].stake / 2)
    if len(terms) > 1:
        i = rng.randrange(len(terms))
        yield Bet(terms[:i] + terms[i + 1:])
    i = rng.randrange(len(terms))
    yield changed(i, side=_FLIPPED[terms[i].side])


def _refused(bet, assessment):
    try:
        _verify_witness(bet, assessment)
    except AssertionError:
        return True
    return False


def test_the_recheck_refuses_exactly_the_bets_whose_gain_is_not_negative():
    rng = random.Random(3302)
    refused = {True: 0, False: 0}
    for _, assessment, verdict in failing_checks():
        for bet in _variants(verdict.witness, rng):
            expected = gain(bet, assessment).sup_on_conditioning() >= 0
            assert _refused(bet, assessment) == expected
            refused[expected] += 1
    # the witnesses, and about half of the bets near them, lose
    assert refused[False] > 2000 and refused[True] > 2000


def test_the_recheck_trusts_no_element(monkeypatch):
    # every element's gain is its true gain less one on its event, so
    # the search stakes on a coherent assessment as if it lost; the
    # re-check prices the bet from the assessment and refuses it
    space = PossibilitySpace(("a", "b", "c"))
    uniform = Assessment.build(
        space,
        [
            (space.indicator(space.event([atom])).unconditional(), Fraction(1, 3), Fraction(1, 3))
            for atom in space.atoms
        ],
    )
    assert check_aul(uniform).passed
    real = checkers.expanded_elements

    def lowered(assessment):
        out = []
        for element in real(assessment):
            gain, d = element.row
            row = {a: v for a in sorted(element.members) if (v := gain.get(a, 0) - d)}
            out.append(replace(element, row=(row, d)))
        return tuple(out)

    monkeypatch.setattr(checkers, "expanded_elements", lowered)
    with pytest.raises(AssertionError, match="^internal error: witness gain is not negative$"):
        check_aul(uniform)
