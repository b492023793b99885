"""A bet's income and expense, and the predicates on them, as a test oracle.

`income_expense` splits a bet's gain G into the income I and the
expense E with G = I - E, summed term by term in `Fraction`s, so that
`gains.gain`, which sums on ints, must give I - E.  The predicates of
`condition_predicates` relate I and E to sup(G|B) >= 0; they are
diagnostics only, never a standalone consistency notion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from previsio.errors import ImpossibleConditioningEvent
from previsio.gains import FOR, LOWER, Bet, gain
from previsio.model import Assessment, ConditionalVariable, RandomVariable


def _signed_terms(bet: Bet, assessment: Assessment) -> Iterator[
    tuple[ConditionalVariable, Fraction, Fraction]
]:
    """Yield (variable, signed stake, price) with 'against' negated."""
    for term in bet.terms:
        entry = assessment.entry_for(term.variable)
        price = entry.lower if term.price == LOWER else entry.upper
        stake = term.stake if term.side == FOR else -term.stake
        yield term.variable, stake, price


def income_expense(bet: Bet, assessment: Assessment) -> tuple[RandomVariable, RandomVariable]:
    """Split the gain into income I and expense E with G = I - E.

    In a conditional environment the expense is itself random: each
    term's price is paid only when its conditioning event happens.
    """
    space = assessment.space
    income = [Fraction(0)] * space.size
    expense = [Fraction(0)] * space.size
    for cv, stake, price in _signed_terms(bet, assessment):
        if stake == 0:
            continue
        for i, v in cv.value_map().items():
            income[i] += stake * v
            expense[i] += stake * price
    return (
        RandomVariable(space, tuple(income)),
        RandomVariable(space, tuple(expense)),
    )


@dataclass(frozen=True)
class ConditionPredicates:
    """Diagnostics relating a bet's income and expense to sup(G|B) >= 0.

    * ``sufficient_expense_bound``: inf(-I|B) <= inf(-E|B); implies
      sup(G|B) >= 0.
    * ``necessary_expense_bound``: inf(-I|B) <= sup(-E|B); implied by
      sup(G|B) >= 0, so its failure refutes coherence.
    * ``nested_price_bound``: defined only when the meet of all
      conditioning events is nonempty: the bet's net price covers
      sup(-I|B).  Also sufficient for sup(G|B) >= 0.
    """

    sufficient_expense_bound: bool
    necessary_expense_bound: bool
    nested_price_bound: bool | None


def condition_predicates(bet: Bet, assessment: Assessment) -> ConditionPredicates:
    income, expense = income_expense(bet, assessment)
    table = gain(bet, assessment)
    b = table.conditioning
    if b.is_empty:
        raise ImpossibleConditioningEvent("bet has no terms")
    neg_income = [-income.values[i] for i in sorted(b.members)]
    neg_expense = [-expense.values[i] for i in sorted(b.members)]
    lam = min(neg_income)  # extreme instantiation inf(-I|B)
    sufficient = lam <= min(neg_expense)
    necessary = lam <= max(neg_expense)
    nested: bool | None = None
    meet = None
    for term in bet.terms:
        meet = term.variable.cond if meet is None else (meet & term.variable.cond)
    if meet is not None and not meet.is_empty:
        net_price = Fraction(0)
        for _, stake, price in _signed_terms(bet, assessment):
            net_price -= stake * price
        nested = net_price >= max(neg_income)
    return ConditionPredicates(sufficient, necessary, nested)


def pruned(bet: Bet) -> Bet:
    """Drop zero-stake terms; the gain conditioned on the support is
    unchanged."""
    return Bet(tuple(t for t in bet.terms if t.stake != 0))
