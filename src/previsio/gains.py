"""Bets, their gains and supports.

A bet is a finite list of terms.  A term "for" X|B with stake s pays
s*B*(X - price); a term "against" pays the negative.  The price of a
term is the assessed lower or upper prevision of its variable: betting
for at the lower price and against at the upper price are the two
conjugate directions, while betting against at the *lower* price is the
distinguished single term of the coherence notions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ImpossibleConditioningEvent, UnassessedVariable
from .lp import over_one_denominator
from .model import (
    Assessment,
    ConditionalVariable,
    Event,
    RandomVariable,
    RationalLike,
    as_rational,
)

FOR = "for"
AGAINST = "against"
LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class BetTerm:
    variable: ConditionalVariable
    stake: Fraction
    side: str = FOR
    price: str = LOWER

    def __post_init__(self) -> None:
        object.__setattr__(self, "stake", as_rational(self.stake))
        if self.stake < 0:
            raise ValueError("stakes are nonnegative; bet against instead")
        if self.side not in (FOR, AGAINST):
            raise ValueError(f"unknown side {self.side!r}")
        if self.price not in (LOWER, UPPER):
            raise ValueError(f"unknown price selector {self.price!r}")


@dataclass(frozen=True)
class Bet:
    terms: tuple[BetTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        spaces = {t.variable.space for t in self.terms}
        if len(spaces) > 1:
            raise ValueError("bet terms live on different spaces")

    @classmethod
    def of(cls, *terms: BetTerm) -> Bet:
        return cls(tuple(terms))

    def scaled(self, factor: RationalLike) -> Bet:
        k = as_rational(factor)
        return Bet(tuple(
            BetTerm(t.variable, t.stake * k, t.side, t.price) for t in self.terms
        ))


def in_favour(cv: ConditionalVariable, stake: RationalLike = 1) -> BetTerm:
    return BetTerm(cv, as_rational(stake), FOR, LOWER)


def against(cv: ConditionalVariable, stake: RationalLike = 1, price: str = LOWER) -> BetTerm:
    return BetTerm(cv, as_rational(stake), AGAINST, price)


@dataclass(frozen=True)
class GainTable:
    """Per-atom gain of a bet, with its conditioning event and support."""

    values: RandomVariable
    conditioning: Event   # disjunction of all terms' conditioning events
    support: Event        # disjunction over terms with nonzero stake

    def sup_on_conditioning(self) -> Fraction:
        if self.conditioning.is_empty:
            raise ImpossibleConditioningEvent(
                "the gain is conditioned on the impossible event"
            )
        return max(self.values.values[i] for i in self.conditioning.members)


def _price(term: BetTerm, assessment: Assessment) -> Fraction:
    entry = assessment.entry_for(term.variable)
    if entry is None:
        raise UnassessedVariable("bet references an unassessed variable")
    if term.price == LOWER:
        return entry.lower
    if entry.upper is None:
        raise UnassessedVariable(
            "term is priced at the upper prevision, but none is assessed"
        )
    return entry.upper


def gain_ints(bet: Bet, assessment: Assessment) -> tuple[list[int], int, set[int], set[int]]:
    """The gain of `bet` by atom, as ints over one positive int, and the
    atoms of its conditioning event and of its support.  Every price is
    read from `assessment` and every value from the term's variable.

    Each term is summed on ints: its price and its values on its event
    are put over one denominator d, as the ints p and x, so that its
    gain s (x - p) / d for the signed stake s = n / m is the int
    n (x - p) over m d.  The terms are added over the lcm of those
    denominators."""
    space = assessment.space
    conditioning: set[int] = set()
    support: set[int] = set()
    staked = []
    for term in bet.terms:
        cv = term.variable
        cv.space._check(space)
        price = _price(term, assessment)
        conditioning |= cv.cond.members
        if term.stake:
            support |= cv.cond.members
            (p, *ints), d = over_one_denominator([price, *cv.values])
            n, m = term.stake.as_integer_ratio()
            if term.side != FOR:
                n = -n
            staked.append((sorted(cv.cond.members), [n * (x - p) for x in ints], m * d))
    den = math.lcm(*[d for _, _, d in staked])
    totals = [0] * space.size
    for members, ints, d in staked:
        f = den // d
        for a, v in zip(members, ints):
            totals[a] += f * v
    return totals, den, conditioning, support


def gain(bet: Bet, assessment: Assessment) -> GainTable:
    """Exact per-atom gain; zero outside the union of conditioning events.
    The sum is made on ints (`gain_ints`), and a `Fraction` only for each
    atom's total."""
    space = assessment.space
    totals, den, conditioning, support = gain_ints(bet, assessment)
    return GainTable(
        RandomVariable(space, tuple(Fraction(v, den) for v in totals)),
        Event(space, frozenset(conditioning)),
        Event(space, frozenset(support)),
    )
