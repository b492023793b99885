import random
from fractions import Fraction

import pytest

import fraction_checks as ref
from conftest import random_event, random_space
from income_expense import condition_predicates, income_expense, pruned
from previsio.errors import UnassessedVariable
from previsio.gains import (
    AGAINST,
    FOR,
    LOWER,
    UPPER,
    Bet,
    BetTerm,
    against,
    gain,
    in_favour,
)
from previsio.model import Assessment, PossibilitySpace, restrict

F = Fraction


@pytest.fixture
def two_atoms():
    space = PossibilitySpace(("a", "b"))
    a_ind = space.indicator(space.event(["a"]))
    b_ind = space.indicator(space.event(["b"]))
    assessment = Assessment.build(
        space,
        [(a_ind.unconditional(), F(3, 5)), (b_ind.unconditional(), F(3, 5))],
    )
    return space, a_ind, b_ind, assessment


def test_vacuous_single_term_gain():
    space = PossibilitySpace(("a", "b", "c"))
    x = space.variable({"a": 2, "b": 5, "c": 3})
    assessment = Assessment.build(space, [(x.unconditional(), 2)])  # inf
    table = gain(Bet.of(in_favour(x.unconditional(), 1)), assessment)
    assert all(v >= 0 for v in table.values.values)
    assert table.sup_on_conditioning() >= 0


def test_both_atoms_overpriced_gain(two_atoms):
    space, a_ind, b_ind, assessment = two_atoms
    bet = Bet.of(
        in_favour(a_ind.unconditional(), 1), in_favour(b_ind.unconditional(), 1)
    )
    table = gain(bet, assessment)
    assert table.values.values == (F(-1, 5), F(-1, 5))
    assert table.sup_on_conditioning() == F(-1, 5)
    assert table.conditioning == space.omega()
    assert table.support == space.omega()


def test_zero_stake_bet(two_atoms):
    space, a_ind, b_ind, assessment = two_atoms
    bet = Bet.of(in_favour(a_ind.unconditional(), 0))
    table = gain(bet, assessment)
    assert all(v == 0 for v in table.values.values)
    assert table.sup_on_conditioning() == 0
    assert table.support.is_empty
    assert not table.conditioning.is_empty


def test_unassessed_variable_rejected(two_atoms):
    space, a_ind, b_ind, assessment = two_atoms
    other = space.variable({"a": 3, "b": 4})
    with pytest.raises(UnassessedVariable):
        gain(Bet.of(in_favour(other.unconditional(), 1)), assessment)
    with pytest.raises(UnassessedVariable):
        gain(Bet.of(against(a_ind.unconditional(), 1, price="upper")), assessment)


def test_negative_stake_rejected(two_atoms):
    _, a_ind, _, _ = two_atoms
    with pytest.raises(ValueError):
        in_favour(a_ind.unconditional(), -1)


def _random_setup(rng):
    space = PossibilitySpace(("a", "b", "c", "d"))
    events = [
        space.event([a for i, a in enumerate(space.atoms) if mask >> i & 1])
        for mask in range(1, 16)
    ]
    items = []
    cvs = []
    for _ in range(rng.randint(1, 4)):
        x = space.variable({a: rng.randint(-4, 4) for a in space.atoms})
        b = rng.choice(events)
        cv = restrict(x, b)
        if any(cv == c for c in cvs):
            continue
        cvs.append(cv)
        items.append((cv, F(rng.randint(-8, 8), rng.randint(1, 4))))
    assessment = Assessment.build(space, items)
    terms = []
    for cv, _ in items:
        stake = F(rng.randint(0, 5), rng.randint(1, 3))
        side = rng.choice(["for", "against"])
        terms.append(in_favour(cv, stake) if side == "for" else against(cv, stake))
    return assessment, Bet(tuple(terms))


def test_income_minus_expense_is_gain_randomized():
    rng = random.Random(7)
    for _ in range(80):
        assessment, bet = _random_setup(rng)
        if not bet.terms:
            continue
        table = gain(bet, assessment)
        income, expense = income_expense(bet, assessment)
        assert (income - expense) == table.values


def test_unconditional_expense_is_constant():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": 0})
    y = space.variable({"a": 0, "b": 2})
    assessment = Assessment.build(
        space, [(x.unconditional(), F(1, 2)), (y.unconditional(), F(1, 3))]
    )
    bet = Bet.of(in_favour(x.unconditional(), 2), against(y.unconditional(), 1))
    _, expense = income_expense(bet, assessment)
    assert len(set(expense.values)) == 1


def test_conditional_term_expense_vanishes_off_event():
    space = PossibilitySpace(("a", "b", "c"))
    x = space.variable({"a": 1, "b": 0, "c": 9})
    cell = space.event(["a", "b"])
    assessment = Assessment.build(space, [(restrict(x, cell), F(1, 2))])
    _, expense = income_expense(
        Bet.of(in_favour(restrict(x, cell), 3)), assessment
    )
    assert expense.value_at("c") == 0
    assert expense.value_at("a") == F(3, 2)


def test_zero_bet_income_expense(two_atoms):
    _, a_ind, _, assessment = two_atoms
    income, expense = income_expense(
        Bet.of(in_favour(a_ind.unconditional(), 0)), assessment
    )
    assert all(v == 0 for v in income.values)
    assert all(v == 0 for v in expense.values)


def test_positive_homogeneity():
    rng = random.Random(11)
    for _ in range(40):
        assessment, bet = _random_setup(rng)
        if not bet.terms:
            continue
        lam = F(rng.randint(1, 6), rng.randint(1, 3))
        table = gain(bet, assessment)
        scaled = gain(bet.scaled(lam), assessment)
        assert scaled.values == table.values.scale(lam)


def test_pruning_preserves_gain_on_support(two_atoms):
    space, a_ind, b_ind, assessment = two_atoms
    bet = Bet.of(
        in_favour(a_ind.unconditional(), 1), in_favour(b_ind.unconditional(), 0)
    )
    lean = pruned(bet)
    assert len(lean.terms) == 1
    full_table = gain(bet, assessment)
    lean_table = gain(lean, assessment)
    assert full_table.support == lean_table.conditioning
    sup_on_support = max(full_table.values[i] for i in full_table.support.members)
    assert sup_on_support == lean_table.sup_on_conditioning()


def test_predicates_reduce_unconditionally(two_atoms):
    # for unconditional bets both expense bounds coincide with sup G >= 0
    rng = random.Random(23)
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": 0})
    y = space.variable({"a": 0, "b": 1})
    assessment = Assessment.build(
        space, [(x.unconditional(), F(3, 5)), (y.unconditional(), F(3, 5))]
    )
    for _ in range(60):
        terms = []
        for cv in (x.unconditional(), y.unconditional()):
            stake = F(rng.randint(0, 4), rng.randint(1, 3))
            terms.append(
                in_favour(cv, stake) if rng.random() < 0.5 else against(cv, stake)
            )
        bet = Bet(tuple(terms))
        preds = condition_predicates(bet, assessment)
        nonneg = gain(bet, assessment).sup_on_conditioning() >= 0
        assert preds.sufficient_expense_bound == preds.necessary_expense_bound == nonneg


def test_predicate_directions_on_random_conditional_bets():
    rng = random.Random(31)
    sufficient_seen = necessary_refutations = 0
    for _ in range(300):
        assessment, bet = _random_setup(rng)
        if not bet.terms:
            continue
        preds = condition_predicates(bet, assessment)
        nonneg = gain(bet, assessment).sup_on_conditioning() >= 0
        if preds.sufficient_expense_bound:
            sufficient_seen += 1
            assert nonneg
        if nonneg:
            assert preds.necessary_expense_bound
        if not preds.necessary_expense_bound:
            necessary_refutations += 1
            assert not nonneg
        if preds.nested_price_bound:
            assert nonneg
    assert sufficient_seen > 5
    assert necessary_refutations > 5


def test_zero_stake_bet_predicates(two_atoms):
    _, a_ind, b_ind, assessment = two_atoms
    bet = Bet.of(in_favour(a_ind.unconditional(), 0))
    preds = condition_predicates(bet, assessment)
    assert preds.sufficient_expense_bound
    assert preds.necessary_expense_bound
    assert preds.nested_price_bound


def _mixed_bet(rng: random.Random) -> tuple[Bet, Assessment]:
    """An assessment of one to four entries on 3-6 atoms, values and
    prices over denominators up to 9, some with an upper value, and a
    bet of up to two terms on each entry, some at stake 0, for or
    against, at the lower or the upper price."""
    space = random_space(rng, 3, 6)
    items, seen = [], set()
    for _ in range(rng.randint(1, 4)):
        values = {a: F(rng.randint(-6, 6), rng.randint(1, 9)) for a in space.atoms}
        x = restrict(space.variable(values), random_event(rng, space))
        if x in seen:
            continue
        seen.add(x)
        lower = F(rng.randint(-6, 6), rng.randint(1, 9))
        upper = lower + F(rng.randint(0, 6), rng.randint(1, 9)) if rng.random() < 0.7 else None
        items.append((x, lower, upper))
    assessment = Assessment.build(space, items)
    terms = []
    for x, _, upper in items:
        for _ in range(rng.randint(0, 2)):
            stake = F(0) if rng.random() < 0.2 else F(rng.randint(1, 9), rng.randint(1, 8))
            price = UPPER if upper is not None and rng.random() < 0.5 else LOWER
            terms.append(BetTerm(x, stake, rng.choice([FOR, AGAINST]), price))
    return Bet(tuple(terms)), assessment


def test_gain_equals_the_fraction_sum_on_seeded_bets():
    # `gain` sums each term on ints over one denominator; the reference
    # adds s (x - price) term by term in `Fraction`s
    rng = random.Random(29)
    seen = dict.fromkeys(("zero stake", "against", "upper price", "overlap", "mixed"), 0)
    for _ in range(400):
        bet, assessment = _mixed_bet(rng)
        table = gain(bet, assessment)
        assert table.values.values == ref.bet_gain(bet, assessment)
        assert all(type(v) is F for v in table.values.values)
        events = [t.variable.cond.members for t in bet.terms]
        assert table.conditioning.members == frozenset().union(*events)
        staked = [t.variable.cond.members for t in bet.terms if t.stake]
        assert table.support.members == frozenset().union(*staked)
        seen["zero stake"] += any(t.stake == 0 for t in bet.terms)
        seen["against"] += any(t.side == AGAINST for t in bet.terms)
        seen["upper price"] += any(t.price == UPPER for t in bet.terms)
        seen["overlap"] += any(
            a & b for i, a in enumerate(staked) for b in staked[i + 1:]
        )
        denominators = {v.denominator for t in bet.terms for v in t.variable.values}
        seen["mixed"] += len(denominators) > 2
    assert min(seen.values()) > 50, seen
