"""Natural and upper extensions.

Both extension bounds of a target X|B come from one routine over the
checkers' support-shrinking search, `checkers._Search`.  For a payoff Y
on B and at most one assessed against-term k, the bound is the
supremum of the prices alpha beaten by a bet with s >= 0 and

    alpha + sum_i s_i g_i - s_k g_k < Y  on B,
            sum_i s_i g_i - s_k g_k < 0  on the rest of its support.

Its non-strict relaxation is one program over the entries still
active, with R the union of their events and k's: maximise alpha with
the first line as "<=" on B and the second as "<= 0" on R outside B.
The price is measured from min_B Y, which s = 0 already attains, so the
origin is feasible.  Y less that floor is put over one denominator
once per target and sign, as the payoff's ints on B (`_Payoff`): they
are the program's right-hand sides on B, and both certificates below
compare against them, so no atom's value is taken as a `Fraction`.
The relaxation can only err upward when no active bet is strictly
negative on R outside B, so the routine first runs the checkers'
shrinking chain, `_Search.shrink`, with B left out of every region:
it stops at such a direction or once nothing is left outside B, and
the program runs over the elements still active.  If the chain ends on
k's event, the combination adds nothing.

The natural extension LE(X|B), the least-committal coherent value, is
the bound for Y = X with no other against-term (the target is itself
bet against).  The upper extension LU(X|B), the largest coherent value,
is minus the largest bound for Y = -X, over no against-term and each
single one: above LU a bet buying X|B loses uniformly.  An assessed
target's own lower element is left out of these bets, since LU replaces
it; its upper element stays, so LU never exceeds an assessed upper.  A
precise target's LU is its value v, and no program runs: its own upper
element at stake 1 is the certificate, as -v + (v - X) = -X on B.

Each bound is certified on ints without a program, on both sides.
Its record (`_Bound`) holds the bound program's own read-out: the
optimum above the floor as it comes, and the net helper stakes as the
ints of the program's point over its denominator.  The certificate and
the walks below read those ints, and the bound's value and its helper
stakes become `Fraction`s only when the extension returns them.
Beyond it: helper stakes s* with bound + sum s* g <= Y on B and
sum s* g <= 0 on their carriers' union outside B, and the direction s'
of the last shrinking step, strictly negative there, so s* + l s' for a
small l > 0 beats every price beyond the bound, however close
(`_certified`).

At it: the extended assessment is W-coherent, as the envelope theorem
and Williams (1975) say it must be, and the chains the bounds ran show
it.  Let t be the new element, X|B at its price v.  A combination of
the active elements and t is closed by a shrinking chain of the
checkers whose every step also has p.(Y - value) <= 0 on B, that is
p.(X - v) <= 0 when t is bet against and >= 0 when it is bet for, and
which B ends as an against-term's event does.  Once a step charges the
against-term's event, or B when t is bet for, that term stakes nothing
either, and what is left is a bet of the base, which its certification
covers.  `_closed` builds t's row and walks a chain once for every
combination asked (`_Search.closed_by`).  `_bound` returns its chain:
the dual p of each shrinking step, which has no mass on B, then the
bound program's row duals, q on B and r outside it.  The dual constraints of the stake,
against and price columns give (q, r).g_i >= 0, (q, r).g_k <= 0 and
sum q >= 1, and at the optimum q.(Y - bound) = 0.  So every
combination with t in it is closed:

- at LE, t against: LE's own chain, since q.(X - LE) = 0;
- at LE, t for: (X - LE)1_B >= s*.g everywhere, by the certificate on
  B and as s*.g <= 0 wherever else the helpers reach.  So a losing bet
  s_t (X - LE)1_B + sum s_i g_i - s_k g_k still loses on its support
  with s_t (X - LE)1_B replaced by s_t (s* + l s').g for a small l > 0,
  and on the atoms this adds, which lie off B where s*.g <= 0 and
  s'.g < 0.  That is a bet of the base, with stakes s + s_t (s* + l s')
  and the same against-term, which the base's certification rules out;
- at LU, t against: the same reduction with the best bound's
  certificate, LU - X >= s*.g on B; its against-term, if any, takes
  t's place as the only one;
- at LU, t for, with no against-term or a single k: a chain the
  verifier accepts for it.  Its own chain ends on k's event or has
  q.(X - LU) = sum q (best - bound) >= 0.

So both extensions run one loop, `_extension`, which shares chains as
the checks do (Walley, Pelessoni & Vicig 2004): it solves no
combination that a chain already run closes at the best bound so far,
walks each new chain at that bound, and every chain again when the
bound rises, so every combination is closed at the value returned.  A
closure is monotone in the bound: p >= 0 on B, so p.(Y - v) only falls
as v rises.  LE runs () alone, with every element usable; LU runs each
(k,), then ().  () is dominated there: the shrinking steps of a (k,)
chain miss B_k, so p.g_k = 0 and each dominates with k for as well; its
bound program holds k's column for and against, so (q, r).g_k = 0, and
its last step charges B with q.(Y - v) <= 0 at every v at or above its
bound.  So () is solved only when every (k,) chain ends on k's event.

The base is certified once per public call, by the chains its bounds
ran (`_certify`), and not checked before them.  Its search is built
once, and every program of the call is solved on one `lp.Trace`.

- A bound's chain is a chain of the base.  Each shrinking step's p has
  no mass on B, as B is left out of every region, and it dominates the
  active elements with k against, as a step of the base's own chain
  would: dominance reads only the atoms p charges.  The last vector
  (q, r) meets the same dual constraints, (q, r).g_i >= 0 for the
  active elements and (q, r).g_k <= 0.  So the base's run
  (`_Search.run`) walks each of these chains once, with every element
  a carrier, skips each combination of at most one against-term that
  one closes, and runs the chain of each other one, as the check of the
  base would.  A violated combination is closed by no chain, and the
  order of the combinations is kept, so an incoherent base gives the
  check's own witness.
- An unbounded bound is a losing bet of the base.  Its program has an
  improving ray: stakes s >= 0 on the active elements and k, with a
  price rise a > 0 and a + G_s <= 0 on B, G_s <= 0 on R outside B; so
  G_s < 0 on B.  The last shrinking step left a direction s' with
  G_s' < 0 on R outside B, or R lies in B.  For a small l > 0,
  s + l s' is then negative on B and on R outside B, which hold the
  events of all its terms, and it bets against k alone: a losing bet
  of W-coherence.  So `lp.Unbounded` from a bound makes the call
  certify the base, which finds a witness; a base certified after it
  is an internal error.
- The order is bounds, certification, then the comparison of an
  assessed target with its bounds.  A bound, its certificate and its
  chain rest only on its program's primal and dual, coherent base or
  not, and the certification needs the chains.  But an assessed lower
  value is the natural extension, and at most the upper extension,
  only over a coherent base; over an incoherent one either comparison
  can fail, and made first it would report an internal error where
  the base must be refused.  `natural_extension_prevision` certifies
  before any target is known, with no chains, so it solves what the
  check of the base solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence, TypeVar

from .checkers import (
    _dual_masses,
    _Search,
    _single_against,
    _verify_witness,
    expanded_elements,
)
from .errors import BaseNotCoherent
from .gains import AGAINST, FOR, LOWER, UPPER, Bet
from .lp import Constraint, LinearProgram, Trace, Unbounded, over_one_denominator
from .model import Assessment, ConditionalVariable, Entry

_ZERO = Fraction(0)
_ONE = Fraction(1)


# an extension's value and its helpers
Extension = tuple[Fraction, Bet]
# element index -> stake; a negative stake bets against the element
Stakes = dict[int, Fraction]
# a stake as a `Fraction`, or as an int of a program's point
Stake = TypeVar("Stake", int, Fraction)
# the vectors p of a shrinking chain, each its nonzero masses by atom
Chain = tuple[dict[int, int], ...]


@dataclass(frozen=True)
class ExtensionResult:
    """Both extension bounds, each with the helper bet that certifies it,
    made of assessed terms that `gains.gain` prices: lower + G <= X on
    the target's event B, for the gain G of `lower_helpers`, and
    X + G <= upper there, for that of `upper_helpers`, with G <= 0
    wherever else the helpers reach.  So a price below `lower` or above
    `upper` is beaten by these helpers."""

    target: ConditionalVariable
    lower: Fraction
    upper: Fraction
    lower_helpers: Bet
    upper_helpers: Bet


class _Bound(NamedTuple):
    """A bound and its certificate, read out of its program as they come:
    `rel`, the bound less the payoff's floor (the program's optimum),
    and the net helper stakes s* that reach it, the ints `helpers` by
    element over `den`, the program's point and denominator; and the
    stakes s' of the last shrinking step, a direction that is strictly
    negative off the target's event."""

    rel: Fraction
    helpers: dict[int, int]
    den: int
    step: Stakes


class _Payoff(NamedTuple):
    """Y = sign * X on the target's event B, less `floor`, its least
    value there: `ints` by atom of B, none negative, over `den`."""

    target: ConditionalVariable
    sign: int
    floor: Fraction
    ints: dict[int, int]
    den: int


def _payoff(target: ConditionalVariable, sign: int) -> _Payoff:
    ints, den = over_one_denominator(target.values)
    if sign < 0:
        ints = [-v for v in ints]
    low = min(ints)
    atoms = sorted(target.cond.members)
    return _Payoff(target, sign, Fraction(low, den), {a: v - low for a, v in zip(atoms, ints)}, den)


def _net(stakes: dict[int, Stake], against: dict[int, Stake]) -> dict[int, Stake]:
    net = dict(stakes)
    for k, a in against.items():
        net[k] = net.get(k, 0) - a
    return {i: s for i, s in net.items() if s}


def _bound(
    search: _Search,
    payoff: _Payoff,
    combo: tuple[int, ...],
    usable: Sequence[int],
) -> tuple[_Bound | None, Chain]:
    """The bound for the payoff's Y and the against-terms `combo` (see
    the module docstring), over the elements `usable`, certified, and
    the chain that ran to it; None for the bound when no bet staking the
    against-term wins."""
    b = payoff.target.cond.members
    active = list(usable)
    stakes, chain, left = search.shrink(active, combo, b)
    if left is None:
        return None, tuple(chain)
    active, outside = left
    outcome = search.trace.solve(_bound_program(search, payoff, active, combo, outside))
    # bounded for a coherent base: an improving ray plus the direction
    # would be a losing bet
    xs = outcome.xs[:-1]
    net = _net(dict(zip(active, xs)), dict(zip(combo, xs[len(active):])))
    direction = {} if stakes is None else _net(*stakes)
    # the program prices above the floor, which s = 0 attains: its
    # optimum is the bound less the floor, and its point the helpers
    bound = _Bound(outcome.value, net, outcome.x_den, direction)
    if not _certified(search, payoff, bound):
        raise AssertionError("internal error: an extension bound fails its certificate")
    # the program's rows are B's atoms, then those outside, each by atom
    chain.append(_dual_masses([*sorted(b), *sorted(outside)], outcome))
    return bound, tuple(chain)


def _bound_program(
    search: _Search,
    payoff: _Payoff,
    active: Sequence[int],
    combo: tuple[int, ...],
    outside: frozenset[int],
) -> LinearProgram:
    """Maximise alpha with floor + alpha + G <= Y on B and G <= 0 on
    `outside`, for the gain G of the stakes on `active` less those on
    `combo`: one row per atom of B, by atom, then one per atom outside.
    The rhs on B is the payoff's Y - floor, which is nonnegative, and
    alpha >= 0 loses no optimum, since s = 0 reaches alpha = 0: every row
    is "<=", and the origin is feasible."""
    atoms = sorted(payoff.ints)
    n = len(active) + len(combo)
    scale = math.lcm(*(search.int_rows[i][1] for i in (*active, *combo)), payoff.den)
    f = scale // payoff.den
    rows = [
        Constraint((*row, scale), scale, f * payoff.ints[a])
        for a, row in zip(atoms, search.gain_terms(active, combo, atoms, scale))
    ]
    rows += [
        Constraint((*row, 0), scale, 0)
        for row in search.gain_terms(active, combo, sorted(outside), scale)
    ]
    return LinearProgram(objective=(_ZERO,) * n + (_ONE,), constraints=tuple(rows))


def _int_gain(search: _Search, stakes: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """The gain sum_i s_i g_i by atom of the stakes s_i = n_i / `den`,
    as ints over d = lcm(e_i) den for the denominators e_i of the gains,
    and d.  d need not be the least: every comparison of `_certified`
    is homogeneous in it."""
    e = math.lcm(*(search.int_rows[i][1] for i in stakes))
    gain: dict[int, int] = {}
    for i, n in stakes.items():
        row, m = search.int_rows[i]
        f = n * (e // m)
        for atom, v in row.items():
            gain[atom] = gain.get(atom, 0) + f * v
    return gain, e * den


def _certified(search: _Search, payoff: _Payoff, bound: _Bound) -> bool:
    """The certificate of a bound for the payoff's Y, checked on ints: no
    stake is negative but at most one against-term, none when the target
    is itself bet against (sign > 0); bound + sum s* g <= Y on B; and on
    the carriers' union outside B, sum s* g <= 0 and sum s' g < 0.  The
    condition on B is taken less the floor, rel + sum s* g <= Y - floor:
    rel by its numerator and denominator, the helpers' gain summed from
    the program's ints (`_int_gain`), and Y - floor the payoff's ints.
    The step's `Fraction` stakes are put over one denominator and summed
    only when some carrier reaches outside B."""
    signed = [*bound.helpers.items(), *bound.step.items()]
    against = {i for i, s in signed if s < 0}
    if len(against) > (1 if payoff.sign < 0 else 0):
        return False
    outside = frozenset().union(
        *(search.events[i] for i, _ in signed)
    ) - payoff.target.cond.members
    gain, d = _int_gain(search, bound.helpers, bound.den)
    p, q = bound.rel.as_integer_ratio()
    if not all(
        (p * d + q * gain.get(a, 0)) * payoff.den <= q * d * y for a, y in payoff.ints.items()
    ):
        return False
    if not outside:
        return True
    ints, den = over_one_denominator(list(bound.step.values()))
    direction, _ = _int_gain(search, dict(zip(bound.step, ints)), den)
    return all(gain.get(a, 0) <= 0 and direction.get(a, 0) < 0 for a in outside)


def _closed(
    search: _Search,
    payoff: _Payoff,
    rel: Fraction,
    combos: Sequence[tuple[int, ...]],
    chain: Chain,
    usable: Sequence[int],
) -> set[tuple[int, ...]]:
    """The combinations of `combos` that `chain` closes with the elements
    `usable` and t, a bet against Y|B at the value v = floor + `rel` for
    the payoff's Y = sign * X: X|B at the price sign * v, bet against
    when sign > 0 and for when sign < 0 (see the module docstring).  t
    is one more against-term of each for the walk, `_Search.closed_by`:
    its row Y - v on B, and B among the events that close it."""
    # Y - v = (Y - floor) - rel on B, times the payoff's denominator and rel's
    p, q = rel.as_integer_ratio()
    t = {a: y * q - p * payoff.den for a, y in payoff.ints.items()}
    return search.closed_by(chain, usable, combos, [t], payoff.target.cond.members)


def _certify(assessment: Assessment, search: _Search, chains: Sequence[Chain]) -> None:
    """Certify that the base is W-coherent: every combination of at most
    one against-term is closed by one of `chains` or runs its own chain
    (`_Search.run`).  Otherwise raise `BaseNotCoherent` with the losing
    bet that run found, verified through `gains`."""
    # the empty assessment is vacuously coherent
    if not assessment.entries:
        return
    witness = search.run(_single_against(len(search.elements)), given=chains)
    if witness is not None:
        _verify_witness(witness, assessment)
        raise BaseNotCoherent("the base assessment is not W-coherent", witness)


def _extension(
    search: _Search,
    payoff: _Payoff,
    combos: Sequence[tuple[int, ...]],
    usable: Sequence[int],
    chains: list[Chain],
) -> Extension:
    """The extension for the payoff's sign, sign * the largest bound for
    its Y over the against-terms `combos` with the elements `usable`, and
    its helpers (see the module docstring).  `closed` holds the
    combinations that the chains run close at the best bound so far, and
    none of them is solved.  A new chain is walked at that bound, and
    every chain again when it rises, so every combination is closed at
    the value returned once the loop ends.  A chain equal to one run
    before closes nothing new and is kept once.  The chains run join
    `chains`, each once.  Bounds are compared, and chains walked, by
    their `rel`s, as they share the payoff's floor; the value returned
    and its helper stakes are the only `Fraction`s made of a bound, for
    the best one."""
    best: _Bound | None = None
    ran: list[Chain] = []
    closed: set[tuple[int, ...]] = set()
    for combo in combos:
        if combo in closed:
            continue
        bound, chain = _bound(search, payoff, combo, usable)
        walk = [] if chain in ran else [chain]
        ran += walk
        if chain not in chains:
            chains.append(chain)
        if bound is not None and (best is None or bound.rel > best.rel):
            best, closed, walk = bound, set(), ran
        for run in walk if best is not None else ():
            pending = [c for c in combos if c not in closed]
            closed |= _closed(search, payoff, best.rel, pending, run, usable)
    assert best is not None  # () has no against-term to end its chain
    if not closed.issuperset(combos):
        raise AssertionError("internal error: an extension is not a coherent value")
    helpers = {i: Fraction(x, best.den) for i, x in best.helpers.items()}
    return payoff.sign * (payoff.floor + best.rel), search._witness(helpers)


def _upper_extension(
    search: _Search, target: ConditionalVariable, entry: Entry | None, chains: list[Chain]
) -> Extension:
    """The largest lower value of the target that keeps the assessment
    coherent: the target's own lower element leaves the search, and an
    assessed upper value stays in it; () comes last, as a (k,) chain
    that reaches its bound program closes it.  A precise target keeps
    its value, beaten above by its own upper element at stake 1."""
    payoff = _payoff(target, -1)
    index = {el.terms: i for i, el in enumerate(search.elements)}
    if entry is not None and entry.is_precise:
        own = index[((target, AGAINST, UPPER),)]
        if not _certified(search, payoff, _Bound(-entry.lower - payoff.floor, {own: 1}, 1, {})):
            raise AssertionError("internal error: an extension bound fails its certificate")
        return entry.lower, search._witness({own: _ONE})
    usable = [i for t, i in index.items() if t != ((target, FOR, LOWER),)]
    return _extension(search, payoff, [(k,) for k in usable] + [()], usable, chains)


def _extensions(
    assessment: Assessment,
    search: _Search,
    target: ConditionalVariable,
    *,
    lower: bool = True,
    upper: bool = True,
    certified: bool = False,
) -> tuple[Extension | None, Extension | None]:
    """The natural and upper extensions of the target that are asked
    for, each with its helpers, in this order (see the module
    docstring): the bounds, where an unbounded one shows that the base
    is not coherent; the base's certification with their chains, unless
    it is `certified` already; and then the comparison of an assessed
    target's values with them, which assumes a coherent base."""
    target.space._check(assessment.space)
    entry = assessment.entry_for(target)
    chains: list[Chain] = []
    everything = range(len(search.elements))
    try:
        le = _extension(search, _payoff(target, 1), [()], everything, chains) if lower else None
        lu = _upper_extension(search, target, entry, chains) if upper else None
    except Unbounded:
        _certify(assessment, search, chains)
        raise AssertionError(
            "internal error: an extension bound is unbounded over a W-coherent base"
        ) from None
    if not certified:
        _certify(assessment, search, chains)
    if entry is not None and le is not None and le[0] != entry.lower:
        raise AssertionError(
            "natural extension of an assessed variable must return its assessed value"
        )
    if entry is not None and lu is not None and lu[0] < entry.lower:
        raise AssertionError("assessed lower value exceeds every coherent value")
    return le, lu


def _search(assessment: Assessment, trace: Trace | None) -> _Search:
    """The search over the assessment's elements on `trace` (default: a
    fresh one); every bound of every target and the base's
    certification share it."""
    return _Search(expanded_elements(assessment), trace=trace or Trace())


def natural_extension(
    assessment: Assessment, target: ConditionalVariable, *, trace: Trace | None = None
) -> Fraction:
    """Least-committal W-coherent value for the target, exact and
    certified on both sides."""
    search = _search(assessment, trace)
    return _extensions(assessment, search, target, upper=False)[0][0]


def upper_extension(
    assessment: Assessment, target: ConditionalVariable, *, trace: Trace | None = None
) -> Fraction:
    """Largest coherent value for the target, exact and certified on
    both sides."""
    search = _search(assessment, trace)
    return _extensions(assessment, search, target, lower=False)[1][0]


def extend(
    assessment: Assessment, target: ConditionalVariable, *, trace: Trace | None = None
) -> ExtensionResult:
    search = _search(assessment, trace)
    (lower, lower_helpers), (upper, upper_helpers) = _extensions(assessment, search, target)
    return ExtensionResult(target, lower, upper, lower_helpers, upper_helpers)


PrevisionSource = Callable[[ConditionalVariable], Fraction]


def natural_extension_prevision(
    assessment: Assessment, *, trace: Trace | None = None
) -> PrevisionSource:
    """A memoised view of the natural extension as a total prevision.
    The base is certified and its search built once, here, before any
    target is known, so with no chains; every lookup solves on that
    search's trace, and each value carries its certificate."""
    search = _search(assessment, trace)
    _certify(assessment, search, ())
    cache: dict[ConditionalVariable, Fraction] = {}

    def lookup(cv: ConditionalVariable) -> Fraction:
        if cv not in cache:
            cache[cv] = _extensions(
                assessment, search, cv, upper=False, certified=True
            )[0][0]
        return cache[cv]

    return lookup
