"""Decision procedures for every consistency notion.

All notions share one search: a bet is a choice of "against" terms (none
for avoiding uniform loss, at most one for coherence, two for
bi-coherence, exactly one with unit stake for convexity) plus
nonnegative stakes on "for" terms.  The gain is positively homogeneous,
so stakes can be normalised to sum to at most one, which turns the
strict condition sup(G|B) < 0 into a decidable one: maximise eps subject
to G <= -eps on the relevant atoms; there is a violation iff eps > 0.
Convexity asks the for-stakes to sum to exactly one; with the
against-term k always staked for too, s_k = 1 - sum_{i != k} s_i leaves
G = sum_{i != k} s_i (g_i - g_k), homogeneous in the other stakes, so
the same normalisation applies.  Zero stakes are then feasible: every
program starts at the origin.

The conditioning event of a bet is the union of the conditioning events
of its terms, so the search must find the right support union.  For a
fixed union U it suffices to allow *every* entry whose conditioning
event lies inside U to carry stake: a solution with eps > 0 cannot be
faked by zero stakes, because any atom of U outside the true support
would have gain 0 >= -eps.  The search starts from the union of all
entries and shrinks it with the dual of each program that shows no
violation (`_Search.shrink`); the exhaustive enumeration of unions is
kept only as a test oracle.  One walk on ints, `_Search.closed_by`,
decides which combinations of against-terms a chain closes, in one
pass: it checks every dual the search solves, once, and it lets a
chain close the pending combinations it also rules out (`_Search.run`),
under every notion.  So on a precise assessment, whose conjugate
directions force p.g_j = 0 everywhere, W-coherence and bi-coherence
cost what the dF check costs: the computational side of their
reduction to de Finetti coherence on precise assessments.

Every check takes an `Assessment`, which holds all of its values.
Separate coherence groups its entries by conditioning event, and
Walley's avoiding sure loss reads them against a `PartitionFamily`,
which holds only cells and members.  The latter runs the same search
with no against-term.  A member of the family bet on one side on every
cell is one element on the whole space, the sum of its entries'
elements (`_summed`), so one program decides it (`check_walley_asl`).

Assessed upper previsions enter through conjugacy: an upper value u for
X|B is the lower value -u for -X|B, and precise entries contribute both
directions.  The quantifiers of each notion then range over this
one-sided expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Callable, Collection, Sequence

from . import gains
from .errors import (
    ConditionalEntriesUnsupported,
    EmptyAssessment,
    InvalidPartition,
    MalformedFamily,
    MissingSelfIndicator,
    MissingZeroVariables,
    NotPrecise,
    PrevisioError,
)
from .gains import AGAINST, FOR, LOWER, UPPER, Bet, BetTerm
from .lp import Constraint, LinearProgram, Optimal, Trace, over_one_denominator
from .model import (
    Assessment,
    ConditionalVariable,
    Entry,
    Event,
    PossibilitySpace,
    RandomVariable,
    restrict,
    zero_given,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

@dataclass(frozen=True)
class Verdict:
    """The outcome of a check.  `lp_count` is the number of programs the
    call solved and `max_pivots` the largest pivot count on its trace
    when it returned; with a fresh trace, the default, both cover
    exactly the call's own programs, nested checks included."""

    notion: str
    passed: bool
    witness: Bet | None = None
    lp_count: int = 0
    max_pivots: int = 0
    prerequisite_failure: str | None = None
    structural_failure: str | None = None


# a gain as its nonzero values by atom, ints over one positive int
IntRow = tuple[dict[int, int], int]


def _dual_masses(atoms: Sequence[int], outcome: Optimal) -> dict[int, int]:
    """The nonzero duals of `outcome`'s first rows by atom, as ints over
    their least common denominator, which is dropped: it changes the
    sign of no expectation."""
    ys = outcome.ys[: len(atoms)]
    g = reduce(math.gcd, ys, outcome.y_den)
    return {a: y // g for a, y in zip(atoms, ys) if y}


def _expects(p: dict[int, int], row: dict[int, int]) -> int:
    """p.g for the int masses p and the int gain row g, up to a
    positive factor."""
    return sum(m * row[a] for a, m in p.items() if a in row)


_OTHER_SIDE = {FOR: AGAINST, AGAINST: FOR}


@dataclass(frozen=True)
class _Element:
    """A gain the search can stake on, and the bet it stands for.

    `row` is the gain, `members` the atoms of the event it lives on, and
    `terms` the (variable, side, price) of each bet term it stands for
    when it is staked for.  A direction of an entry stands for one term:
    X|B bet for at its lower value, or, for the conjugate gain u - X on
    B of an upper value u, X|B bet against at u.  A member X of a
    partition family, on one side, sums that direction's elements of
    its entries on the cells: one term per cell, on the whole space.
    """

    row: IntRow
    members: frozenset[int]
    terms: tuple[tuple[ConditionalVariable, str, str], ...]

    def coefficients(self) -> dict[int, Fraction]:
        """The gain by atom as `Fraction`s, zeros left out."""
        gain, d = self.row
        return {a: Fraction(v, d) for a, v in gain.items()}

    def staked(self, side: str, stake: Fraction) -> list[BetTerm]:
        """The terms at `stake`; bet against, each term changes side."""
        return [
            BetTerm(x, stake, own if side == FOR else _OTHER_SIDE[own], price)
            for x, own, price in self.terms
        ]


def expanded_elements(assessment: Assessment) -> tuple[_Element, ...]:
    """The one-sided (lower-prevision) expansion of an assessment.

    An entry's prices and its values on B are put over one denominator
    in one pass, and both of its directions, X less the lower value and
    the upper value less X, are read off those ints."""
    out: list[_Element] = []
    for entry in assessment.entries:
        x = entry.variable
        prices = (entry.lower,) if entry.upper is None else (entry.lower, entry.upper)
        ints, d = over_one_denominator([*prices, *x.values])
        values = list(zip(sorted(x.cond.members), ints[len(prices):]))
        lower = ints[0]
        gain = {a: v - lower for a, v in values if v != lower}
        out.append(_Element((gain, d), x.cond.members, ((x, FOR, LOWER),)))
        if entry.upper is not None:
            upper = ints[1]
            gain = {a: upper - v for a, v in values if v != upper}
            out.append(_Element((gain, d), x.cond.members, ((x, AGAINST, UPPER),)))
    return tuple(out)


def _summed(parts: Sequence[_Element]) -> _Element:
    """One element for `parts`, which live on disjoint events: the sum of
    their gains, on the union of their events, for all of their terms."""
    d = math.lcm(*(part.row[1] for part in parts))
    gain = {a: v * (d // e) for g, e in (part.row for part in parts) for a, v in g.items()}
    members = frozenset().union(*(part.members for part in parts))
    return _Element((gain, d), members, tuple(t for part in parts for t in part.terms))


@dataclass
class _Search:
    elements: tuple[_Element, ...]
    convex: bool = False
    trace: Trace = field(default_factory=Trace)
    int_rows: tuple[IntRow, ...] = field(init=False)  # each element's gain
    events: tuple[frozenset[int], ...] = field(init=False)  # and its atoms

    def __post_init__(self) -> None:
        self.int_rows = tuple(el.row for el in self.elements)
        self.events = tuple(el.members for el in self.elements)

    def gain_terms(
        self,
        stakes: Sequence[int],
        against: Sequence[int],
        atoms: Sequence[int],
        scale: int,
        less: int | None = None,
    ) -> list[list[int]]:
        """One row per atom, whose columns are the gains of the elements
        `stakes`, each less the gain of the element `less` when one is
        given, and then the negated gains of `against`, as one int per
        column over `scale`, a multiple of each of their denominators."""
        signed = [(self.int_rows[i], 1) for i in stakes] + [(self.int_rows[k], -1) for k in against]
        columns = [(g, sign * (scale // d)) for (g, d), sign in signed]
        h, d = ({}, 1) if less is None else self.int_rows[less]
        rows = []
        for a in atoms:
            base = scale // d * h.get(a, 0)
            rows.append([f * g.get(a, 0) - base for g, f in columns])
        return rows

    def _columns(
        self, carriers: Sequence[int], combo: tuple[int, ...]
    ) -> tuple[Sequence[int], tuple[int, ...], int | None]:
        """The elements staked for and against in `program`'s columns,
        and the element whose gain every stake column is less of, if
        any.  Under convexity the against-term's own for-stake is one
        less the others, so it has no column, and neither has its unit
        against-stake."""
        if self.convex:
            return [i for i in carriers if i not in combo], (), combo[0]
        return carriers, combo, None

    def program(
        self, carriers: Sequence[int], combo: tuple[int, ...], region: frozenset[int]
    ) -> LinearProgram:
        """Maximise eps with G <= -eps on `region` under stakes that sum
        to at most one: one row per region atom, by atom, then the
        normalisation.

        Every row is "<=" with rhs 0 or 1, so the origin s = 0, eps = 0
        is feasible.  An optimum with eps > 0 has sum s = 1, since
        scaling s up would raise eps.  Under convexity the columns are
        g_i - g_k for the carriers i other than the against-term k, whose
        for-stake 1 - sum s completes the unit sum: the origin is the bet
        s_k = 1 against k, whose gain is 0.  k is staked for even when it
        is not a carrier, which is sound since B_k lies in the region.
        The for-stakes still sum to exactly one, unlike a homogenised
        form (the against-stake t as a column, sum s = t, t <= 1), whose
        duals have smaller support: de Finetti(1,2,32) took 1,060
        programs with it, not 68."""
        stakes, against, less = self._columns(carriers, combo)
        n = len(stakes) + len(against) + 1  # + eps
        scale = math.lcm(*(self.int_rows[i][1] for i in (*carriers, *combo)))
        rows = [
            Constraint((*row, scale), scale, 0)
            for row in self.gain_terms(stakes, against, sorted(region), scale, less)
        ]
        rows.append(Constraint((1,) * (n - 1) + (0,), 1, 1))
        return LinearProgram(objective=(_ZERO,) * (n - 1) + (_ONE,), constraints=tuple(rows))

    def violation(
        self,
        carriers: Sequence[int],
        combo: tuple[int, ...],
        region: frozenset[int],
    ) -> tuple[tuple[dict[int, Fraction], ...] | None, dict[int, int]]:
        """Solve `program`.  Returns the violating for- and against-stakes,
        by element, when eps > 0: the program's int point over its
        denominator, with a `Fraction` made only for each nonzero stake,
        the stakes `_witness` makes terms of.

        Otherwise eps = 0 is optimal, and it returns None and the
        program's row multipliers on the region atoms, as their positive
        masses by atom (see `_dual_masses`): a vector p under which no
        stake mix expects a gain below zero.  The dual constraint of the
        eps column gives sum p >= 1, and that of a stake column p.g_i >=
        0, or p.g_i >= p.g_k for the column g_i - g_k of convexity; that
        of an against column gives p.g_k <= 0.  p is checked where its
        chain is walked (`closed_by`).
        """
        outcome = self.trace.solve(self.program(carriers, combo, region))
        if outcome.value > 0:
            stakes = self._columns(carriers, combo)[0]
            xs, den = outcome.xs, outcome.x_den
            bought = {i: Fraction(x, den) for i, x in zip(stakes, xs) if x}
            if self.convex:
                return (bought, {combo[0]: _ONE}), {}
            sold = {k: Fraction(x, den) for k, x in zip(combo, xs[len(stakes):-1]) if x}
            return (bought, sold), {}
        return None, _dual_masses(sorted(region), outcome)

    def _witness(self, *stakes: dict[int, Fraction]) -> Bet:
        """The bet of signed stakes by element, one mapping after the
        other: a positive stake bets for its element, a negative one
        against it."""
        terms = []
        for signed in stakes:
            for i, s in signed.items():
                if s:
                    terms += self.elements[i].staked(FOR if s > 0 else AGAINST, abs(s))
        return Bet(tuple(terms))

    def _untouched(self, active: Sequence[int], zone: Collection[int]) -> list[int]:
        """The drop rule of a shrinking step: the elements of `active`
        whose events miss the atoms `zone` charges."""
        return [i for i in active if self.events[i].isdisjoint(zone)]

    def shrink(
        self,
        active: Sequence[int],
        combo: tuple[int, ...],
        excluded: frozenset[int] = frozenset(),
    ) -> tuple[
        tuple[dict[int, Fraction], ...] | None,
        list[dict[int, int]],
        tuple[list[int], frozenset[int]] | None,
    ]:
        """Iterative support shrinking, the direct algorithm of Walley,
        Pelessoni & Vicig (J. Stat. Plan. Inference 126, 2004): the chain
        of the against-terms `combo` from the elements `active`, which
        hold them.

        Each step solves `program` over the region, the union of the
        events of the active elements and of `combo`, less `excluded`.
        When it shows no violation, its dual p dominates every active
        element (see `violation`).  Any violating sub-bet has gain <= 0
        on the whole region and < 0 on its own support, so under p its
        expected gain would be negative unless its support misses the
        atoms p charges; the elements whose events meet them are dropped
        (`_untouched`) and the search repeats, one program per step.  If
        p charges an against-term's event, no bet staking that term can
        win and the chain ends.  The active set empties only for the
        empty combination: an against-term is dropped only by a p that
        meets its event, and such a p ends the chain first.

        Returns the violating for- and against-stakes of the step that
        finds them, or None; the chain, the p of each step that found
        none; and what is left, the active elements and the last region,
        or None when the chain ended on an against-term's event.  The
        chain also stops, with no stakes, once the region is empty."""
        combo_region = frozenset().union(*(self.events[k] for k in combo))
        chain: list[dict[int, int]] = []
        while True:
            region = combo_region.union(*(self.events[i] for i in active)) - excluded
            if not region:
                return None, chain, (active, region)
            stakes, p = self.violation(active, combo, region)
            if stakes is not None:
                return stakes, chain, (active, region)
            chain.append(p)
            if not combo_region.isdisjoint(p):
                return None, chain, None
            kept = self._untouched(active, p)
            if len(kept) == len(active):
                raise AssertionError("internal error: support shrinking made no progress")
            active = kept

    def closed_by(
        self,
        chain: Sequence[dict[int, int]],
        carriers: Sequence[int],
        combos: Sequence[tuple[int, ...]],
        against: Sequence[dict[int, int]] = (),
        closing: frozenset[int] = frozenset(),
    ) -> set[tuple[int, ...]]:
        """The combinations of `combos` that `chain`, each p int masses by
        atom, closes as a shrinking chain (see `shrink`) from the elements
        `carriers`, which hold their terms: walked once, on ints, with no
        program.

        The rows `against`, int gains by atom, are further against-terms
        of every combination, and `closing` holds their events.  Each
        step is rejected for every combination unless p has no negative
        mass, some positive one and expects a gain <= 0 from each row of
        `against`.  The atoms it charges are those of positive mass.  A
        combination c stays open while, among the active elements, those
        that expect a negative gain lie in c, and each term of c expects
        a gain <= 0; under convexity, (j,) stays open while p.g_j <= p.g_i
        for every active element i.  c is
        closed by a step that keeps it open and charges an event of its
        terms or `closing`, and () also once the step's drops leave no
        element active, when there is no row `against`.  A combination
        that fails a step, or that the chain ends before closing, is not
        closed.

        A closed combination c has no losing bet.  Such a bet, with the
        against-terms c and the rows `against` and for-stakes on some
        carriers S outside c, has gain G < 0 on its conditioning event U,
        the union of its terms' events, and 0 off it.  While S is active,
        every p expects G >= 0 from the conditions above, so p charges
        nothing in U, and S stays active.  The closing step charges an
        event of a term, which lies in U: a contradiction.  With no
        against-term S is not empty, and the drops cannot empty the
        active set, which holds S.  Under convexity the bet has a unit stake against j and
        for-stakes that sum to one, so G = sum_i s_i (g_i - g_j), which
        every p expects >= 0 by the same token."""
        rows, events = self.int_rows, self.events
        # each open combination, by the atoms whose charge closes it
        shuts = {c: closing.union(*(events[k] for k in c)) for c in combos}
        active = list(carriers)
        closed: set[tuple[int, ...]] = set()
        for p in chain:
            if not shuts:
                break
            charged = [a for a, m in p.items() if m > 0]
            if not charged or min(p.values()) < 0 or any(_expects(p, t) > 0 for t in against):
                break
            # an open combination's terms are active: a charge on one ends it
            expects = {i: _expects(p, rows[i][0]) for i in active}
            if self.convex:
                low = active[0]  # the active element that expects the least
                for i in active:
                    if expects[i] * rows[low][1] < expects[low] * rows[i][1]:
                        low = i
            else:
                negative = [i for i in active if expects[i] < 0]
            for c, shut in list(shuts.items()):
                if self.convex:
                    (j,) = c
                    kept = expects[j] * rows[low][1] <= expects[low] * rows[j][1]
                else:
                    kept = all(expects[k] <= 0 for k in c) and all(i in c for i in negative)
                if not kept or not shut.isdisjoint(charged):
                    del shuts[c]
                    if kept:
                        closed.add(c)
            active = self._untouched(active, charged)
            if not active and not against and () in shuts:
                del shuts[()]
                closed.add(())
        return closed

    def run(
        self,
        combos: Sequence[tuple[int, ...]],
        given: Sequence[Sequence[dict[int, int]]] = (),
    ) -> Bet | None:
        """The first violating bet over the combinations `combos`, each
        shrinking from every element (see `shrink`), or None.  Each of
        the chains `given` is walked once (`closed_by`), with every
        element a carrier, and a combination it closes is not run.

        The chain each combination runs is walked once, for itself and
        for every later combination still pending, which it closes too
        when its duals rule them out.  Every dual the search solves is
        checked there, and a chain that does not close its own
        combination is an internal error.  A combination that is not
        closed runs its own chain from the full active set, and the
        order of combinations is kept, so the first violating one runs
        the same chain and finds the same witness as without sharing.
        """
        everything = list(range(len(self.elements)))
        closed: set[tuple[int, ...]] = set()
        for chain in given:
            closed |= self.closed_by(chain, everything, [c for c in combos if c not in closed])
        for pos, combo in enumerate(combos):
            if combo in closed:
                continue
            stakes, chain, _ = self.shrink(everything, combo)
            if stakes is not None:
                bought, sold = stakes
                return self._witness(bought, {k: -a for k, a in sold.items()})
            pending = [c for c in combos[pos + 1:] if c not in closed]
            shut = self.closed_by(chain, everything, [combo, *pending])
            if combo not in shut:
                raise AssertionError("internal error: a chain does not close its combination")
            closed |= shut
        return None


def _verify_witness(bet: Bet, assessment: Assessment) -> None:
    """Raise an internal error unless `bet` loses on every atom of its
    conditioning event.  Its gain is summed again on ints by
    `gains.gain_ints`, with each price read from the assessment and each
    value from the term's own variable, so the re-check trusts nothing
    of the search that found the bet.  A bet of no terms gains 0, and a
    bet the assessment cannot price fails too."""
    try:
        totals, _, conditioning, _ = gains.gain_ints(bet, assessment)
    except PrevisioError as exc:
        raise AssertionError(f"internal error: witness cannot be priced: {exc}") from exc
    if max((totals[a] for a in conditioning), default=0) >= 0:
        raise AssertionError("internal error: witness gain is not negative")


def _verdict(notion: str, trace: Trace, start: int, **fields) -> Verdict:
    """A verdict counting the programs solved on `trace` since it had
    `start` solves."""
    return Verdict(
        notion, lp_count=trace.solves - start, max_pivots=trace.max_pivots, **fields
    )


def _braced(event: Event) -> str:
    return "{" + ",".join(event.atoms()) + "}"


def _listed(values: Sequence[Fraction]) -> str:
    return "(" + ", ".join(map(str, values)) + ")"


def _generic_check(
    assessment: Assessment,
    notion: str,
    combos_of: Callable[[int], Sequence[tuple[int, ...]]],
    trace: Trace | None,
    *,
    convex: bool = False,
) -> Verdict:
    if not assessment.entries:
        raise EmptyAssessment(f"{notion} needs a nonempty assessment")
    elements = expanded_elements(assessment)
    search = _Search(elements, convex=convex, trace=trace or Trace())
    start = search.trace.solves
    witness = search.run(combos_of(len(elements)))
    if witness is not None:
        _verify_witness(witness, assessment)
        return _verdict(notion, search.trace, start, passed=False, witness=witness)
    return _verdict(notion, search.trace, start, passed=True)


def _no_against(n: int) -> list[tuple[int, ...]]:
    return [()]


def _single_against(n: int) -> list[tuple[int, ...]]:
    return [()] + [(i,) for i in range(n)]


def _double_against(n: int) -> list[tuple[int, ...]]:
    return [()] + [(i,) for i in range(n)] + list(combinations(range(n), 2))


def _require_unconditional(assessment: Assessment, notion: str) -> None:
    if not assessment.is_unconditional:
        raise ConditionalEntriesUnsupported(
            f"{notion} is defined for unconditional assessments only"
        )


def _require_precise(assessment: Assessment, notion: str) -> None:
    for entry in assessment.entries:
        if not entry.is_precise:
            raise NotPrecise(f"{notion} needs lower = upper on every entry")


def check_w_coherence(assessment: Assessment, *, trace: Trace | None = None) -> Verdict:
    """Coherence for conditional lower previsions: any number of terms
    in favour, at most one against, gain conditioned on the union of
    the conditioning events."""
    return _generic_check(assessment, "w-coherence", _single_against, trace)


def check_aul(assessment: Assessment, *, trace: Trace | None = None) -> Verdict:
    """Avoiding uniform loss: as coherence but with no against-term."""
    return _generic_check(assessment, "aul", _no_against, trace)


def check_coherence_unconditional(
    assessment: Assessment, *, trace: Trace | None = None
) -> Verdict:
    _require_unconditional(assessment, "coherence-unconditional")
    return _generic_check(assessment, "coherence-unconditional", _single_against, trace)


def check_df_precise_conditional(
    assessment: Assessment, *, trace: Trace | None = None
) -> Verdict:
    """de Finetti coherence of a precise conditional prevision: betting
    for and against without limits.  Through conjugacy every entry
    already carries both directions, so no against-term is needed."""
    _require_precise(assessment, "df-precise-conditional")
    return _generic_check(assessment, "df-precise-conditional", _no_against, trace)


def check_df_precise_unconditional(
    assessment: Assessment, *, trace: Trace | None = None
) -> Verdict:
    _require_precise(assessment, "df-precise-unconditional")
    _require_unconditional(assessment, "df-precise-unconditional")
    return _generic_check(assessment, "df-precise-unconditional", _no_against, trace)


def check_bi_coherence(assessment: Assessment, *, trace: Trace | None = None) -> Verdict:
    """Coherence with at most two against-terms (unconditional)."""
    _require_unconditional(assessment, "bi-coherence")
    return _generic_check(assessment, "bi-coherence", _double_against, trace)


def check_convex(assessment: Assessment, *, trace: Trace | None = None) -> Verdict:
    """Convexity: exactly one against-term with unit stake, for-stakes
    summing to one."""
    return _generic_check(
        assessment, "convex", lambda n: [(i,) for i in range(n)], trace, convex=True
    )


def check_centered_convex(assessment: Assessment, *, trace: Trace | None = None) -> Verdict:
    """Convexity plus 0|B assessed at exactly 0 for every conditioning
    event appearing in the domain."""
    if not assessment.entries:
        raise EmptyAssessment("centered-convex needs a nonempty assessment")
    bad_values = []
    for event in assessment.conditioning_events():
        zero = zero_given(event)
        entry = assessment.entry_for(zero)
        if entry is None:
            raise MissingZeroVariables(
                "0|B must be assessed for every conditioning event"
            )
        if entry.lower != 0:
            bad_values.append(f"0|{_braced(event)} valued {entry.lower}")
    trace = trace or Trace()
    if bad_values:
        return _verdict(
            "centered-convex",
            trace,
            trace.solves,
            passed=False,
            structural_failure="; ".join(bad_values),
        )
    return replace(check_convex(assessment, trace=trace), notion="centered-convex")


# ---------------------------------------------------------------------------
# separate coherence


def _check_disjoint(cells: Sequence[Event]) -> None:
    for a, b in combinations(cells, 2):
        if not (a & b).is_empty:
            raise InvalidPartition("cells overlap")
    for cell in cells:
        if cell.is_empty:
            raise InvalidPartition("cells must be nonempty")


def check_separate_coherence(
    assessment: Assessment, *, trace: Trace | None = None
) -> Verdict:
    """Per-cell coherence.  The entries are grouped by their conditioning
    events, the cells, in order, and the cells must be disjoint.  Each
    cell prices its own indicator at 1, and its entries, in entry order,
    are W-coherent.  Their programs are those of the same values read as
    an unconditional lower prevision on the subspace of the cell: the
    rows are the cell's atoms in the same order, the columns its
    entries."""
    by_cell: dict[Event, list[Entry]] = {}
    for entry in assessment.entries:
        by_cell.setdefault(entry.variable.cond, []).append(entry)
    if not by_cell:
        raise EmptyAssessment("separate coherence needs at least one cell")
    _check_disjoint(list(by_cell))
    trace = trace or Trace()
    start = trace.solves
    for cell, entries in by_cell.items():
        self_indicator = restrict(cell.space.indicator(cell), cell)
        entry = assessment.entry_for(self_indicator)
        if entry is None:
            raise MissingSelfIndicator(
                "B|B must be assessed in the cell of B"
            )
        if entry.lower != 1:
            return _verdict(
                "separate-coherence",
                trace,
                start,
                passed=False,
                structural_failure=(
                    f"{_braced(cell)} prices its own indicator "
                    f"at {entry.lower}, not 1"
                ),
            )
        inner = check_w_coherence(Assessment(assessment.space, tuple(entries)), trace=trace)
        if not inner.passed:
            return _verdict(
                "separate-coherence", trace, start, passed=False, witness=inner.witness
            )
    return _verdict("separate-coherence", trace, start, passed=True)


# ---------------------------------------------------------------------------
# Walley's avoiding sure loss


@dataclass(frozen=True)
class PartitionFamily:
    """A common set of variables, the members, to be assessed
    conditionally on every cell of a finite partition of the sure event.
    Their values live in the assessment checked against the family
    (`check_walley_asl`)."""

    space: PossibilitySpace
    cells: tuple[Event, ...]
    members: tuple[RandomVariable, ...]

    def __post_init__(self) -> None:
        _check_disjoint(self.cells)
        covered = frozenset().union(*(c.members for c in self.cells))
        if len(covered) != self.space.size:
            raise InvalidPartition("cells must cover the sure event")
        if len(set(self.members)) != len(self.members):
            raise MalformedFamily("members must be distinct variables")
        zero = self.space.constant(0)
        if zero not in self.members:
            raise MalformedFamily("the zero variable must belong to the family")
        for cell in self.cells:
            if self.space.indicator(cell) not in self.members:
                raise MalformedFamily(
                    "every cell indicator must belong to the family"
                )


def check_walley_asl(
    assessment: Assessment, family: PartitionFamily, *, trace: Trace | None = None
) -> Verdict:
    """Avoiding sure loss in Walley's conglomerative sense.

    Every member of `family` must be assessed on every cell, and the
    entries of `assessment` that are no member's restriction to a cell,
    the side assessment, must be unconditional; otherwise the family is
    malformed.  Prerequisites: the side assessment, if any, is a
    coherent lower prevision, and the member restrictions, in (cell,
    member) order with coinciding ones kept once, are separately
    coherent.  The main test then rules out gains combining
    unconditional terms with conglomerative ones, expanded per atom
    since exactly one cell is true whatever happens; their supremum is
    over the whole space.  It is the search with no against-term over
    the side assessment's elements, then each member's "for" element
    and, when every cell has an upper value, precise or not, its
    "against" element: the sum of its entries' elements on the cells.
    Every element lives on the whole space, so the first program
    decides: its dual, when it shows no violation, drops them all.
    """
    notion = "walley-asl"
    # each member's entry on each cell
    table = [[assessment.entry_for(restrict(m, c)) for c in family.cells] for m in family.members]
    for member, row in zip(family.members, table):
        if None in row:
            cell = family.cells[row.index(None)]
            raise MalformedFamily(
                f"the family member {_listed(member.values)} has no entry given {_braced(cell)}"
            )
    restrictions = {entry.variable for row in table for entry in row}
    others = [entry for entry in assessment.entries if entry.variable not in restrictions]
    for entry in others:
        if not entry.variable.cond.is_sure:
            x = entry.variable
            raise MalformedFamily(
                f"the entry of {_listed(x.values)} given {_braced(x.cond)} "
                "is no family member restricted to a cell"
            )
    trace = trace or Trace()
    start = trace.solves
    k = Assessment(assessment.space, tuple(others))
    if others:
        pre_a = check_coherence_unconditional(k, trace=trace)
        if not pre_a.passed:
            return _verdict(
                notion,
                trace,
                start,
                passed=False,
                witness=pre_a.witness,
                prerequisite_failure="unconditional part is not coherent",
            )
    per_cell = dict.fromkeys(row[j] for j in range(len(family.cells)) for row in table)
    pre_b = check_separate_coherence(Assessment(assessment.space, tuple(per_cell)), trace=trace)
    if not pre_b.passed:
        return _verdict(
            notion,
            trace,
            start,
            passed=False,
            witness=pre_b.witness,
            prerequisite_failure=(
                pre_b.structural_failure or "per-cell restrictions are not "
                "separately coherent"
            ),
        )

    expanded = expanded_elements(assessment)
    elements = [el for el in expanded if el.terms[0][0] not in restrictions]
    by_term = {el.terms[0][:2]: el for el in expanded}
    for entries in table:
        for side in (FOR, AGAINST):
            parts = [by_term.get((entry.variable, side)) for entry in entries]
            if None not in parts:
                elements.append(_summed(parts))
    witness = _Search(tuple(elements), trace=trace).run([()])
    if witness is not None:
        _verify_witness(witness, assessment)
        return _verdict(notion, trace, start, passed=False, witness=witness)
    return _verdict(notion, trace, start, passed=True)
