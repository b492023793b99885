"""Decision procedures for every consistency notion.

All notions share one search: a bet is a choice of "against" terms (none
for avoiding uniform loss, at most one for coherence, two for
bi-coherence, exactly one with unit stake for convexity) plus
nonnegative stakes on "for" terms.  The gain is positively homogeneous,
so stakes can be normalised to sum to one, which turns the strict
condition sup(G|B) < 0 into a decidable one: maximise eps subject to
G <= -eps on the relevant atoms; there is a violation iff eps > 0.

The conditioning event of a bet is the union of the conditioning events
of its terms, so the search must find the right support union.  For a
fixed union U it suffices to allow *every* entry whose conditioning
event lies inside U to carry stake: a solution with eps > 0 cannot be
faked by zero stakes, because any atom of U outside the true support
would have gain 0 >= -eps.  The search starts from the union of all
entries and shrinks it with the dual of each program that shows no
violation (`_Search.run`); `bruteforce` keeps the exhaustive
enumeration of unions as a test oracle.

Assessed upper previsions enter through conjugacy: an upper value u for
X|B is the lower value -u for -X|B, and precise entries contribute both
directions.  The quantifiers of each notion then range over this
one-sided expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from . import gains
from .errors import (
    ConditionalEntriesUnsupported,
    EmptyAssessment,
    InvalidPartition,
    MalformedFamily,
    MissingSelfIndicator,
    MissingZeroVariables,
    NotPrecise,
)
from .gains import AGAINST, FOR, LOWER, UPPER, Bet, BetTerm
from .lp import Infeasible, LinearProgram, Optimal, constraint, solve
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

NOTIONS = (
    "df-precise-unconditional",
    "df-precise-conditional",
    "coherence-unconditional",
    "w-coherence",
    "aul",
    "convex",
    "centered-convex",
    "bi-coherence",
    "separate-coherence",
    "walley-asl",
)


@dataclass(frozen=True)
class ProbeRecord:
    """One solved program: which against-terms, how many atoms were
    constrained, and the optimal margin (None when infeasible)."""

    against: tuple[int, ...]
    region_size: int
    epsilon: Fraction | None


@dataclass(frozen=True)
class Verdict:
    notion: str
    passed: bool
    witness: Bet | None = None
    certificate: tuple[ProbeRecord, ...] | None = None
    lp_count: int = 0
    max_pivots: int = 0
    prerequisite_failure: str | None = None
    structural_failure: str | None = None


@dataclass(frozen=True)
class _Element:
    """One direction of an assessed value: bet for `cv` at `value`.

    Conjugate elements carry the negated variable at the negated upper
    prevision; `base` and `from_upper` remember how to spell a bet term
    in terms of the original assessment.
    """

    cv: ConditionalVariable
    value: Fraction
    base: ConditionalVariable
    from_upper: bool

    def coefficients(self) -> dict[int, Fraction]:
        return {i: v - self.value for i, v in self.cv.value_map().items()}

    def term(self, side: str, stake: Fraction) -> BetTerm:
        if not self.from_upper:
            return BetTerm(self.base, stake, side, LOWER)
        flipped = AGAINST if side == FOR else FOR
        return BetTerm(self.base, stake, flipped, UPPER)


def expanded_elements(assessment: Assessment) -> tuple[_Element, ...]:
    """The one-sided (lower-prevision) expansion of an assessment."""
    out: list[_Element] = []
    for entry in assessment.entries:
        out.append(_Element(entry.variable, entry.lower, entry.variable, False))
        if entry.upper is not None:
            negated = ConditionalVariable(
                entry.variable.cond,
                tuple(-v for v in entry.variable.values),
            )
            out.append(_Element(negated, -entry.upper, entry.variable, True))
    return tuple(out)


@dataclass
class _Search:
    elements: tuple[_Element, ...]
    convex: bool = False
    lp_count: int = 0
    max_pivots: int = 0
    records: list[ProbeRecord] = field(default_factory=list)
    coeffs: tuple[dict[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        self.coeffs = tuple(el.coefficients() for el in self.elements)

    def violation(
        self,
        carriers: Sequence[int],
        combo: tuple[int, ...],
        region: frozenset[int],
    ) -> tuple[Bet | None, frozenset[int]]:
        """Maximise eps with G <= -eps on `region` under normalised stakes.

        Returns the violating bet when eps > 0.  Otherwise the program's
        dual is a vector p on the region atoms under which no stake mix
        expects a gain below zero: its optimal multipliers when eps = 0,
        its Farkas multipliers when no mix reaches eps >= 0.  The region
        rows come first, so p is the head of either.  p is checked
        exactly and the atoms it charges are returned.
        """
        atoms = sorted(region)
        n_for = len(carriers)
        n_against = 0 if self.convex else len(combo)
        n = n_for + n_against + 1  # + eps
        rows = []
        for atom in atoms:
            coeffs = [self.coeffs[i].get(atom, _ZERO) for i in carriers]
            if self.convex:
                fixed = sum(
                    (self.coeffs[k].get(atom, _ZERO) for k in combo), _ZERO
                )
                rhs = fixed  # the unit against-stake moves to the rhs
            else:
                coeffs += [-self.coeffs[k].get(atom, _ZERO) for k in combo]
                rhs = _ZERO
            coeffs.append(_ONE)
            rows.append(constraint(coeffs, "<=", rhs))
        norm = [_ONE] * n_for + [_ZERO if self.convex else _ONE] * n_against + [_ZERO]
        rows.append(constraint(norm, "=", 1))
        objective = tuple([_ZERO] * (n - 1) + [_ONE])
        outcome = solve(LinearProgram(objective=objective, constraints=tuple(rows)))
        self.lp_count += 1
        self.max_pivots = max(self.max_pivots, outcome.pivots)
        if isinstance(outcome, Infeasible):
            self.records.append(ProbeRecord(combo, len(region), None))
            p = outcome.certificate.multipliers[: len(atoms)]
        elif isinstance(outcome, Optimal):
            self.records.append(ProbeRecord(combo, len(region), outcome.value))
            if outcome.value > 0:
                stakes = {i: outcome.point[pos] for pos, i in enumerate(carriers)}
                against = (
                    {k: _ONE for k in combo}
                    if self.convex
                    else {k: outcome.point[n_for + pos] for pos, k in enumerate(combo)}
                )
                return self._witness(stakes, against), frozenset()
            p = outcome.duals[: len(atoms)]
        else:
            raise AssertionError("stake simplex cannot be unbounded")
        if not self._dominates(dict(zip(atoms, p)), carriers, combo):
            raise AssertionError("internal error: dual vector does not dominate")
        return None, frozenset(a for a, w in zip(atoms, p) if w > 0)

    def _dominates(
        self, p: dict[int, Fraction], carriers: Sequence[int], combo: Sequence[int]
    ) -> bool:
        """p >= 0, p != 0, and no stake mix expects a negative gain under
        p: with free against-stakes p.g_i >= 0 for every for direction
        and p.g_k <= 0 for every against-term; with the unit
        against-stake of convexity min_i p.g_i >= p.g_k."""
        if any(w < 0 for w in p.values()) or not any(p.values()):
            return False

        def expect(i: int) -> Fraction:
            return sum((w * self.coeffs[i].get(a, _ZERO) for a, w in p.items()), _ZERO)

        if self.convex:
            fixed = sum((expect(k) for k in combo), _ZERO)
            return all(expect(i) >= fixed for i in carriers)
        return all(expect(i) >= 0 for i in carriers) and all(
            expect(k) <= 0 for k in combo
        )

    def _witness(
        self, stakes: dict[int, Fraction], against: dict[int, Fraction]
    ) -> Bet:
        terms = [
            self.elements[i].term(FOR, s) for i, s in stakes.items() if s > 0
        ]
        terms += [
            self.elements[k].term(AGAINST, a) for k, a in against.items() if a > 0
        ]
        return Bet(tuple(terms))

    def run(self, combos: Sequence[tuple[int, ...]]) -> Bet | None:
        """Iterative support shrinking, the direct algorithm of Walley,
        Pelessoni & Vicig (J. Stat. Plan. Inference 126, 2004).

        When the program over every active entry shows no violation, its
        dual p dominates them (see `violation`).  Any violating sub-bet
        has gain <= 0 on the whole region and < 0 on its own support,
        so under p its expected gain would be negative unless its
        support misses the atoms p charges; entries touching those
        atoms are discarded and the search repeats, one program per
        step.  If p charges an against-term's event, no bet staking that
        term can win and the combination is done.
        """
        member_sets = [el.cv.cond.members for el in self.elements]
        for combo in combos:
            combo_region = frozenset().union(*(member_sets[k] for k in combo))
            active = list(range(len(self.elements)))
            while active:
                union = frozenset().union(*(member_sets[i] for i in active))
                witness, zone = self.violation(active, combo, union | combo_region)
                if witness is not None:
                    return witness
                if combo_region & zone:
                    break
                kept = [i for i in active if not (member_sets[i] & zone)]
                if len(kept) == len(active):
                    raise AssertionError("support shrinking made no progress")
                active = kept
            else:
                # every entry was discarded; the against-terms may still
                # lose uniformly on their own
                if combo and not self.convex:
                    witness, _ = self.violation((), combo, combo_region)
                    if witness is not None:
                        return witness
        return None


def _verify_witness(bet: Bet, assessment: Assessment) -> None:
    table = gains.gain(bet, assessment)
    if table.sup_on_conditioning() >= 0:
        raise AssertionError("internal error: witness gain is not negative")


def _generic_check(
    assessment: Assessment,
    notion: str,
    combos_of: Callable[[int], Sequence[tuple[int, ...]]],
    *,
    convex: bool = False,
) -> Verdict:
    if not assessment.entries:
        raise EmptyAssessment(f"{notion} needs a nonempty assessment")
    elements = expanded_elements(assessment)
    search = _Search(elements, convex=convex)
    witness = search.run(combos_of(len(elements)))
    if witness is not None:
        _verify_witness(witness, assessment)
        return Verdict(
            notion,
            passed=False,
            witness=witness,
            lp_count=search.lp_count,
            max_pivots=search.max_pivots,
        )
    return Verdict(
        notion,
        passed=True,
        certificate=tuple(search.records),
        lp_count=search.lp_count,
        max_pivots=search.max_pivots,
    )


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


def check_w_coherence(assessment: Assessment) -> Verdict:
    """Coherence for conditional lower previsions: any number of terms
    in favour, at most one against, gain conditioned on the union of
    the conditioning events."""
    return _generic_check(assessment, "w-coherence", _single_against)


def check_aul(assessment: Assessment) -> Verdict:
    """Avoiding uniform loss: as coherence but with no against-term."""
    return _generic_check(assessment, "aul", _no_against)


def check_coherence_unconditional(assessment: Assessment) -> Verdict:
    _require_unconditional(assessment, "coherence-unconditional")
    return _generic_check(assessment, "coherence-unconditional", _single_against)


def check_df_precise_conditional(assessment: Assessment) -> Verdict:
    """de Finetti coherence of a precise conditional prevision: betting
    for and against without limits.  Through conjugacy every entry
    already carries both directions, so no against-term is needed."""
    _require_precise(assessment, "df-precise-conditional")
    return _generic_check(assessment, "df-precise-conditional", _no_against)


def check_df_precise_unconditional(assessment: Assessment) -> Verdict:
    _require_precise(assessment, "df-precise-unconditional")
    _require_unconditional(assessment, "df-precise-unconditional")
    return _generic_check(assessment, "df-precise-unconditional", _no_against)


def check_bi_coherence(assessment: Assessment) -> Verdict:
    """Coherence with at most two against-terms (unconditional)."""
    _require_unconditional(assessment, "bi-coherence")
    return _generic_check(assessment, "bi-coherence", _double_against)


def check_convex(assessment: Assessment) -> Verdict:
    """Convexity: exactly one against-term with unit stake, for-stakes
    summing to one."""
    return _generic_check(
        assessment,
        "convex",
        lambda n: [(i,) for i in range(n)],
        convex=True,
    )


def check_centered_convex(assessment: Assessment) -> Verdict:
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
            bad_values.append(
                f"0|{{{','.join(event.atoms())}}} valued {entry.lower}"
            )
    if bad_values:
        return Verdict(
            "centered-convex",
            passed=False,
            structural_failure="; ".join(bad_values),
        )
    inner = check_convex(assessment)
    return Verdict(
        "centered-convex",
        passed=inner.passed,
        witness=inner.witness,
        certificate=inner.certificate,
        lp_count=inner.lp_count,
        max_pivots=inner.max_pivots,
    )


# ---------------------------------------------------------------------------
# separate coherence


def _check_disjoint(cells: Sequence[Event]) -> None:
    for a, b in combinations(cells, 2):
        if not (a & b).is_empty:
            raise InvalidPartition("cells overlap")
    for cell in cells:
        if cell.is_empty:
            raise InvalidPartition("cells must be nonempty")


def subspace_reading(cell: Event, entries: Sequence[Entry]) -> Assessment:
    """Read the X|B entries of one cell as an unconditional assessment
    on the subspace of B's atoms."""
    space = cell.space
    sub = PossibilitySpace(tuple(space.atoms[i] for i in sorted(cell.members)))
    out = []
    for entry in entries:
        rv = RandomVariable(sub, entry.variable.values)
        out.append(Entry(rv.unconditional(), entry.lower, entry.upper))
    return Assessment(sub, tuple(out))


def _lift_subspace_witness(bet: Bet, cell: Event) -> Bet:
    terms = []
    for term in bet.terms:
        lifted = ConditionalVariable(cell, term.variable.values)
        terms.append(BetTerm(lifted, term.stake, term.side, term.price))
    return Bet(tuple(terms))


def merged_family(family: Sequence[tuple[Event, Assessment]]) -> Assessment:
    entries: list[Entry] = []
    space = family[0][0].space
    for _, assessment in family:
        entries.extend(assessment.entries)
    return Assessment(space, tuple(entries))


def check_separate_coherence(
    family: Sequence[tuple[Event, Assessment]],
) -> Verdict:
    """Per-cell coherence: the cell's own indicator is priced 1, and the
    remaining values form a coherent unconditional lower prevision on
    the subspace of the cell."""
    if not family:
        raise EmptyAssessment("separate coherence needs at least one cell")
    cells = [cell for cell, _ in family]
    _check_disjoint(cells)
    lp_count = 0
    max_pivots = 0
    records: list[ProbeRecord] = []
    for cell, assessment in family:
        for entry in assessment.entries:
            if entry.variable.cond != cell:
                raise InvalidPartition(
                    "an entry is conditioned on an event other than its cell"
                )
        self_indicator = restrict(cell.space.indicator(cell), cell)
        entry = assessment.entry_for(self_indicator)
        if entry is None:
            raise MissingSelfIndicator(
                "B|B must be assessed in the cell of B"
            )
        if entry.lower != 1:
            return Verdict(
                "separate-coherence",
                passed=False,
                structural_failure=(
                    f"{{{','.join(cell.atoms())}}} prices its own indicator "
                    f"at {entry.lower}, not 1"
                ),
                lp_count=lp_count,
                max_pivots=max_pivots,
            )
        inner = check_coherence_unconditional(
            subspace_reading(cell, assessment.entries)
        )
        lp_count += inner.lp_count
        max_pivots = max(max_pivots, inner.max_pivots)
        if not inner.passed:
            witness = _lift_subspace_witness(inner.witness, cell)
            _verify_witness(witness, merged_family(family))
            return Verdict(
                "separate-coherence",
                passed=False,
                witness=witness,
                lp_count=lp_count,
                max_pivots=max_pivots,
            )
        if inner.certificate:
            records.extend(inner.certificate)
    return Verdict(
        "separate-coherence",
        passed=True,
        certificate=tuple(records),
        lp_count=lp_count,
        max_pivots=max_pivots,
    )


# ---------------------------------------------------------------------------
# Walley's avoiding sure loss


@dataclass(frozen=True)
class PartitionFamily:
    """A common set of variables assessed conditionally on every cell of
    a finite partition of the sure event."""

    space: PossibilitySpace
    cells: tuple[Event, ...]
    members: tuple[RandomVariable, ...]
    lower: tuple[tuple[Fraction, ...], ...]          # lower[i][j]: members[i] | cells[j]
    upper: tuple[tuple[Fraction | None, ...], ...]

    def __post_init__(self) -> None:
        _check_disjoint(self.cells)
        covered = frozenset().union(*(c.members for c in self.cells))
        if len(covered) != self.space.size:
            raise InvalidPartition("cells must cover the sure event")
        if len(set(self.members)) != len(self.members):
            raise MalformedFamily("members must be distinct variables")
        if len(self.lower) != len(self.members) or len(self.upper) != len(self.members):
            raise MalformedFamily("one value row per member is required")
        for row_l, row_u in zip(self.lower, self.upper):
            if len(row_l) != len(self.cells) or len(row_u) != len(self.cells):
                raise MalformedFamily("one value per cell is required")
        zero = self.space.constant(0)
        if zero not in self.members:
            raise MalformedFamily("the zero variable must belong to the family")
        for cell in self.cells:
            if self.space.indicator(cell) not in self.members:
                raise MalformedFamily(
                    "every cell indicator must belong to the family"
                )

    @classmethod
    def precise(
        cls,
        space: PossibilitySpace,
        cells: Sequence[Event],
        members: Sequence[RandomVariable],
        table: Sequence[Sequence[Fraction]],
    ) -> "PartitionFamily":
        lower = tuple(tuple(row) for row in table)
        return cls(space, tuple(cells), tuple(members), lower, lower)

    def cell_of_atom(self) -> list[int]:
        owner = [-1] * self.space.size
        for j, cell in enumerate(self.cells):
            for atom in cell.members:
                owner[atom] = j
        return owner

    def per_cell_entries(self) -> list[tuple[Event, Assessment]]:
        """Restrict every member to every cell.  Members that coincide
        on a cell must be valued identically there."""
        out = []
        for j, cell in enumerate(self.cells):
            seen: dict[ConditionalVariable, tuple[Fraction, Fraction | None]] = {}
            for i, member in enumerate(self.members):
                cv = restrict(member, cell)
                value = (self.lower[i][j], self.upper[i][j])
                if cv in seen and seen[cv] != value:
                    raise MalformedFamily(
                        "members restricting equally on a cell carry "
                        "conflicting values"
                    )
                seen[cv] = value
            entries = tuple(Entry(cv, lo, up) for cv, (lo, up) in seen.items())
            out.append((cell, Assessment(self.space, entries)))
        return out

    def merged_assessment(self, k: Assessment | None = None) -> Assessment:
        entries: list[Entry] = list(k.entries) if k is not None else []
        seen = {e.variable for e in entries}
        for cell, assessment in self.per_cell_entries():
            for entry in assessment.entries:
                if entry.variable not in seen:
                    entries.append(entry)
                    seen.add(entry.variable)
        return Assessment(self.space, tuple(entries))


def check_walley_asl(
    k: Assessment | None,
    family: PartitionFamily,
) -> Verdict:
    """Avoiding sure loss in Walley's conglomerative sense.

    Prerequisites: the unconditional part is a coherent lower prevision
    and the per-cell restrictions are separately coherent.  The main
    test then rules out gains combining unconditional terms with
    conglomerative ones, expanded per atom since exactly one cell is
    true whatever happens; their supremum is over the whole space.
    """
    notion = "walley-asl"
    lp_count = 0
    max_pivots = 0
    if k is not None and len(k):
        if not k.is_unconditional:
            raise ConditionalEntriesUnsupported(
                "the unconditional part contains conditional entries"
            )
        pre_a = check_coherence_unconditional(k)
        lp_count += pre_a.lp_count
        max_pivots = max(max_pivots, pre_a.max_pivots)
        if not pre_a.passed:
            return Verdict(
                notion,
                passed=False,
                witness=pre_a.witness,
                prerequisite_failure="unconditional part is not coherent",
                lp_count=lp_count,
                max_pivots=max_pivots,
            )
    per_cell = family.per_cell_entries()
    pre_b = check_separate_coherence(per_cell)
    lp_count += pre_b.lp_count
    max_pivots = max(max_pivots, pre_b.max_pivots)
    if not pre_b.passed:
        return Verdict(
            notion,
            passed=False,
            witness=pre_b.witness,
            prerequisite_failure=(
                pre_b.structural_failure or "per-cell restrictions are not "
                "separately coherent"
            ),
            lp_count=lp_count,
            max_pivots=max_pivots,
        )

    owner = family.cell_of_atom()
    columns: list[dict[int, Fraction]] = []
    builders: list[Callable[[Fraction], list[BetTerm]]] = []
    if k is not None:
        for element in expanded_elements(k):
            columns.append(element.coefficients())
            builders.append(
                lambda s, el=element: [el.term(FOR, s)]
            )

    def conglomerative(member: RandomVariable, values: Sequence[Fraction],
                       negate: bool) -> dict[int, Fraction]:
        col = {}
        for atom in range(family.space.size):
            v = member.values[atom]
            price = values[owner[atom]]
            col[atom] = (-v) - (-price) if negate else v - price
        return col

    def cell_terms(member: RandomVariable, stake: Fraction, *, upper: bool) -> list[BetTerm]:
        side = AGAINST if upper else FOR
        price = UPPER if upper else LOWER
        return [
            BetTerm(restrict(member, cell), stake, side, price)
            for cell in family.cells
        ]

    for i, member in enumerate(family.members):
        columns.append(conglomerative(member, family.lower[i], False))
        builders.append(
            lambda s, m=member: cell_terms(m, s, upper=False)
        )
        if all(u is not None for u in family.upper[i]) and family.upper[i] != family.lower[i]:
            uppers = tuple(u for u in family.upper[i] if u is not None)
            columns.append(conglomerative(member, uppers, True))
            builders.append(
                lambda s, m=member: cell_terms(m, s, upper=True)
            )

    n = len(columns)
    rows = []
    for atom in range(family.space.size):
        coeffs = [col.get(atom, _ZERO) for col in columns] + [_ONE]
        rows.append(constraint(coeffs, "<=", 0))
    rows.append(constraint([_ONE] * n + [_ZERO], "=", 1))
    outcome = solve(
        LinearProgram(
            objective=tuple([_ZERO] * n + [_ONE]), constraints=tuple(rows)
        )
    )
    lp_count += 1
    max_pivots = max(max_pivots, outcome.pivots)
    record = ProbeRecord(
        (), family.space.size,
        outcome.value if isinstance(outcome, Optimal) else None,
    )
    if isinstance(outcome, Optimal) and outcome.value > 0:
        terms: list[BetTerm] = []
        for pos, stake in enumerate(outcome.point[:n]):
            if stake > 0:
                terms.extend(builders[pos](stake))
        witness = Bet(tuple(terms))
        _verify_witness(witness, family.merged_assessment(k))
        return Verdict(
            notion,
            passed=False,
            witness=witness,
            lp_count=lp_count,
            max_pivots=max_pivots,
        )
    return Verdict(
        notion,
        passed=True,
        certificate=(record,),
        lp_count=lp_count,
        max_pivots=max_pivots,
    )
