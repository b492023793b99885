"""Reference certificate checks and programs on `Fraction`s, as test oracles.

These are the plain formulas that `lp.satisfies` and the chain walk
`checkers._Search.closed_by` compute on integer rows: every
coefficient times every value, zeros included, summed in exact
rationals.  The walk decides every combination in one pass; `closes`
walks a chain for one combination at a time, by the definition.  The
integer checks must accept and reject exactly what these accept and
reject.  The checkers' violation programs, the
extension bound programs and the program of walley-asl are built here
from `Fraction` gains, taken from the model's values and never from an
element's int row, through `constraint`; the programs built from the
int rows of the elements must be the same, row for row.
`convex_violation` decides convexity from its definition, on programs
of its own.  `bet_gain` sums a bet's gain term by term, in `Fraction`s:
`gains.gain`, which sums on ints, must give the same values.
`bland_slack_simplex` is the textbook simplex that `lp.solve` must
agree with, step for step, on a full `Fraction` tableau.
"""

import math
from fractions import Fraction
from typing import Sequence

from previsio.checkers import PartitionFamily, expanded_elements
from previsio.gains import AGAINST, FOR, LOWER, Bet
from previsio.lp import Constraint, LinearProgram, solve
from previsio.model import Assessment, RationalLike, as_rational, restrict

_ZERO = Fraction(0)
_ONE = Fraction(1)


def constraint(coeffs: Sequence[RationalLike], rhs: RationalLike) -> Constraint:
    """The row coeffs.x <= rhs, from rationals, over the lcm of their
    denominators."""
    values = [*map(as_rational, coeffs), as_rational(rhs)]
    scale = math.lcm(*(v.denominator for v in values))
    *ints, int_rhs = (v.numerator * (scale // v.denominator) for v in values)
    return Constraint(tuple(ints), scale, int_rhs)


def coeffs(row: Constraint) -> tuple[Fraction, ...]:
    """The row's coefficients as `Fraction`s, zeros included."""
    return tuple(Fraction(a, row.scale) for a in row.coeffs)


def rhs(row: Constraint) -> Fraction:
    return Fraction(row.int_rhs, row.scale)


def satisfies(lp: LinearProgram, point: Sequence[Fraction]) -> bool:
    if len(point) != lp.arity or any(x < 0 for x in point):
        return False
    return all(
        sum((a * x for a, x in zip(coeffs(c), point)), _ZERO) <= rhs(c)
        for c in lp.constraints
    )


def bland_slack_simplex(
    lp: LinearProgram,
) -> tuple[Fraction, tuple[Fraction, ...], int, tuple[Fraction, ...]] | None:
    """Bland's simplex on a full `Fraction` tableau, from the slack basis:
    the columns are the variables, then one slack per row, each row
    holds every column and its rhs, and every basic column is a unit
    column.  The entering column is the first with a negative reduced
    cost; among the rows tied in the ratio test, the one whose basic
    column comes first leaves.  Returns the value, the point, the number
    of pivots and the row duals, the reduced costs of the slacks; None
    when an entering column has no positive entry."""
    n, m = lp.arity, len(lp.constraints)
    tableau = [
        [*coeffs(c), *(_ONE if k == i else _ZERO for k in range(m)), rhs(c)]
        for i, c in enumerate(lp.constraints)
    ]
    reduced = [-c for c in lp.objective] + [_ZERO] * (m + 1)
    basis = list(range(n, n + m))
    pivots = 0
    while True:
        enter = next((j for j in range(n + m) if reduced[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (row[-1] / row[enter], basis[r], r) for r, row in enumerate(tableau) if row[enter] > 0
        ]
        if not ratios:
            return None
        _, _, leave = min(ratios)
        pivot_row = [a / tableau[leave][enter] for a in tableau[leave]]
        tableau = [
            pivot_row if r == leave else [a - row[enter] * p for a, p in zip(row, pivot_row)]
            for r, row in enumerate(tableau)
        ]
        f = reduced[enter]
        reduced = [a - f * p for a, p in zip(reduced, pivot_row)]
        basis[leave] = enter
        pivots += 1
    point = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            point[b] = tableau[r][-1]
    return reduced[-1], tuple(point), pivots, tuple(reduced[n:n + m])


def bet_gain(bet: Bet, assessment: Assessment) -> tuple[Fraction, ...]:
    """The gain of `bet` by atom: s (x - price) on the event of each
    term, with s negated for a term bet against and the price its
    entry's lower or upper value, summed in `Fraction`s."""
    values = [_ZERO] * assessment.space.size
    for term in bet.terms:
        entry = assessment.entry_for(term.variable)
        price = entry.lower if term.price == LOWER else entry.upper
        stake = term.stake if term.side == FOR else -term.stake
        for a, x in term.variable.value_map().items():
            values[a] += stake * (x - price)
    return tuple(values)


def fraction_gains(assessment: Assessment) -> list[dict[int, Fraction]]:
    """The gain of each element of the assessment's expansion, in its
    order, from the entries' values: X - lower on B, then upper - X on
    B for an assessed upper value."""
    out = []
    for entry in assessment.entries:
        x = entry.variable.value_map()
        out.append({a: v - entry.lower for a, v in x.items()})
        if entry.upper is not None:
            out.append({a: entry.upper - v for a, v in x.items()})
    return out


def dominates(
    gains: Sequence[dict[int, Fraction]],
    convex: bool,
    p: dict[int, Fraction],
    carriers: Sequence[int],
    combo: Sequence[int],
) -> dict[int, Fraction] | None:
    """Whether p dominates: no mass is negative, some is positive, and
    with free against-stakes p.g_i >= 0 for every carrier and p.g_k <= 0
    for every against-term, or with the unit against-stake of convexity
    p.g_i >= p.g_k.  Returns p.g of every carrier and against-term when
    it does, None otherwise, over the elements' `Fraction` gains."""
    if any(w < 0 for w in p.values()) or not any(p.values()):
        return None
    expects = {
        i: sum((w * gains[i].get(a, _ZERO) for a, w in p.items()), _ZERO)
        for i in (*carriers, *combo)
    }
    if convex:
        fixed = sum((expects[k] for k in combo), _ZERO)
        ok = all(expects[i] >= fixed for i in carriers)
    else:
        ok = all(expects[i] >= 0 for i in carriers) and all(
            expects[k] <= 0 for k in combo
        )
    return expects if ok else None


def closes(
    gains: Sequence[dict[int, Fraction]],
    events: Sequence[frozenset[int]],
    convex: bool,
    chain: Sequence[dict[int, Fraction]],
    carriers: Sequence[int],
    combo: tuple[int, ...],
    against: Sequence[dict[int, Fraction]] = (),
    closing: frozenset[int] = frozenset(),
) -> bool:
    """Whether `chain` closes the one combination of the elements
    `carriers` staked for, the against-terms `combo`, and the further
    against rows `against`, whose events make up `closing`.  Every p
    dominates the active elements and `combo` (`dominates`) and expects
    a gain <= 0 from each row of `against`; a p that charges an event of
    `combo` or `closing` closes the chain, and any other drops the
    elements whose events it charges, where p charges the atoms of
    positive mass.  With no against-term at all, a p whose drops leave
    no element active closes it.  A chain that ends first does not."""
    closing = closing.union(*(events[k] for k in combo))
    active = [i for i in carriers if i not in combo]
    for p in chain:
        if dominates(gains, convex, p, active, combo) is None or any(
            sum((m * row.get(a, _ZERO) for a, m in p.items()), _ZERO) > 0 for row in against
        ):
            return False
        charged = {a for a, m in p.items() if m > 0}
        if not closing.isdisjoint(charged):
            return True
        active = [i for i in active if events[i].isdisjoint(charged)]
        if not combo and not against and not active:
            return True
    return False


def violation_program(gains, convex, carriers, combo, region) -> LinearProgram:
    """`_Search.program` on `Fraction` rows: each row is the elements'
    gains at one atom.  Under convexity each column is a carrier's gain
    less the against-term's, and the against-term itself has no
    column."""
    if convex:
        (k,) = combo
        stakes, against, less = [i for i in carriers if i != k], [], gains[k]
    else:
        stakes, against, less = list(carriers), list(combo), {}
    n = len(stakes) + len(against)
    rows = []
    for atom in sorted(region):
        base = less.get(atom, _ZERO)
        row = [gains[i].get(atom, _ZERO) - base for i in stakes]
        row += [-gains[k].get(atom, _ZERO) for k in against]
        rows.append(constraint(row + [_ONE], 0))
    # stakes sum to at most one
    rows.append(constraint([_ONE] * n + [_ZERO], 1))
    objective = tuple([_ZERO] * n + [_ONE])
    return LinearProgram(objective=objective, constraints=tuple(rows))


def bound_program(gains, target, sign, active, combo, outside) -> LinearProgram:
    """`extensions._bound_program` on `Fraction` rows: the price alpha
    is measured from the least value of sign * X on B, with its default
    bound alpha >= 0."""

    def row(atom: int) -> list[Fraction]:
        return [gains[i].get(atom, _ZERO) for i in active] + [
            -gains[k].get(atom, _ZERO) for k in combo
        ]

    y = target.value_map()
    floor = min(sign * v for v in y.values())
    rows = [
        constraint(row(a) + [_ONE], sign * y[a] - floor)
        for a in sorted(target.cond.members)
    ]
    rows += [constraint(row(a) + [_ZERO], 0) for a in sorted(outside)]
    n = len(active) + len(combo)
    return LinearProgram(objective=(_ZERO,) * n + (_ONE,), constraints=tuple(rows))


def walley_program(assessment: Assessment, family: PartitionFamily) -> LinearProgram:
    """The main program of walley-asl, from the assessment's values: a
    column per element of its unconditional entries, then per member
    its gain X less its lower value on each atom's cell, and, when every
    cell has an upper value, precise or not, that upper value less X,
    each value read from the member's entry on the cell; one row per
    atom with the eps column, then the stakes' sum at most one."""
    owner = {a: j for j, cell in enumerate(family.cells) for a in cell.members}
    side = tuple(e for e in assessment.entries if e.variable.cond.is_sure)
    columns = fraction_gains(Assessment(assessment.space, side))
    for member in family.members:
        entries = [assessment.entry_for(restrict(member, cell)) for cell in family.cells]
        lower = [e.lower for e in entries]
        upper = [e.upper for e in entries]
        columns.append({a: v - lower[owner[a]] for a, v in enumerate(member.values)})
        if None not in upper:
            columns.append({a: upper[owner[a]] - v for a, v in enumerate(member.values)})
    n = len(columns)
    rows = [
        constraint([col.get(atom, _ZERO) for col in columns] + [_ONE], 0)
        for atom in range(family.space.size)
    ]
    rows.append(constraint([_ONE] * n + [_ZERO], 1))
    return LinearProgram(objective=tuple([_ZERO] * n + [_ONE]), constraints=tuple(rows))


def convex_violation(assessment: Assessment) -> Bet | None:
    """A bet that shows `assessment` is not convex, or None.

    For every against-term k and every union U of conditioning events,
    maximise eps >= 0 over for-stakes s >= 0, one for every element
    whose event lies in R = U | B_k, k included, and an against-stake t
    on k, with sum s = t <= 1 and sum s_i g_i - t g_k <= -eps on R.  An
    optimum with eps > 0 has t > 0, and s / t with a unit stake against
    k is a convex bet that loses on R.  A bet whose for-stakes sum to
    one and whose gain is negative on its own support is found on R =
    that support, and a bet found on any R loses on its support, which
    lies in R.  The program is homogenised in (s, t), with t a column
    of its own and k not folded into the others, unlike
    `violation_program`, so this shares no program form with the
    checkers."""
    elements = expanded_elements(assessment)
    gains = fraction_gains(assessment)
    members = [el.members for el in elements]
    unions: set[frozenset[int]] = {frozenset()}
    for m in members:
        unions |= {u | m for u in unions}
    for k in range(len(elements)):
        for region in sorted({u | members[k] for u in unions}, key=sorted):
            carriers = [i for i, m in enumerate(members) if m <= region]
            n = len(carriers)
            # columns: the stakes s on the carriers, then t, then eps
            rows = [
                constraint(
                    [gains[i].get(a, _ZERO) for i in carriers]
                    + [-gains[k].get(a, _ZERO), _ONE],
                    0,
                )
                for a in sorted(region)
            ]
            rows.append(constraint([_ONE] * n + [-_ONE, _ZERO], 0))
            rows.append(constraint([-_ONE] * n + [_ONE, _ZERO], 0))
            rows.append(constraint([_ZERO] * n + [_ONE, _ZERO], 1))
            result = solve(
                LinearProgram(
                    objective=(_ZERO,) * (n + 1) + (_ONE,), constraints=tuple(rows)
                )
            )
            if result.value > 0:
                t = result.point[n]
                terms = [
                    term
                    for i, s in zip(carriers, result.point)
                    if s > 0
                    for term in elements[i].staked(FOR, s / t)
                ]
                return Bet((*terms, *elements[k].staked(AGAINST, _ONE)))
    return None
