"""Reference certificate checks and programs on `Fraction`s, as test oracles.

These are the plain formulas that `lp.satisfies` and
`checkers._Search._dominates` compute on integer rows: every
coefficient times every value, zeros included, summed in exact
rationals.  The integer checks must accept and reject exactly
what these accept and reject.  The checkers' violation programs and the
extension bound programs are built here from `Fraction` coefficients,
through `lp.constraint`; the programs built from the int rows of the
elements must be the same, row for row.  `convex_violation` decides
convexity from its definition, on programs of its own.
"""

from fractions import Fraction
from typing import Sequence

from previsio.checkers import expanded_elements
from previsio.gains import AGAINST, FOR, Bet
from previsio.lp import LinearProgram, constraint, solve
from previsio.model import Assessment

_ZERO = Fraction(0)
_ONE = Fraction(1)


def satisfies(lp: LinearProgram, point: Sequence[Fraction]) -> bool:
    if len(point) != lp.arity or any(x < 0 for x in point):
        return False
    return all(
        sum((a * x for a, x in zip(c.coeffs, point)), _ZERO) <= c.rhs
        for c in lp.constraints
    )


def dominates(
    coeffs: Sequence[dict[int, Fraction]],
    convex: bool,
    p: dict[int, Fraction],
    carriers: Sequence[int],
    combo: Sequence[int],
) -> dict[int, Fraction] | None:
    """`_Search._dominates` over the elements' coefficient maps."""
    if any(w < 0 for w in p.values()) or not any(p.values()):
        return None
    expects = {
        i: sum((w * coeffs[i].get(a, _ZERO) for a, w in p.items()), _ZERO)
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


def violation_program(search, carriers, combo, region) -> LinearProgram:
    """`_Search.program` on `Fraction` rows: each row is the elements'
    gain coefficients at one atom, made with `lp.constraint`.  Under
    convexity each column is a carrier's gain less the against-term's,
    and the against-term itself has no column."""
    coeffs = [el.coefficients() for el in search.elements]
    if search.convex:
        (k,) = combo
        stakes, against, less = [i for i in carriers if i != k], [], coeffs[k]
    else:
        stakes, against, less = list(carriers), list(combo), {}
    n = len(stakes) + len(against)
    rows = []
    for atom in sorted(region):
        base = less.get(atom, _ZERO)
        row = [coeffs[i].get(atom, _ZERO) - base for i in stakes]
        row += [-coeffs[k].get(atom, _ZERO) for k in against]
        rows.append(constraint(row + [_ONE], 0))
    # stakes sum to at most one
    rows.append(constraint([_ONE] * n + [_ZERO], 1))
    objective = tuple([_ZERO] * n + [_ONE])
    return LinearProgram(objective=objective, constraints=tuple(rows))


def bound_program(search, target, sign, active, combo, outside, floor) -> LinearProgram:
    """`extensions._bound_program` on `Fraction` rows: the price alpha
    is measured from `floor`, with its default bound alpha >= 0."""
    coeffs = [el.coefficients() for el in search.elements]

    def row(atom: int) -> list[Fraction]:
        return [coeffs[i].get(atom, _ZERO) for i in active] + [
            -coeffs[k].get(atom, _ZERO) for k in combo
        ]

    y = target.value_map()
    rows = [
        constraint(row(a) + [_ONE], sign * y[a] - floor)
        for a in sorted(target.cond.members)
    ]
    rows += [constraint(row(a) + [_ZERO], 0) for a in sorted(outside)]
    n = len(active) + len(combo)
    return LinearProgram(objective=(_ZERO,) * n + (_ONE,), constraints=tuple(rows))


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
    coeffs = [el.coefficients() for el in elements]
    members = [el.cv.cond.members for el in elements]
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
                    [coeffs[i].get(a, _ZERO) for i in carriers]
                    + [-coeffs[k].get(a, _ZERO), _ONE],
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
                    elements[i].term(FOR, s / t)
                    for i, s in zip(carriers, result.point)
                    if s > 0
                ]
                return Bet((*terms, elements[k].term(AGAINST, _ONE)))
    return None
