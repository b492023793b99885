"""Reference certificate checks and programs on `Fraction`s, as test oracles.

These are the plain formulas that `lp.satisfies`, `lp.verify_ray`,
`lp.verify_farkas` and `checkers._Search._dominates` compute on integer
rows: every coefficient times every value, zeros included, summed in
exact rationals.  The integer checks must accept and reject exactly
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
from previsio.lp import FarkasCertificate, LinearProgram, Optimal, constraint, solve
from previsio.model import Assessment

_ZERO = Fraction(0)
_ONE = Fraction(1)


def canonical_geq_rows(lp: LinearProgram) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for c in lp.constraints:
        if c.relation in (">=", "="):
            rows.append((c.coeffs, c.rhs))
        if c.relation in ("<=", "="):
            rows.append((tuple(-a for a in c.coeffs), -c.rhs))
    n = lp.arity
    for j, (lo, up) in enumerate(lp.bounds):
        if lo is not None:
            e = tuple(_ONE if i == j else _ZERO for i in range(n))
            rows.append((e, lo))
        if up is not None:
            e = tuple(-_ONE if i == j else _ZERO for i in range(n))
            rows.append((e, -up))
    return rows


def verify_farkas(lp: LinearProgram, cert: FarkasCertificate) -> bool:
    rows = canonical_geq_rows(lp)
    if len(cert.multipliers) != len(rows):
        return False
    if any(m < 0 for m in cert.multipliers):
        return False
    combined = [_ZERO] * lp.arity
    rhs = _ZERO
    for m, (coeffs, b) in zip(cert.multipliers, rows):
        if m == 0:
            continue
        for j, a in enumerate(coeffs):
            combined[j] += m * a
        rhs += m * b
    return all(v == 0 for v in combined) and rhs > 0


def satisfies(lp: LinearProgram, point: Sequence[Fraction]) -> bool:
    if len(point) != lp.arity:
        return False
    for c in lp.constraints:
        lhs = sum((a * x for a, x in zip(c.coeffs, point)), _ZERO)
        if c.relation == "<=" and lhs > c.rhs:
            return False
        if c.relation == ">=" and lhs < c.rhs:
            return False
        if c.relation == "=" and lhs != c.rhs:
            return False
    for x, (lo, up) in zip(point, lp.bounds):
        if lo is not None and x < lo:
            return False
        if up is not None and x > up:
            return False
    return True


def verify_ray(lp: LinearProgram, ray: Sequence[Fraction]) -> bool:
    if len(ray) != lp.arity or all(d == 0 for d in ray):
        return False
    for c in lp.constraints:
        drift = sum((a * d for a, d in zip(c.coeffs, ray)), _ZERO)
        if c.relation == "<=" and drift > 0:
            return False
        if c.relation == ">=" and drift < 0:
            return False
        if c.relation == "=" and drift != 0:
            return False
    for d, (lo, up) in zip(ray, lp.bounds):
        if lo is not None and d < 0:
            return False
        if up is not None and d > 0:
            return False
    gain = sum((c * d for c, d in zip(lp.objective, ray)), _ZERO)
    return gain > 0 if lp.sense == "max" else gain < 0


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
        rows.append(constraint(row + [_ONE], "<=", 0))
    # stakes sum to at most one
    rows.append(constraint([_ONE] * n + [_ZERO], "<=", 1))
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
        constraint(row(a) + [_ONE], "<=", sign * y[a] - floor)
        for a in sorted(target.cond.members)
    ]
    rows += [constraint(row(a) + [_ZERO], "<=", 0) for a in sorted(outside)]
    n = len(active) + len(combo)
    return LinearProgram(objective=(_ZERO,) * n + (_ONE,), constraints=tuple(rows))


def convex_violation(assessment: Assessment) -> Bet | None:
    """A bet that shows `assessment` is not convex, or None.

    For every against-term k and every union U of conditioning events,
    maximise eps >= 0 over stakes s >= 0 with sum s = 1 exactly, one for
    every element whose event lies in R = U | B_k, k included, and
    sum s_i g_i - g_k <= -eps on R.  A bet whose stakes sum to one and
    whose gain is negative on its own support is found on R = that
    support, and a bet found on any R loses on its support, which lies
    in R.  The sum is an equality row and k is not folded into the
    others, unlike `violation_program`, so this shares no program form
    with the checkers; where no stakes keep the gain <= 0 on R the
    program is infeasible, which is no violation on R."""
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
            rows = [
                constraint(
                    [coeffs[i].get(a, _ZERO) for i in carriers] + [_ONE],
                    "<=",
                    coeffs[k].get(a, _ZERO),
                )
                for a in sorted(region)
            ]
            rows.append(constraint([_ONE] * n + [_ZERO], "=", 1))
            result = solve(
                LinearProgram(
                    objective=(_ZERO,) * n + (_ONE,), constraints=tuple(rows)
                )
            )
            if isinstance(result, Optimal) and result.value > 0:
                terms = [
                    elements[i].term(FOR, s)
                    for i, s in zip(carriers, result.point)
                    if s > 0
                ]
                return Bet((*terms, elements[k].term(AGAINST, _ONE)))
    return None
