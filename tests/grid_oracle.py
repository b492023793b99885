"""The brute-force stake grid, a test oracle of the checkers.

The grid search enumerates stake vectors on a rational grid and
evaluates gains directly, with no program and no simplex; it can only
*find* violations, never prove their absence, so agreement with a
checker means: neither finds a violation, or both do.

Its gains come from the entries themselves, as in
`fraction_checks.fraction_gains`, and never from the checkers'
elements: X - lower on B, then upper - X on B for an assessed upper
value.  They are put over one common denominator once per call, and
every stake vector is judged on ints.
"""

import math
from fractions import Fraction
from operator import mul
from typing import Iterator

from previsio.gains import AGAINST, FOR, LOWER, UPPER, Bet, BetTerm
from previsio.model import Assessment

GRID_NOTIONS = (
    "w-coherence",
    "aul",
    "coherence-unconditional",
    "df-precise-conditional",
    "df-precise-unconditional",
    "bi-coherence",
    "convex",
)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The ways to write `total` as `parts` nonnegative ints, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _subsets(n: int) -> Iterator[tuple[int, ...]]:
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def _against_combos(notion: str, n: int) -> list[tuple[int, ...]]:
    if notion in ("aul", "df-precise-conditional", "df-precise-unconditional"):
        return [()]
    singles = [(i,) for i in range(n)]
    if notion == "convex":
        return singles
    if notion == "bi-coherence":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return [()] + singles + pairs
    return [()] + singles


def _directions(assessment: Assessment):
    """Each direction's gain by atom on its event, as ints over one
    common denominator, and its (variable, side staked for, side staked
    against, price): X|B for at its lower value, and, for an upper
    value u, X|B against at u, whose gain is u - X."""
    gains, terms = [], []
    for entry in assessment.entries:
        cv = entry.variable
        x = cv.value_map()
        gains.append({a: v - entry.lower for a, v in x.items()})
        terms.append((cv, FOR, AGAINST, LOWER))
        if entry.upper is not None:
            gains.append({a: entry.upper - v for a, v in x.items()})
            terms.append((cv, AGAINST, FOR, UPPER))
    den = math.lcm(*(v.denominator for g in gains for v in g.values()))
    ints = [{a: v.numerator * (den // v.denominator) for a, v in g.items()} for g in gains]
    return ints, terms


def find_violation_grid(
    assessment: Assessment,
    notion: str,
    *,
    max_denominator: int = 8,
) -> Bet | None:
    """Search normalised stake vectors with denominators up to the limit
    for a bet whose gain has negative supremum on its conditioning
    event.  Returns the first bet found, if any.

    A stake vector p/q stakes p_i/q for each direction i of the support
    S, every p_i at least 1, and w_k/q against each direction k of the
    against-combination: w_k = p_k >= 0 when that stake is free, and
    w_k = q, the unit stake, under convexity; the parts p sum to q.  It
    loses when the int sum of p_i G_i(a) over S less w_k G_k(a) over the
    combination is negative on every atom a of the region, the union of
    their events, where G is the gains over their common denominator."""
    if notion not in GRID_NOTIONS:
        raise ValueError(f"no grid search for notion {notion!r}")
    gains, terms = _directions(assessment)
    n = len(gains)
    combos = _against_combos(notion, n)
    convex = notion == "convex"

    for q in range(1, max_denominator + 1):
        for combo in combos:
            free = 0 if convex else len(combo)
            fixed = [q] * len(combo) if convex else []
            for subset in _subsets(n):
                s = len(subset)
                if s > q or not subset and (convex or not combo):
                    continue
                # a gain holds every atom of its event, zeros included
                region = set().union(*(gains[i] for i in (*subset, *combo)))
                rows = [
                    [gains[i].get(a, 0) for i in subset] + [-gains[k].get(a, 0) for k in combo]
                    for a in region
                ]
                # the support's stakes are each at least one: a
                # composition of q - |S| with one added to each of them
                for parts in _compositions(q - s, s + free):
                    stakes = [p + 1 for p in parts[:s]] + [*parts[s:], *fixed]
                    if all(sum(map(mul, stakes, row)) < 0 for row in rows):
                        return _bet(terms, subset, combo, stakes, q)
    return None


def _bet(terms, subset, combo, stakes, q) -> Bet:
    """The bet of a losing stake vector: the support for, then each
    against-term with a positive stake."""
    out = [
        BetTerm(cv, Fraction(p, q), side, price)
        for (cv, side, _, price), p in zip((terms[i] for i in subset), stakes)
    ]
    out += [
        BetTerm(cv, Fraction(w, q), side, price)
        for (cv, _, side, price), w in zip((terms[k] for k in combo), stakes[len(subset):])
        if w > 0
    ]
    return Bet(tuple(out))
