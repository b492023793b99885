"""Brute-force cross-checks of the checkers' support shrinking.

Two oracles.  The grid searches enumerate stake vectors on a rational
grid and evaluate gains directly, independent of the simplex; they can
only *find* violations, never prove their absence, so agreement with a
checker means: neither finds a violation, or both do.  The enumeration
oracle solves the checkers' violation program on every union of
conditioning events, exponentially many, and so decides each notion
without shrinking.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .checkers import _Search, expanded_elements
from .gains import AGAINST, FOR, Bet
from .model import Assessment, ConditionalVariable

_ZERO = Fraction(0)

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


def _support_unions(member_sets: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    unions: set[frozenset[int]] = {frozenset()}
    for members in member_sets:
        unions |= {u | members for u in unions}
    return sorted(unions, key=lambda u: (len(u), sorted(u)))


def find_violation_enumeration(assessment: Assessment, notion: str) -> Bet | None:
    """Solve the violation program for every against-combination on
    every union of conditioning events, letting each entry inside the
    union carry stake.  Returns the first violating bet, or None when
    the notion holds."""
    if notion not in GRID_NOTIONS:
        raise ValueError(f"no enumeration oracle for notion {notion!r}")
    search = _Search(expanded_elements(assessment), convex=notion == "convex")
    member_sets = [el.cv.cond.members for el in search.elements]
    unions = _support_unions(member_sets)
    for combo in _against_combos(notion, len(member_sets)):
        combo_region = frozenset().union(*(member_sets[k] for k in combo))
        for union in unions:
            if not union and (search.convex or not combo):
                continue
            carriers = [i for i, m in enumerate(member_sets) if m <= union]
            witness, _ = search.violation(carriers, combo, union | combo_region)
            if witness is not None:
                return witness
    return None


def find_violation_grid(
    assessment: Assessment,
    notion: str,
    *,
    max_denominator: int = 8,
) -> Bet | None:
    """Search normalised stake vectors with denominators up to the limit
    for a bet whose gain has negative supremum on its conditioning
    event.  Returns the bet found, if any."""
    if notion not in GRID_NOTIONS:
        raise ValueError(f"no grid search for notion {notion!r}")
    elements = expanded_elements(assessment)
    coeffs = [el.coefficients() for el in elements]
    members = [el.cv.cond.members for el in elements]
    n = len(elements)
    combos = _against_combos(notion, n)
    convex = notion == "convex"

    for q in range(1, max_denominator + 1):
        for combo in combos:
            for subset in _subsets(n):
                if not subset and (convex or not combo):
                    continue
                region = frozenset().union(
                    *(members[i] for i in subset),
                    *(members[k] for k in combo),
                )
                if convex:
                    stake_slots = len(subset)
                else:
                    stake_slots = len(subset) + len(combo)
                for parts in _compositions(q, stake_slots):
                    if any(parts[pos] == 0 for pos in range(len(subset))):
                        continue  # the subset is meant to be the support
                    stakes = [Fraction(p, q) for p in parts]
                    sup = None
                    for atom in sorted(region):
                        value = _ZERO
                        for pos, i in enumerate(subset):
                            value += stakes[pos] * coeffs[i].get(atom, _ZERO)
                        for pos, k in enumerate(combo):
                            weight = (
                                Fraction(1)
                                if convex
                                else stakes[len(subset) + pos]
                            )
                            value -= weight * coeffs[k].get(atom, _ZERO)
                        if sup is None or value > sup:
                            sup = value
                    if sup is not None and sup < 0:
                        terms = [
                            elements[i].term(FOR, stakes[pos])
                            for pos, i in enumerate(subset)
                        ]
                        for pos, k in enumerate(combo):
                            weight = (
                                Fraction(1)
                                if convex
                                else stakes[len(subset) + pos]
                            )
                            if weight > 0:
                                terms.append(elements[k].term(AGAINST, weight))
                        return Bet(tuple(terms))
    return None


def natural_extension_grid(
    assessment: Assessment,
    target: ConditionalVariable,
    *,
    max_denominator: int = 4,
    stake_limit: int = 3,
) -> Fraction:
    """Lower estimate of the natural extension by direct evaluation.

    For every subset of assessed directions and every stake vector on
    the grid, the gain of the helper bets must be strictly negative off
    the target's conditioning event; the admissible prices then approach
    min over the event of (target - helper gain).  The estimate is the
    best such bound and never exceeds the true natural extension.
    """
    from itertools import product

    elements = expanded_elements(assessment)
    coeffs = [el.coefficients() for el in elements]
    members = [el.cv.cond.members for el in elements]
    b_members = target.cond.members
    values = target.value_map()
    best = target.inf()
    n = len(elements)
    for subset in _subsets(n):
        if not subset:
            continue
        outside = frozenset().union(*(members[i] for i in subset)) - b_members
        for q in range(1, max_denominator + 1):
            stake_range = range(1, q * stake_limit + 1)
            for parts in product(stake_range, repeat=len(subset)):
                stakes = [Fraction(p, q) for p in parts]

                def helper(atom: int) -> Fraction:
                    return sum(
                        (
                            s * coeffs[i].get(atom, _ZERO)
                            for s, i in zip(stakes, subset)
                        ),
                        _ZERO,
                    )

                if any(helper(atom) >= 0 for atom in outside):
                    continue
                bound = min(values[atom] - helper(atom) for atom in sorted(b_members))
                if bound > best:
                    best = bound
    return best
