"""A brute-force cross-check of the checkers, behind the CLI `oracle`.

The grid search enumerates stake vectors on a rational grid and
evaluates gains directly, independent of the simplex; it can only
*find* violations, never prove their absence, so agreement with a
checker means: neither finds a violation, or both do.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .checkers import expanded_elements
from .gains import AGAINST, FOR, Bet
from .model import Assessment

_ZERO = Fraction(0)
_ONE = Fraction(1)

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
    members = [el.members for el in elements]
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
                stake_slots = len(subset) + (0 if convex else len(combo))
                for parts in _compositions(q, stake_slots):
                    if any(parts[pos] == 0 for pos in range(len(subset))):
                        continue  # the subset is meant to be the support
                    stakes = [Fraction(p, q) for p in parts]
                    # the against-stakes: one unit each under convexity
                    weights = [_ONE] * len(combo) if convex else stakes[len(subset):]
                    sup = None
                    for atom in sorted(region):
                        value = _ZERO
                        for pos, i in enumerate(subset):
                            value += stakes[pos] * coeffs[i].get(atom, _ZERO)
                        for weight, k in zip(weights, combo):
                            value -= weight * coeffs[k].get(atom, _ZERO)
                        if sup is None or value > sup:
                            sup = value
                    if sup is not None and sup < 0:
                        terms = [
                            t for pos, i in enumerate(subset)
                            for t in elements[i].staked(FOR, stakes[pos])
                        ]
                        terms += [
                            t for w, k in zip(weights, combo) if w > 0
                            for t in elements[k].staked(AGAINST, w)
                        ]
                        return Bet(tuple(terms))
    return None
