"""The exponential enumeration oracles of the checkers and extensions.

`find_violation_enumeration` solves the checkers' violation program on
every union of conditioning events, exponentially many, and so decides
each notion without support shrinking; it takes its notions and
against-combinations from `grid_oracle`, the stake grid, which finds
violations with no program at all.  `natural_extension_grid`
estimates the natural extension from below by evaluating every helper
bet on a rational grid, with no program either.
"""

from fractions import Fraction
from itertools import product
from typing import Sequence

from fraction_checks import fraction_gains
from grid_oracle import GRID_NOTIONS, _against_combos, _subsets
from previsio.checkers import _Search, expanded_elements
from previsio.gains import Bet
from previsio.model import Assessment, ConditionalVariable

_ZERO = Fraction(0)


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
    member_sets = [el.members for el in search.elements]
    unions = _support_unions(member_sets)
    for combo in _against_combos(notion, len(member_sets)):
        combo_region = frozenset().union(*(member_sets[k] for k in combo))
        for union in unions:
            if not union and (search.convex or not combo):
                continue
            carriers = [i for i, m in enumerate(member_sets) if m <= union]
            stakes, _ = search.violation(carriers, combo, union | combo_region)
            if stakes is not None:
                return search._witness(*stakes)
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
    coeffs = fraction_gains(assessment)
    members = [el.members for el in expanded_elements(assessment)]
    b_members = target.cond.members
    values = target.value_map()
    best = target.inf()
    n = len(coeffs)
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
