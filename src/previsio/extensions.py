"""Natural and upper extensions, and the axiom suite for structured domains.

The natural extension LE(X|B) is the supremum of the prices alpha for
which some bet in favour of assessed variables, combined with selling X
at alpha, yields a gain with strictly negative supremum on the union of
the conditioning events.  On a finite space this supremum is reached by
a family of linear programs, one per candidate support union: maximise
alpha with alpha <= X(w) - sum_i g_i(w) on B and sum_i g_i(w) <= 0 on
the rest of the union.  The non-strict relaxation can only err upward,
and never unboundedly for a coherent base, so unbounded programs are
discarded and the result is validated by re-checking coherence of the
extended assessment at the value and just below it (the admissible
extension values form a closed interval).

The upper extension LU(X|B) is the largest value the assessment can
still coherently assign to X|B.  It is located by the analogous family
of threshold programs (minimise the break-even price of a normalised
bet buying X) and confirmed by the same re-checking, which realises the
bisection contract exactly: coherent at LU, incoherent above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .checkers import check_w_coherence, expanded_elements
from .errors import BaseNotCoherent, DomainNotClosed
from .lp import LinearProgram, Optimal, Unbounded, constraint, solve
from .model import (
    Assessment,
    ConditionalVariable,
    Event,
    RandomVariable,
    restrict,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

RECHECK_STEP = Fraction(1, 1000)


HelperStakes = tuple[tuple[ConditionalVariable, Fraction], ...]


@dataclass(frozen=True)
class ExtensionResult:
    """Both extension bounds, with the helper stakes whose bets approach
    each bound (diagnostic; prices below `lower` or above `upper` are
    beaten by these helpers)."""

    target: ConditionalVariable
    lower: Fraction
    upper: Fraction
    lower_helpers: HelperStakes | None = None
    upper_helpers: HelperStakes | None = None


@lru_cache(maxsize=256)
def _coherent(assessment: Assessment) -> bool:
    # memoised: one call of `extend` checks the same base, and may
    # re-check the same extended assessment, more than once
    return check_w_coherence(assessment).passed


def _ensure_coherent_base(assessment: Assessment) -> None:
    if not assessment.entries:
        return  # the empty assessment is vacuously coherent
    if not _coherent(assessment):
        raise BaseNotCoherent("the base assessment is not W-coherent")


def _with_value(
    assessment: Assessment, cv: ConditionalVariable, value: Fraction
) -> Assessment:
    kept = tuple(e for e in assessment.entries if e.variable != cv)
    return Assessment(assessment.space, kept).with_entry(cv, value)


def _extension_coherent(
    assessment: Assessment, cv: ConditionalVariable, value: Fraction
) -> bool:
    return _coherent(_with_value(assessment, cv, value))


def _support_unions(member_sets: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    unions: set[frozenset[int]] = {frozenset()}
    for members in member_sets:
        unions |= {u | members for u in unions}
    return sorted(unions, key=lambda u: (len(u), sorted(u)))


def natural_extension(
    assessment: Assessment, target: ConditionalVariable, *, verify: bool = True
) -> Fraction:
    """Least-committal W-coherent value for the target, exact."""
    value, _ = _lower_bound_search(assessment, target, verify=verify)
    return value


def _lower_bound_search(
    assessment: Assessment, target: ConditionalVariable, *, verify: bool
) -> tuple[Fraction, tuple]:
    target.space._check(assessment.space)
    _ensure_coherent_base(assessment)
    elements = expanded_elements(assessment)
    coeffs = [el.coefficients() for el in elements]
    member_sets = [el.cv.cond.members for el in elements]
    b_members = target.cond.members
    target_values = target.value_map()

    best: Fraction | None = None
    helpers: tuple = ()
    for union in _support_unions(member_sets):
        carriers = [i for i, m in enumerate(member_sets) if m <= union]
        n = len(carriers)
        rows = []
        for atom in sorted(b_members):
            # alpha + sum_i s_i g_i(atom) <= X(atom)
            row = [coeffs[i].get(atom, _ZERO) for i in carriers] + [_ONE]
            rows.append(constraint(row, "<=", target_values[atom]))
        for atom in sorted(union - b_members):
            row = [coeffs[i].get(atom, _ZERO) for i in carriers] + [_ZERO]
            rows.append(constraint(row, "<=", 0))
        prog = LinearProgram(
            objective=tuple([_ZERO] * n + [_ONE]),
            constraints=tuple(rows),
            bounds=tuple([(_ZERO, None)] * n + [(None, None)]),
        )
        outcome = solve(prog)
        if isinstance(outcome, Unbounded):
            # only a slack direction that is null somewhere off B can be
            # unbounded; the strict betting system has no use for it
            continue
        if not isinstance(outcome, Optimal):
            raise AssertionError("extension program cannot be infeasible")
        if best is None or outcome.value > best:
            best = outcome.value
            helpers = tuple(
                (elements[i].cv, stake)
                for i, stake in zip(carriers, outcome.point)
                if stake > 0
            )
    if best is None:
        raise AssertionError("no bounded support union")
    if verify:
        _verify_lower(assessment, target, best)
    return best, helpers


def _verify_lower(
    assessment: Assessment, target: ConditionalVariable, value: Fraction
) -> None:
    entry = assessment.entry_for(target)
    if entry is not None:
        if value != entry.lower:
            raise AssertionError(
                "natural extension of an assessed variable must return "
                "its assessed value"
            )
        return
    if not _extension_coherent(assessment, target, value):
        raise AssertionError("natural extension is not a coherent value")
    if _extension_coherent(assessment, target, value - RECHECK_STEP):
        raise AssertionError("a smaller extension value is still coherent")


def upper_extension(
    assessment: Assessment, target: ConditionalVariable, *, verify: bool = True
) -> Fraction:
    """Largest coherent value for the target, exact.

    Located by the threshold programs and confirmed by re-checking
    coherence at the value and one step above.
    """
    value, _ = _upper_bound_search(assessment, target, verify=verify)
    return value


def _upper_bound_search(
    assessment: Assessment, target: ConditionalVariable, *, verify: bool
) -> tuple[Fraction, tuple]:
    target.space._check(assessment.space)
    _ensure_coherent_base(assessment)
    entry = assessment.entry_for(target)
    if entry is not None and entry.is_precise:
        return entry.lower, ()
    base = assessment
    if entry is not None:
        base = Assessment(
            assessment.space,
            tuple(e for e in assessment.entries if e.variable != target),
        )
    lower = natural_extension(base, target, verify=False) if base.entries else target.inf()
    hi = target.sup()
    helpers: tuple = ()
    if _extension_coherent(base, target, hi):
        result = hi
    else:
        result, helpers = _upper_threshold(base, target, lower, hi)
    if entry is not None and result < entry.lower:
        raise AssertionError("assessed lower value exceeds every coherent value")
    if verify:
        if not _extension_coherent(base, target, result):
            raise AssertionError("upper extension is not a coherent value")
        if _extension_coherent(base, target, result + RECHECK_STEP):
            raise AssertionError("a larger extension value is still coherent")
    return result, helpers


def _upper_threshold(
    assessment: Assessment,
    target: ConditionalVariable,
    lower: Fraction,
    hi: Fraction,
) -> tuple[Fraction, HelperStakes]:
    """Smallest break-even price over all normalised bets buying the
    target, clamped to [lower, hi], with the helper stakes of the bet
    that reaches it: for prices above it some bet against the
    assessment wins uniformly."""
    elements = expanded_elements(assessment)
    coeffs = [el.coefficients() for el in elements]
    member_sets = [el.cv.cond.members for el in elements]
    b_members = target.cond.members
    target_values = target.value_map()

    best: Fraction | None = None
    helpers: tuple = ()
    combos: list[tuple[int, ...]] = [()] + [(i,) for i in range(len(elements))]
    unions = _support_unions(member_sets)
    for combo in combos:
        combo_region = frozenset().union(*(member_sets[k] for k in combo)) if combo else frozenset()
        for union in unions:
            carriers = [i for i, m in enumerate(member_sets) if m <= union]
            n = len(carriers) + len(combo)
            region = union | combo_region
            rows = []
            for atom in sorted(b_members):
                # t >= X(atom) + sum s_i g_i - s_0 g_0
                row = [coeffs[i].get(atom, _ZERO) for i in carriers]
                row += [-coeffs[k].get(atom, _ZERO) for k in combo]
                row.append(-_ONE)
                rows.append(constraint(row, "<=", -target_values[atom]))
            for atom in sorted(region - b_members):
                row = [coeffs[i].get(atom, _ZERO) for i in carriers]
                row += [-coeffs[k].get(atom, _ZERO) for k in combo]
                row.append(_ZERO)
                rows.append(constraint(row, "<=", 0))
            prog = LinearProgram(
                objective=tuple([_ZERO] * (n) + [_ONE]),
                sense="min",
                constraints=tuple(rows),
                bounds=tuple([(_ZERO, None)] * n + [(None, None)]),
            )
            outcome = solve(prog)
            if isinstance(outcome, Unbounded):
                continue
            if not isinstance(outcome, Optimal):
                raise AssertionError("threshold program cannot be infeasible")
            if best is None or outcome.value < best:
                best = outcome.value
                picked = list(zip(carriers, outcome.point))
                picked += list(zip(combo, outcome.point[len(carriers):]))
                helpers = tuple(
                    (elements[i].cv, stake) for i, stake in picked if stake > 0
                )
    if best is None:
        raise AssertionError("no bounded threshold program")
    return min(max(best, lower), hi), helpers


def extend(assessment: Assessment, target: ConditionalVariable) -> ExtensionResult:
    lower, lower_helpers = _lower_bound_search(assessment, target, verify=True)
    upper, upper_helpers = _upper_bound_search(assessment, target, verify=True)
    return ExtensionResult(target, lower, upper, lower_helpers, upper_helpers)


# ---------------------------------------------------------------------------
# axiom suite on structured domains

PrevisionSource = Callable[[ConditionalVariable], Fraction]


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    checked: int
    counterexample: str | None = None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, axiom: str) -> AxiomCheck:
        for check in self.checks:
            if check.axiom == axiom:
                return check
        raise KeyError(axiom)


SCALING_SAMPLES = (
    Fraction(-1),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)
NONNEGATIVE_SCALINGS = tuple(k for k in SCALING_SAMPLES if k >= 0)


def natural_extension_prevision(assessment: Assessment) -> PrevisionSource:
    """A memoised view of the natural extension as a total prevision."""
    _ensure_coherent_base(assessment)
    cache: dict[ConditionalVariable, Fraction] = {}

    def lookup(cv: ConditionalVariable) -> Fraction:
        if cv not in cache:
            cache[cv] = natural_extension(assessment, cv, verify=False)
        return cache[cv]

    return lookup


def _as_source(prevision: PrevisionSource | Assessment) -> PrevisionSource:
    if isinstance(prevision, Assessment):
        def lookup(cv: ConditionalVariable) -> Fraction:
            entry = prevision.entry_for(cv)
            if entry is None:
                raise DomainNotClosed(
                    "a sampled combination is not in the assessed domain"
                )
            return entry.lower

        return lookup
    return prevision


def _describe(cv: ConditionalVariable) -> str:
    return f"values {tuple(str(v) for v in cv.values)} given {cv.cond.atoms()}"


def check_a1_a4(
    prevision: PrevisionSource | Assessment,
    basis: Sequence[RandomVariable],
    events: Sequence[Event],
) -> AxiomReport:
    """Sampled verification of the four coherence axioms on the linear
    span of `basis` with conditioning events from `events`:

    internality, nonnegative homogeneity, superadditivity, and the
    generalised Bayes condition that A(X - LP(X|A^B)) is priced 0
    given B.
    """
    source = _as_source(prevision)
    if not basis:
        raise ValueError("an empty basis generates nothing to check")
    space = basis[0].space
    conditioning = [e for e in events if not e.is_empty]
    if not conditioning:
        raise ValueError("at least one nonempty conditioning event is needed")

    sums = [x + y for pos, x in enumerate(basis) for y in basis[pos + 1:]]
    sampled: list[RandomVariable] = list(basis) + sums
    for x in basis:
        for k in SCALING_SAMPLES:
            candidate = x.scale(k)
            if candidate not in sampled:
                sampled.append(candidate)

    checks: list[AxiomCheck] = []

    count = 0
    failure = None
    for x in sampled:
        for b in conditioning:
            cv = restrict(x, b)
            count += 1
            if source(cv) < cv.inf():
                failure = f"price below the infimum for {_describe(cv)}"
                break
        if failure:
            break
    checks.append(AxiomCheck("internality", failure is None, count, failure))

    count = 0
    failure = None
    for x in basis + sums:
        for b in conditioning:
            base_value = source(restrict(x, b))
            for k in NONNEGATIVE_SCALINGS:
                count += 1
                if source(restrict(x.scale(k), b)) != k * base_value:
                    failure = (
                        f"scaling by {k} is not homogeneous for "
                        f"{_describe(restrict(x, b))}"
                    )
                    break
            if failure:
                break
        if failure:
            break
    checks.append(AxiomCheck("homogeneity", failure is None, count, failure))

    count = 0
    failure = None
    pool = basis + sums
    for pos, x in enumerate(pool):
        for y in pool[pos:]:
            for b in conditioning:
                count += 1
                total = source(restrict(x + y, b))
                if total < source(restrict(x, b)) + source(restrict(y, b)):
                    failure = (
                        f"subadditive prices for {_describe(restrict(x, b))} "
                        f"plus {_describe(restrict(y, b))}"
                    )
                    break
            if failure:
                break
        if failure:
            break
    checks.append(AxiomCheck("superadditivity", failure is None, count, failure))

    count = 0
    failure = None
    for x in basis:
        for a in conditioning:
            for b in conditioning:
                meet = a & b
                if meet.is_empty:
                    continue
                count += 1
                inner = source(restrict(x, meet))
                indicator = space.indicator(a)
                compound = indicator.pointwise_mul(x.shift(-inner))
                if source(restrict(compound, b)) != 0:
                    failure = (
                        "conditional price not washed out for "
                        f"{_describe(restrict(compound, b))}"
                    )
                    break
            if failure:
                break
        if failure:
            break
    checks.append(AxiomCheck("bayes-compound", failure is None, count, failure))

    return AxiomReport(tuple(checks))
