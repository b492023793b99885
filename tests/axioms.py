"""Williams' four axioms sampled on a structured domain, as a test oracle.

`check_a1_a4` samples internality, nonnegative homogeneity,
superadditivity and the generalised Bayes condition on the linear span
of a basis, conditioned on a list of events.  It decides nothing and
carries no certificate: on a structured domain W-coherence is
characterised by these axioms, so a prevision the library certifies,
such as `extensions.natural_extension_prevision`, must pass every
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from previsio.extensions import PrevisionSource
from previsio.model import Assessment, ConditionalVariable, Event, RandomVariable, restrict


class DomainNotClosed(LookupError):
    """A sampled combination left the domain on which previsions are defined."""


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


def _first_failure(axiom: str, cases: Iterator[bool | str]) -> AxiomCheck:
    """Run `cases` up to the first that fails: each yields True when it
    holds and its counterexample otherwise."""
    count = 0
    for count, outcome in enumerate(cases, 1):
        if outcome is not True:
            return AxiomCheck(axiom, False, count, outcome)
    return AxiomCheck(axiom, True, count)


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
    pool = list(basis) + sums
    sampled = list(pool)
    for x in basis:
        for k in SCALING_SAMPLES:
            candidate = x.scale(k)
            if candidate not in sampled:
                sampled.append(candidate)

    def internality() -> Iterator[bool | str]:
        for x in sampled:
            for b in conditioning:
                cv = restrict(x, b)
                yield source(cv) >= cv.inf() or (
                    f"price below the infimum for {_describe(cv)}"
                )

    def homogeneity() -> Iterator[bool | str]:
        for x in pool:
            for b in conditioning:
                base_value = source(restrict(x, b))
                for k in NONNEGATIVE_SCALINGS:
                    yield source(restrict(x.scale(k), b)) == k * base_value or (
                        f"scaling by {k} is not homogeneous for "
                        f"{_describe(restrict(x, b))}"
                    )

    def superadditivity() -> Iterator[bool | str]:
        for pos, x in enumerate(pool):
            for y in pool[pos:]:
                for b in conditioning:
                    total = source(restrict(x + y, b))
                    yield total >= source(restrict(x, b)) + source(restrict(y, b)) or (
                        f"subadditive prices for {_describe(restrict(x, b))} "
                        f"plus {_describe(restrict(y, b))}"
                    )

    def bayes_compound() -> Iterator[bool | str]:
        for x in basis:
            for a in conditioning:
                for b in conditioning:
                    meet = a & b
                    if meet.is_empty:
                        continue
                    inner = source(restrict(x, meet))
                    compound = space.indicator(a).pointwise_mul(x - space.constant(inner))
                    yield source(restrict(compound, b)) == 0 or (
                        "conditional price not washed out for "
                        f"{_describe(restrict(compound, b))}"
                    )

    return AxiomReport((
        _first_failure("internality", internality()),
        _first_failure("homogeneity", homogeneity()),
        _first_failure("superadditivity", superadditivity()),
        _first_failure("bayes-compound", bayes_compound()),
    ))
