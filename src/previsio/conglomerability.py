"""Conglomerability diagnostics and the classical counterexamples at
finite truncation.

A measure is conglomerable with respect to a variable and a family of
conditioning cells when its unconditional value lies in the closed
interval spanned by the conditional ones.  For finite partitions and
precise probabilities this always holds; the classical examples violate
it only over infinite partitions, so their truncated versions stay
consistent and the report is a *limit diagnostic*: it shows the
assessed-cell interval against the unconditional value without claiming
finite inconsistency.

Both generators close the truncated space with explicit remainder atoms
carrying the residual probability, and Bayes-derive the remainder's
conditional values whenever its probability is positive.  That keeps
every generated assessment dF-coherent at every truncation while
reproducing the assessed values verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .checkers import _check_disjoint
from .errors import MissingValues
from .model import (
    Assessment,
    Event,
    PossibilitySpace,
    RandomVariable,
    restrict,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ConglomerabilityReport:
    value: Fraction                       # mu(X)
    cell_values: tuple[Fraction, ...]     # mu(X|B) per listed cell
    inf_cell: Fraction
    sup_cell: Fraction
    conglomerable: bool
    gap: Fraction                         # distance from the interval
    lower_condition: bool                 # mu(X) >= inf over cells


def check_conglomerability(
    assessment: Assessment,
    variable: RandomVariable,
    cells: Sequence[Event],
) -> ConglomerabilityReport:
    """Compare mu(X) with the interval of the mu(X|B) over the cells.

    All values are read from the assessment (lower previsions; for
    precise entries this is the prevision itself).  The cells must be
    nonempty and pairwise disjoint, but need not cover the space.
    """
    if not cells:
        raise MissingValues("at least one cell is required")
    _check_disjoint(cells)
    omega = assessment.space.omega()
    target = assessment.entry_for(restrict(variable, omega))
    if target is None:
        raise MissingValues("the unconditional value of the variable is not assessed")
    cell_values = []
    for cell in cells:
        entry = assessment.entry_for(restrict(variable, cell))
        if entry is None:
            raise MissingValues(
                f"the variable is not assessed given {{{','.join(cell.atoms())}}}"
            )
        cell_values.append(entry.lower)
    lo, hi = min(cell_values), max(cell_values)
    value = target.lower
    gap = max(lo - value, value - hi, _ZERO)
    return ConglomerabilityReport(
        value=value,
        cell_values=tuple(cell_values),
        inf_cell=lo,
        sup_cell=hi,
        conglomerable=(gap == 0),
        gap=gap,
        lower_condition=(value >= lo),
    )


@dataclass(frozen=True)
class ExampleBundle:
    """A generated example: assessment plus named variables and events,
    the partition cells of interest, and generator notes."""

    space: PossibilitySpace
    assessment: Assessment
    variables: Mapping[str, RandomVariable]
    events: Mapping[str, Event]
    cells: tuple[Event, ...]
    target: str
    notes: tuple[str, ...] = ()


def definetti_example(h: int, k: int, truncation: int) -> ExampleBundle:
    """A number is drawn from the positive integers; each cell of the
    coarse partition asserts that one of h odd / k even candidates came
    up, so the odd-number event A is valued h/(h+k) on every cell while
    its unconditional probability is 1/2.

    Truncated to `truncation` cells plus a remainder atom absorbing the
    residual mass; the remainder joins A or its complement (whichever
    admits a nonnegative residual) and its conditional value is
    Bayes-derived when its probability is positive, omitted otherwise.
    """
    if h < 1 or k < 1 or truncation < 1:
        raise ValueError("h, k and the truncation must be positive")
    atoms: list[str] = []
    odd_atoms: list[str] = []
    cell_atoms: list[list[str]] = []
    next_odd, next_even = 1, 2
    for _ in range(truncation):
        cell: list[str] = []
        for _ in range(h):
            cell.append(f"w{next_odd}")
            odd_atoms.append(f"w{next_odd}")
            next_odd += 2
        for _ in range(k):
            cell.append(f"w{next_even}")
            next_even += 2
        atoms.extend(cell)
        cell_atoms.append(cell)
    atoms.append("rest")
    space = PossibilitySpace(tuple(atoms))

    if k > h:
        rest_mass = Fraction(k - h, 2 * k)
        rest_in_a = True
    elif h > k:
        rest_mass = Fraction(h - k, 2 * h)
        rest_in_a = False
    else:
        rest_mass = _ZERO
        rest_in_a = False

    a_atoms = odd_atoms + (["rest"] if rest_in_a else [])
    a_event = space.event(a_atoms)
    a_var = space.indicator(a_event)
    cells = tuple(space.event(c) for c in cell_atoms)
    rest_event = space.event(["rest"])

    ratio = Fraction(h, h + k)
    items = [(restrict(a_var, space.omega()), Fraction(1, 2), Fraction(1, 2))]
    for cell in cells:
        items.append((restrict(a_var, cell), ratio, ratio))
    notes = [
        "remainder atom 'rest' carries residual probability "
        f"{rest_mass} inside {'A' if rest_in_a else 'not-A'}",
    ]
    if rest_mass > 0:
        rest_value = _ONE if rest_in_a else _ZERO
        items.append((restrict(a_var, rest_event), rest_value, rest_value))
        notes.append(
            "the value of A given the remainder is Bayes-derived, an "
            "artifact completion the original construction leaves open"
        )
    else:
        notes.append(
            "the remainder has probability zero, so no conditional value "
            "is derived for it"
        )

    events = {"Omega": space.omega(), "A": a_event, "Brest": rest_event}
    for i, cell in enumerate(cells, start=1):
        events[f"B{i}"] = cell
    return ExampleBundle(
        space=space,
        assessment=Assessment.build(space, items),
        variables={"A": a_var},
        events=events,
        cells=cells,
        target="A",
        notes=tuple(notes),
    )


def walley_666_example(truncation: int) -> ExampleBundle:
    """The even mixture of two finitely additive probabilities on the
    nonzero integers: one giving 2^-z to each positive z, one pushing
    all mass below every negative integer.  Conditioning on the pair
    {-n, n} gives probability one to the positive atom and to the
    positive half-line A, while A itself is valued 1/2.

    Truncated to n <= `truncation`, with one atom per tail carrying the
    residual masses (Bayes-completed); the assessment prices every
    atom, A, its complement, every pair cell and the conditional values
    on the pairs.
    """
    if truncation < 1:
        raise ValueError("the truncation must be positive")
    n = truncation
    atoms: list[str] = []
    for i in range(1, n + 1):
        atoms.extend([f"w{i}", f"w-{i}"])
    atoms.extend(["tailpos", "tailneg"])
    space = PossibilitySpace(tuple(atoms))

    prob: dict[str, Fraction] = {}
    for i in range(1, n + 1):
        prob[f"w{i}"] = Fraction(1, 2 ** (i + 1))
        prob[f"w-{i}"] = _ZERO
    prob["tailpos"] = Fraction(1, 2 ** (n + 1))
    prob["tailneg"] = Fraction(1, 2)

    a_event = space.event([f"w{i}" for i in range(1, n + 1)] + ["tailpos"])
    b_event = ~a_event
    a_var = space.indicator(a_event)
    b_var = space.indicator(b_event)
    omega = space.omega()

    variables: dict[str, RandomVariable] = {"A": a_var, "B": b_var}
    events: dict[str, Event] = {
        "Omega": omega,
        "A": a_event,
        "B": b_event,
        "Brest": space.event(["tailpos", "tailneg"]),
    }
    priced: dict = {}

    def price(cv, value):
        # distinct paper objects may restrict to one canonical variable
        # (A and the positive atom coincide on a pair cell); they must
        # then agree, and are priced once
        if cv in priced:
            if priced[cv] != value:
                raise AssertionError("conflicting Bayes values")
            return
        priced[cv] = value

    for atom in atoms:
        var = space.indicator(space.event([atom]))
        variables[atom] = var
        price(restrict(var, omega), prob[atom])
    price(restrict(a_var, omega), Fraction(1, 2))
    price(restrict(b_var, omega), Fraction(1, 2))
    cells = []
    for i in range(1, n + 1):
        cell = space.event([f"w{i}", f"w-{i}"])
        cells.append(cell)
        events[f"B{i}"] = cell
        mass = prob[f"w{i}"]
        cell_var = space.indicator(cell)
        variables[f"B{i}"] = cell_var
        price(restrict(cell_var, omega), mass)
        price(restrict(variables[f"w{i}"], cell), _ONE)
        price(restrict(a_var, cell), _ONE)
    items = [(cv, value, value) for cv, value in priced.items()]
    notes = (
        "tail atoms carry the residual masses "
        f"{prob['tailpos']} (positive side, inside A) and 1/2 (negative side)",
        "all values are Bayes-derived from the truncated mixture, so the "
        "assessment stays dF-coherent at every truncation",
        "the uniform-loss behaviour of the untruncated example needs the "
        "infinite partition; at finite truncation only the assessed-cell "
        "interval against the unconditional value is reported",
    )
    return ExampleBundle(
        space=space,
        assessment=Assessment.build(space, items),
        variables=variables,
        events=events,
        cells=tuple(cells),
        target="A",
        notes=notes,
    )
