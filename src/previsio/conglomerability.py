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

The generators write the interchange document by name (see jsonio),
with its extra keys "notes", "cells" (the partition cells, by event
name) and "target" (the variable they condition); they build no model
object, and `jsonio.load_problem` reads what they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .checkers import _check_disjoint
from .errors import MissingValues
from .model import Assessment, Event, RandomVariable, restrict

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


def _row(var: str, given: str | None, value: Fraction) -> dict:
    """A precise assessment row of the interchange schema."""
    return {"var": var, "given": given, "lower": str(value), "upper": str(value)}


def _indicator(atoms: Sequence[str], event: Sequence[str]) -> dict[str, str]:
    inside = set(event)
    return {a: "1" if a in inside else "0" for a in atoms}


def definetti_example(h: int, k: int, truncation: int) -> dict:
    """A number is drawn from the positive integers; each cell of the
    coarse partition asserts that one of h odd / k even candidates came
    up, so the odd-number event A is valued h/(h+k) on every cell while
    its unconditional probability is 1/2.

    Truncated to `truncation` cells plus a remainder atom absorbing the
    residual mass; the remainder joins A or its complement (whichever
    admits a nonnegative residual) and its conditional value is
    Bayes-derived when its probability is positive, omitted otherwise.

    Returns the interchange document that `previsio example definetti`
    prints; `jsonio.load_problem` reads it.
    """
    if h < 1 or k < 1 or truncation < 1:
        raise ValueError("h, k and the truncation must be positive")
    # cell i holds the next h odd and the next k even numbers
    cells = {
        f"B{i + 1}": [f"w{2 * (i * h + j) + 1}" for j in range(h)]
        + [f"w{2 * (i * k + j) + 2}" for j in range(k)]
        for i in range(truncation)
    }
    atoms = [a for cell in cells.values() for a in cell] + ["rest"]

    # the remainder lies on the side that each cell holds fewer of
    rest_mass = Fraction(abs(k - h), 2 * max(h, k))
    rest_in_a = k > h
    a_atoms = [a for cell in cells.values() for a in cell[:h]] + (["rest"] if rest_in_a else [])

    ratio = Fraction(h, h + k)
    rows = [_row("A", None, Fraction(1, 2))]
    rows += [_row("A", name, ratio) for name in cells]
    notes = [
        "remainder atom 'rest' carries residual probability "
        f"{rest_mass} inside {'A' if rest_in_a else 'not-A'}",
    ]
    if rest_mass > 0:
        rows.append(_row("A", "Brest", _ONE if rest_in_a else _ZERO))
        notes.append(
            "the value of A given the remainder is Bayes-derived, an "
            "artifact completion the original construction leaves open"
        )
    else:
        notes.append(
            "the remainder has probability zero, so no conditional value "
            "is derived for it"
        )

    return {
        "atoms": atoms,
        "variables": {"A": _indicator(atoms, a_atoms)},
        "events": {"Omega": atoms, "A": a_atoms, "Brest": ["rest"], **cells},
        "assessments": rows,
        "notes": notes,
        "cells": list(cells),
        "target": "A",
    }


def walley_666_example(truncation: int) -> dict:
    """The even mixture of two finitely additive probabilities on the
    nonzero integers: one giving 2^-z to each positive z, one pushing
    all mass below every negative integer.  Conditioning on the pair
    {-n, n} gives probability one to the positive atom and to the
    positive half-line A, while A itself is valued 1/2.

    Truncated to n <= `truncation`, with one atom per tail carrying the
    residual masses (Bayes-completed); the assessment prices every
    atom, A, its complement, every pair cell and the conditional values
    on the pairs.  On a pair cell the positive atom and A are one
    conditional variable, priced once, as A.

    Returns the interchange document that `previsio example walley666`
    prints; `jsonio.load_problem` reads it.
    """
    if truncation < 1:
        raise ValueError("the truncation must be positive")
    n = truncation
    atoms = [w for i in range(1, n + 1) for w in (f"w{i}", f"w-{i}")]
    atoms += ["tailpos", "tailneg"]
    prob = dict.fromkeys(atoms, _ZERO)
    prob.update({f"w{i}": Fraction(1, 2 ** (i + 1)) for i in range(1, n + 1)})
    prob.update(tailpos=Fraction(1, 2 ** (n + 1)), tailneg=Fraction(1, 2))

    a_atoms = [f"w{i}" for i in range(1, n + 1)] + ["tailpos"]
    b_atoms = [f"w-{i}" for i in range(1, n + 1)] + ["tailneg"]
    cells = {f"B{i}": [f"w{i}", f"w-{i}"] for i in range(1, n + 1)}
    named = {"A": a_atoms, "B": b_atoms, **{a: [a] for a in atoms}, **cells}

    rows = [_row(a, None, prob[a]) for a in atoms]
    rows += [_row("A", None, Fraction(1, 2)), _row("B", None, Fraction(1, 2))]
    for i in range(1, n + 1):
        rows += [_row(f"B{i}", None, prob[f"w{i}"]), _row("A", f"B{i}", _ONE)]
    return {
        "atoms": atoms,
        "variables": {name: _indicator(atoms, event) for name, event in named.items()},
        "events": {
            "Omega": atoms,
            "A": a_atoms,
            "B": b_atoms,
            "Brest": ["tailpos", "tailneg"],
            **cells,
        },
        "assessments": rows,
        "notes": [
            "tail atoms carry the residual masses "
            f"{prob['tailpos']} (positive side, inside A) and 1/2 (negative side)",
            "all values are Bayes-derived from the truncated mixture, so the "
            "assessment stays dF-coherent at every truncation",
            "the uniform-loss behaviour of the untruncated example needs the "
            "infinite partition; at finite truncation only the assessed-cell "
            "interval against the unconditional value is reported",
        ],
        "cells": list(cells),
        "target": "A",
    }
