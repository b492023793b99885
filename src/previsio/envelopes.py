"""Credal-set geometry: dominating previsions and envelope constructors.

The credal set of an assessment is the polytope of probability vectors
p with, for every assessed X|B, sum_w p(w)B(w)X(w) >= LP(X|B) *
sum_w p(w)B(w) (and the conjugate inequality when an upper prevision is
given).  Vertices are enumerated by the double description method:
start from the probability simplex and cut one halfspace at a time,
keeping satisfying vertices and the cuts of edges between kept and
dropped ones.

The enumeration runs on ints, fraction-free in the way of `lp`'s
tableau.  Each vertex is an int vector v over one positive int d, the
point v / d with sum v = d, in lowest terms.  Since sum v = d, the slack
a.v - r d of a halfspace a.p >= r is (a - r).v, so each halfspace is
scaled once, when enumeration starts, to the nonzero (column, int) terms
of a - r (`lp.int_terms`).  The sign of that int sum alone is used, and
the point where the edge (a, b) with slacks s_a > 0 > s_b crosses the
cut is s_a (v_b, d_b) - s_b (v_a, d_a), divided by its gcd.  Fractions
are made only when the `CredalSet` is built.

Each vertex carries its tight set as an int bitmask: bit j for
p_j >= 0 and bit n + i for the i-th halfspace.  A cut adds its bit to
the kept vertices with zero slack, and a new vertex on the edge (a, b)
gets the bits a and b share plus the cut's own.  Edges are found
combinatorially (Fukuda & Prodon, "Double description method
revisited", 1996): a and b are adjacent iff their common tight set has
at least n - 2 bits and no third vertex's mask contains it.  This needs
no arithmetic and holds on degenerate polytopes too.

Dominating previsions conditional on an event only make sense when the
event has positive probability, so the polytope is built either under
P(B) >= delta for a user-chosen delta > 0, or as the closed polytope
with a post-filter discarding vertices with P(B) = 0.  Emptiness in
these regimes does not prove incoherence; it is reported as a distinct
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .checkers import expanded_elements
from .errors import (
    DimensionLimitExceeded,
    EmptyCredalSet,
    MemberNotCoherent,
    ZeroProbabilityConditioning,
)
from .lp import int_terms
from .model import (
    Assessment,
    ConditionalVariable,
    Event,
    PossibilitySpace,
    RationalLike,
    as_rational,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

MAX_ATOMS = 12

# the point v / d and its tight-set bitmask
_Vertex = tuple[tuple[int, ...], int, int]


@dataclass(frozen=True)
class HalfSpace:
    """coeffs . p >= rhs"""

    coeffs: tuple[Fraction, ...]
    rhs: Fraction

    def slack(self, point: Sequence[Fraction]) -> Fraction:
        """coeffs . point - rhs, in fractions: the public way to evaluate
        a row of a returned `CredalSet`, and the `Fraction` oracle of the
        integer slacks of the enumeration, which does not call it."""
        return sum((a * x for a, x in zip(self.coeffs, point)), _ZERO) - self.rhs


@dataclass(frozen=True)
class CredalSet:
    space: PossibilitySpace
    vertices: tuple[tuple[Fraction, ...], ...]
    constraints: tuple[HalfSpace, ...]

    def per_entry_min(self, assessment: Assessment) -> dict[ConditionalVariable, Fraction]:
        """Pointwise minimum of the conditional previsions of the
        vertices on the assessed domain."""
        out: dict[ConditionalVariable, Fraction] = {}
        for entry in assessment.entries:
            values = []
            for vertex in self.vertices:
                value = _conditional_prevision(vertex, entry.variable)
                if value is not None:
                    values.append(value)
            if values:
                out[entry.variable] = min(values)
        return out


def _conditional_prevision(
    p: Sequence[Fraction], cv: ConditionalVariable
) -> Fraction | None:
    mass = sum((p[i] for i in cv.cond.members), _ZERO)
    if mass == 0:
        return None
    scaled = sum((p[i] * v for i, v in cv.value_map().items()), _ZERO)
    return scaled / mass


def _simplex_vertices(n: int) -> list[_Vertex]:
    """The unit vectors, each tight at every p_j >= 0 but its own."""
    full = (1 << n) - 1
    return [
        (tuple(int(j == i) for j in range(n)), 1, full & ~(1 << i))
        for i in range(n)
    ]


def _is_edge(common: int, masks: Sequence[int]) -> bool:
    """Whether two vertices whose tight sets share `common` span an edge.

    The smallest face holding both is where every row of `common` is
    tight; its vertices are those whose masks contain `common`.  It is
    an edge iff the pair are its only vertices.  An edge also needs
    n - 2 tight rows besides sum p = 1, so callers test
    ``common.bit_count() < n - 2`` first: it rules most pairs out
    before the scan.
    """
    holders = 0
    for mask in masks:
        if mask & common == common:
            holders += 1
            if holders > 2:
                return False
    return True


def _cut(
    vertices: list[_Vertex], row: Sequence[tuple[int, int]], bit: int, n: int
) -> list[_Vertex]:
    """Intersect the polytope with the halfspace whose a - r has the int
    terms `row`, and whose tight-set bit is `bit`."""
    # the slack at v / d times d and the row's scale, both positive
    slacks = [sum(a * v[j] for j, a in row) for v, _, _ in vertices]
    kept = [
        (v, d, mask | bit if s == 0 else mask)
        for (v, d, mask), s in zip(vertices, slacks)
        if s >= 0
    ]
    if len(kept) == len(vertices):
        return kept
    masks = [mask for _, _, mask in vertices]
    least = n - 2
    above = [(x, s) for x, s in zip(vertices, slacks) if s > 0]
    below = [(x, s) for x, s in zip(vertices, slacks) if s < 0]
    for (v_a, d_a, mask_a), s_a in above:
        for (v_b, d_b, mask_b), s_b in below:
            common = mask_a & mask_b
            if common.bit_count() < least or not _is_edge(common, masks):
                continue
            # each edge crosses the hyperplane at its own interior point,
            # so no point is found twice; the coordinates sum to the
            # denominator, so their gcd divides it
            point = [s_a * y - s_b * x for x, y in zip(v_a, v_b)]
            g = math.gcd(*point)
            kept.append((
                tuple(x // g for x in point),
                (s_a * d_b - s_b * d_a) // g,
                common | bit,
            ))
    return kept


def _enumerate_vertices(
    n: int, halfspaces: Sequence[HalfSpace]
) -> list[tuple[tuple[int, ...], int]]:
    """The vertices (v, d), sorted by their points v / d."""
    vertices = _simplex_vertices(n)
    for i, halfspace in enumerate(halfspaces):
        row, _ = int_terms(halfspace.coeffs, halfspace.rhs)
        vertices = _cut(vertices, row, 1 << (n + i), n)
        if not vertices:
            return []
    common = reduce(math.lcm, (d for _, d, _ in vertices), 1)
    return sorted(
        ((v, d) for v, d, _ in vertices),
        key=lambda vd: [x * (common // vd[1]) for x in vd[0]],
    )


def domination_constraints(assessment: Assessment) -> list[HalfSpace]:
    """p.(X - LP(X|B))B >= 0 for each direction of each entry, the
    conjugate (UP(X|B) - X)B of an upper value included."""
    n = assessment.space.size
    return [
        HalfSpace(tuple(gain.get(i, _ZERO) for i in range(n)), _ZERO)
        for gain in (el.coefficients() for el in expanded_elements(assessment))
    ]


def credal_polytope(
    assessment: Assessment,
    positivity: Sequence[Event] | None = None,
    *,
    delta: RationalLike | None = None,
) -> CredalSet:
    """Vertices of the dominating credal set.

    `positivity` lists the events whose probability must be positive
    (default: all conditioning events of the assessment).  Given a
    rational delta > 0, the polytope carries P(B) >= delta; otherwise
    the closed polytope is enumerated and vertices giving some listed
    event probability zero are discarded.
    """
    space = assessment.space
    if space.size > MAX_ATOMS:
        raise DimensionLimitExceeded(
            f"vertex enumeration is capped at {MAX_ATOMS} atoms"
        )
    required = list(positivity) if positivity is not None else [
        e for e in assessment.conditioning_events() if not e.is_sure
    ]
    halfspaces = domination_constraints(assessment)
    if delta is not None:
        d = as_rational(delta)
        if d <= 0:
            raise ValueError("delta must be positive")
        for event in required:
            row = [
                _ONE if i in event.members else _ZERO for i in range(space.size)
            ]
            halfspaces.append(HalfSpace(tuple(row), d))
    vertices = _enumerate_vertices(space.size, halfspaces)
    if delta is None:
        # v >= 0, so P(B) > 0 iff some coordinate on B is nonzero
        vertices = [
            (v, d)
            for v, d in vertices
            if all(any(v[i] for i in event.members) for event in required)
        ]
    if not vertices:
        raise EmptyCredalSet(
            "no dominating prevision exists in the requested positivity "
            "regime (this alone does not prove incoherence)"
        )
    points = tuple(
        tuple(Fraction(x, d) if x else _ZERO for x in v) for v, d in vertices
    )
    return CredalSet(space, points, tuple(halfspaces))


# ---------------------------------------------------------------------------
# envelope constructors


def _probability_vector(
    space: PossibilitySpace, p: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    vec = tuple(as_rational(x) for x in p)
    if len(vec) != space.size:
        raise ValueError("one probability per atom is required")
    if any(x < 0 for x in vec) or sum(vec) != 1:
        raise MemberNotCoherent("not a probability vector")
    return vec


def _member_prevision(
    space: PossibilitySpace, p: Sequence[Fraction], cv: ConditionalVariable
) -> Fraction:
    value = _conditional_prevision(p, cv)
    if value is None:
        raise ZeroProbabilityConditioning(
            "a member gives zero probability to a conditioning event"
        )
    return value


def lower_envelope(
    space: PossibilitySpace,
    members: Sequence[Sequence[RationalLike]],
    domain: Sequence[ConditionalVariable],
) -> Assessment:
    """Pointwise minimum of finitely many precise conditional previsions,
    each given as a probability vector with positive mass on every
    conditioning event.  Such a member is dF-coherent, with no program
    to show it: every bet on its previsions has expectation 0 under it,
    and the union of the bet's events has positive mass, so its gain is
    not negative everywhere there."""
    return convex_envelope(space, members, [0] * len(members), domain).assessment


@dataclass(frozen=True)
class ConvexEnvelope:
    assessment: Assessment
    centered: bool


def convex_envelope(
    space: PossibilitySpace,
    members: Sequence[Sequence[RationalLike]],
    alphas: Sequence[RationalLike],
    domain: Sequence[ConditionalVariable],
) -> ConvexEnvelope:
    """The alpha-shifted envelope: LP(X|B) = min_P [P(X|B) + a(P)/P(B)].

    Always a convex conditional lower prevision; centered exactly when
    min_P a(P)/P(B) = 0 for every conditioning event of the domain.
    """
    if not members:
        raise ValueError("an envelope needs at least one member")
    if len(alphas) != len(members):
        raise ValueError("one alpha per member is required")
    vectors = [_probability_vector(space, p) for p in members]
    shifts = [as_rational(a) for a in alphas]
    items = []
    for cv in domain:
        value = min(
            _member_prevision(space, p, cv)
            + a / sum((p[i] for i in cv.cond.members), _ZERO)
            for p, a in zip(vectors, shifts)
        )
        items.append((cv, value))
    events: list[Event] = []
    for cv in domain:
        if cv.cond not in events:
            events.append(cv.cond)
    centered = all(
        min(
            a / sum((p[i] for i in event.members), _ZERO)
            for p, a in zip(vectors, shifts)
        )
        == 0
        for event in events
    )
    return ConvexEnvelope(Assessment.build(space, items), centered)
