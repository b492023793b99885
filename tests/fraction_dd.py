"""The double description on `Fraction`s, as a test oracle.

This is the enumeration that `previsio.envelopes` runs on integer rows
and homogeneous vertices: every vertex a tuple of `Fraction`s, every
slack `HalfSpace.slack`, every edge point `x + t * (y - x)`.  Adjacency
is the same combinatorial test (`envelopes._is_edge`), so the two must
return the same vertices in the same order.
"""

from fractions import Fraction
from typing import Sequence

from previsio.envelopes import (
    CredalSet,
    HalfSpace,
    _is_edge,
    domination_constraints,
)
from previsio.errors import EmptyCredalSet
from previsio.model import Assessment, Event

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _simplex_vertices(n: int) -> list[tuple[tuple[Fraction, ...], int]]:
    full = (1 << n) - 1
    return [
        (tuple(_ONE if j == i else _ZERO for j in range(n)), full & ~(1 << i))
        for i in range(n)
    ]


def _cut(
    vertices: list[tuple[tuple[Fraction, ...], int]],
    halfspace: HalfSpace,
    bit: int,
    n: int,
) -> list[tuple[tuple[Fraction, ...], int]]:
    slacks = [halfspace.slack(v) for v, _ in vertices]
    kept = [
        (v, mask | bit if s == 0 else mask)
        for (v, mask), s in zip(vertices, slacks)
        if s >= 0
    ]
    if len(kept) == len(vertices):
        return kept
    masks = [mask for _, mask in vertices]
    above = [(v, mask, s) for (v, mask), s in zip(vertices, slacks) if s > 0]
    below = [(v, mask, s) for (v, mask), s in zip(vertices, slacks) if s < 0]
    for a, mask_a, s_a in above:
        for b, mask_b, s_b in below:
            common = mask_a & mask_b
            if common.bit_count() < n - 2 or not _is_edge(common, masks):
                continue
            t = s_a / (s_a - s_b)
            point = tuple(x + t * (y - x) for x, y in zip(a, b))
            kept.append((point, common | bit))
    return kept


def enumerate_vertices(
    n: int, halfspaces: Sequence[HalfSpace]
) -> list[tuple[Fraction, ...]]:
    vertices = _simplex_vertices(n)
    for i, halfspace in enumerate(halfspaces):
        vertices = _cut(vertices, halfspace, 1 << (n + i), n)
        if not vertices:
            return []
    return sorted(v for v, _ in vertices)


def credal_polytope(
    assessment: Assessment,
    positivity: Sequence[Event] | None = None,
    *,
    delta: Fraction | None = None,
) -> CredalSet:
    """`envelopes.credal_polytope` for valid arguments, on this
    enumeration."""
    space = assessment.space
    required = list(positivity) if positivity is not None else [
        e for e in assessment.conditioning_events() if not e.is_sure
    ]
    halfspaces = domination_constraints(assessment)
    if delta is not None:
        for event in required:
            row = [
                _ONE if i in event.members else _ZERO for i in range(space.size)
            ]
            halfspaces.append(HalfSpace(tuple(row), Fraction(delta)))
    vertices = enumerate_vertices(space.size, halfspaces)
    if delta is None:
        vertices = [
            v
            for v in vertices
            if all(
                sum((v[i] for i in event.members), _ZERO) > 0
                for event in required
            )
        ]
    if not vertices:
        raise EmptyCredalSet("no dominating prevision")
    return CredalSet(space, tuple(vertices), tuple(halfspaces))
