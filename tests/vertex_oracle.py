"""Vertices of a credal polytope by brute force, as a test oracle.

A point is a vertex of {p : p >= 0, sum p = 1, h.p >= r for each
halfspace h} iff it is feasible and n - 1 of the inequality rows are
tight at it, linearly independent together with the ones row.  So every
vertex is the unique solution of a square system made of the ones row
and n - 1 inequality rows.  The oracle solves every such system by
Fraction elimination and keeps the unique, feasible solutions.  It
shares no code with the double description in `previsio.envelopes`.
"""

from fractions import Fraction
from itertools import combinations

F = Fraction


def inequality_rows(n, halfspaces):
    """(coeffs, rhs) of each halfspace, then of each p_j >= 0."""
    rows = [(tuple(h.coeffs), h.rhs) for h in halfspaces]
    rows += [(tuple(F(int(i == j)) for i in range(n)), F(0)) for j in range(n)]
    return rows


def _dot(coeffs, point):
    return sum((a * x for a, x in zip(coeffs, point)), F(0))


def _reduce(rows, cols):
    """Gauss-Jordan elimination on the first `cols` columns; returns
    the reduced rows and the rank."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rows, rank


def oracle_vertices(n, halfspaces):
    rows = inequality_rows(n, halfspaces)
    found = set()
    for subset in combinations(rows, n - 1):
        system = [(F(1),) * n + (F(1),)] + [c + (r,) for c, r in subset]
        reduced, full_rank = _reduce(system, n)
        if full_rank < n:
            continue
        point = tuple(row[n] for row in reduced)
        if all(_dot(c, point) >= r for c, r in rows):
            found.add(point)
    return sorted(found)


def tight_rank(point, halfspaces):
    """Rank of the ones row together with the inequality rows tight at
    `point`; a vertex has rank n."""
    n = len(point)
    tight = [c for c, r in inequality_rows(n, halfspaces) if _dot(c, point) == r]
    return _reduce([(F(1),) * n] + tight, n)[1]
