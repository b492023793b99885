"""Exact rational linear programming.

A two-phase simplex over `fractions.Fraction` with Bland's
anti-cycling rule.  Exact arithmetic is what costs, so the tableau does
as few `Fraction` operations as it can: a pivot updates only the
columns where the pivot row is nonzero, and only the rows with a
nonzero entry in the pivot column.  A row that reads "<=" once its rhs
is made nonnegative starts basic on its slack; only the other rows get
an artificial, and phase 1 is skipped when there are none.

Outcomes are self-certifying: an :class:`Optimal` point satisfies every
constraint exactly, an :class:`Infeasible` outcome carries a Farkas
certificate (nonnegative multipliers over the >=-canonical system that
combine to ``0 >= positive``), and an :class:`Unbounded` outcome carries
a feasible point plus an improving ray.  ``solve`` re-verifies each
certificate before returning it.  The row duals of an optimal outcome
are not re-verified here; a caller that relies on them checks what it
uses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import MalformedProgram
from .model import RationalLike, as_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)

Bound = tuple[Fraction | None, Fraction | None]


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str  # "<=", "=", ">="
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in ("<=", "=", ">="):
            raise MalformedProgram(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(map(as_rational, self.coeffs)))
        object.__setattr__(self, "rhs", as_rational(self.rhs))


@dataclass(frozen=True)
class LinearProgram:
    """max/min c.x subject to rows and per-variable bounds.

    Default bounds are (0, None); pass (None, None) for a free variable.
    An all-zero objective turns ``solve`` into a pure feasibility test.
    """

    objective: tuple[Fraction, ...]
    sense: str = "max"
    constraints: tuple[Constraint, ...] = ()
    bounds: tuple[Bound, ...] | None = None

    def __post_init__(self) -> None:
        if self.sense not in ("max", "min"):
            raise MalformedProgram(f"unknown sense {self.sense!r}")
        object.__setattr__(self, "objective", tuple(map(as_rational, self.objective)))
        n = len(self.objective)
        if n == 0:
            raise MalformedProgram("a program needs at least one variable")
        for c in self.constraints:
            if len(c.coeffs) != n:
                raise MalformedProgram("constraint arity differs from objective")
        if self.bounds is None:
            object.__setattr__(self, "bounds", ((_ZERO, None),) * n)
        else:
            if len(self.bounds) != n:
                raise MalformedProgram("one bound pair per variable is required")
            norm = tuple(
                (None if lo is None else as_rational(lo),
                 None if up is None else as_rational(up))
                for lo, up in self.bounds
            )
            object.__setattr__(self, "bounds", norm)

    @property
    def arity(self) -> int:
        return len(self.objective)


def constraint(coeffs: Sequence[RationalLike], relation: str, rhs: RationalLike) -> Constraint:
    return Constraint(tuple(map(as_rational, coeffs)), relation, as_rational(rhs))


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers over the >=-canonical rows of a program.

    Canonical rows, in order: for every constraint, (coeffs, rhs) if
    ">=", (-coeffs, -rhs) if "<=", and both if "="; then (e_j, lo_j) for
    each finite lower bound and (-e_j, -up_j) for each finite upper
    bound.  All multipliers are >= 0; their combination yields zero
    coefficients for every variable and a strictly positive rhs.
    """

    multipliers: tuple[Fraction, ...]


def canonical_geq_rows(lp: LinearProgram) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for c in lp.constraints:
        if c.relation in (">=", "="):
            rows.append((c.coeffs, c.rhs))
        if c.relation in ("<=", "="):
            rows.append((tuple(-a for a in c.coeffs), -c.rhs))
    n = lp.arity
    for j, (lo, up) in enumerate(lp.bounds):
        if lo is not None:
            e = tuple(_ONE if i == j else _ZERO for i in range(n))
            rows.append((e, lo))
        if up is not None:
            e = tuple(-_ONE if i == j else _ZERO for i in range(n))
            rows.append((e, -up))
    return rows


def verify_farkas(lp: LinearProgram, cert: FarkasCertificate) -> bool:
    rows = canonical_geq_rows(lp)
    if len(cert.multipliers) != len(rows):
        return False
    if any(m < 0 for m in cert.multipliers):
        return False
    combined = [_ZERO] * lp.arity
    rhs = _ZERO
    for m, (coeffs, b) in zip(cert.multipliers, rows):
        if m == 0:
            continue
        for j, a in enumerate(coeffs):
            combined[j] += m * a
        rhs += m * b
    return all(v == 0 for v in combined) and rhs > 0


def satisfies(lp: LinearProgram, point: Sequence[Fraction]) -> bool:
    if len(point) != lp.arity:
        return False
    for c in lp.constraints:
        lhs = sum((a * x for a, x in zip(c.coeffs, point)), _ZERO)
        if c.relation == "<=" and lhs > c.rhs:
            return False
        if c.relation == ">=" and lhs < c.rhs:
            return False
        if c.relation == "=" and lhs != c.rhs:
            return False
    for x, (lo, up) in zip(point, lp.bounds):
        if lo is not None and x < lo:
            return False
        if up is not None and x > up:
            return False
    return True


def verify_ray(lp: LinearProgram, ray: Sequence[Fraction]) -> bool:
    """A recession direction that strictly improves the objective."""
    if len(ray) != lp.arity or all(d == 0 for d in ray):
        return False
    for c in lp.constraints:
        drift = sum((a * d for a, d in zip(c.coeffs, ray)), _ZERO)
        if c.relation == "<=" and drift > 0:
            return False
        if c.relation == ">=" and drift < 0:
            return False
        if c.relation == "=" and drift != 0:
            return False
    for d, (lo, up) in zip(ray, lp.bounds):
        if lo is not None and d < 0:
            return False
        if up is not None and d > 0:
            return False
    gain = sum((c * d for c, d in zip(lp.objective, ray)), _ZERO)
    return gain > 0 if lp.sense == "max" else gain < 0


@dataclass(frozen=True)
class Optimal:
    """An optimal point and its value.  `duals` holds one multiplier per
    constraint, oriented to the program's sense: for a max program with
    default bounds they solve the dual (y >= 0 on "<=" rows, y <= 0 on
    ">=" rows, A^T y >= c) with b.y equal to the value."""

    value: Fraction
    point: tuple[Fraction, ...]
    pivots: int = 0
    duals: tuple[Fraction, ...] = ()


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate
    pivots: int = 0


@dataclass(frozen=True)
class Unbounded:
    point: tuple[Fraction, ...]
    ray: tuple[Fraction, ...]
    pivots: int = 0


class _Counters:
    """Process-wide LP statistics, reported by the CLI."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.solves = 0
        self.max_pivots = 0

    def record(self, pivots: int) -> None:
        with self._lock:
            self.solves += 1
            if pivots > self.max_pivots:
                self.max_pivots = pivots

    def reset(self) -> None:
        with self._lock:
            self.solves = 0
            self.max_pivots = 0

    def snapshot(self) -> tuple[int, int]:
        with self._lock:
            return self.solves, self.max_pivots


counters = _Counters()

# when set to a stream, every solved program is dumped to it
debug_stream = None


class _Tableau:
    """Equality-form simplex tableau with Bland pivoting.

    Rows are updated in place.  A pivot scales the pivot row, collects
    its nonzero entries once, and subtracts from each other row (and
    from the objective row) only at those columns; a zero of the pivot
    row leaves its column unchanged everywhere.
    """

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction]):
        self.rows = rows          # m x N coefficient matrix
        self.rhs = rhs            # length m, kept >= 0
        self.basis: list[int] = []
        self.obj: list[Fraction] = []   # reduced costs: cB.B^-1.A_j - c_j
        self.obj_rhs = _ZERO            # cB.B^-1.b
        self.pivots = 0

    def set_objective(self, cost: list[Fraction]) -> None:
        self.obj = [-c for c in cost]
        self.obj_rhs = _ZERO
        for r, b in enumerate(self.basis):
            if cost[b] != 0:
                self._add_to_obj(r, cost[b])

    def _add_to_obj(self, row: int, factor: Fraction) -> None:
        arow = self.rows[row]
        obj = self.obj
        for j, a in enumerate(arow):
            if a:
                obj[j] += factor * a
        self.obj_rhs += factor * self.rhs[row]

    def pivot(self, row: int, col: int) -> None:
        self.pivots += 1
        prow = self.rows[row]
        pval = prow[col]
        if pval != 1:
            inv = 1 / pval
            for j, a in enumerate(prow):
                if a:
                    prow[j] = a * inv
            self.rhs[row] *= inv
        # only the pivot row's nonzero columns can change anywhere
        nonzero = [(j, p) for j, p in enumerate(prow) if p]
        b = self.rhs[row]
        for r, arow in enumerate(self.rows):
            f = arow[col]
            if f and r != row:
                for j, p in nonzero:
                    arow[j] -= f * p
                self.rhs[r] -= f * b
        obj = self.obj
        f = obj[col]
        if f:
            for j, p in nonzero:
                obj[j] -= f * p
            self.obj_rhs -= f * b
        self.basis[row] = col

    def run(self, eligible: Sequence[bool]) -> int | None:
        """Maximize until optimal (returns None) or unbounded (returns
        the entering column of the unbounded direction)."""
        while True:
            enter = -1
            for j, rc in enumerate(self.obj):
                if eligible[j] and rc < 0:
                    enter = j
                    break
            if enter < 0:
                return None
            leave = -1
            best: Fraction | None = None
            for r, arow in enumerate(self.rows):
                a = arow[enter]
                if a > 0:
                    ratio = self.rhs[r] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[r] < self.basis[leave]
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                return enter
            self.pivot(leave, enter)


@dataclass
class _Transform:
    """Bookkeeping to map the equality-form problem back to the original."""

    col_of_var: list[tuple[int, int]] = field(default_factory=list)  # (pos col, neg col or -1)
    shift: list[Fraction] = field(default_factory=list)
    row_origin: list[tuple[str, int, int]] = field(default_factory=list)  # (kind, index, sign)
    unit: list[int] = field(default_factory=list)  # each row's starting basic column
    art_start: int = 0  # columns from here on are artificial
    width: int = 0


def _build(lp: LinearProgram):
    """Rewrite as: columns >= 0, rows all equalities with rhs >= 0.

    Each row gets a unit column to start basic in: its slack when it is
    "<=" after the rhs is made nonnegative, an artificial otherwise.
    """
    tr = _Transform()
    ncol = 0
    for lo, up in lp.bounds:
        if lo is None:
            tr.col_of_var.append((ncol, ncol + 1))
            tr.shift.append(_ZERO)
            ncol += 2
        else:
            tr.col_of_var.append((ncol, -1))
            tr.shift.append(lo)
            ncol += 1

    raw_rows: list[tuple[list[Fraction], str, Fraction, tuple[str, int, int]]] = []
    for i, c in enumerate(lp.constraints):
        raw_rows.append((list(c.coeffs), c.relation, c.rhs, ("row", i, 1)))
    for j, (lo, up) in enumerate(lp.bounds):
        if up is not None:
            coeffs = [_ZERO] * lp.arity
            coeffs[j] = _ONE
            raw_rows.append((coeffs, "<=", up, ("ub", j, 1)))

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    relations: list[str] = []
    for coeffs, rel, b, origin in raw_rows:
        expanded = [_ZERO] * ncol
        for j, a in enumerate(coeffs):
            if a == 0:
                continue
            pos, neg = tr.col_of_var[j]
            expanded[pos] = a
            if neg >= 0:
                expanded[neg] = -a
            if tr.shift[j]:
                b -= a * tr.shift[j]
        sign = 1
        if b < 0:
            expanded = [-a for a in expanded]
            b = -b
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            sign = -1
        rows.append(expanded)
        rhs.append(b)
        relations.append(rel)
        tr.row_origin.append((origin[0], origin[1], sign))

    # a slack (+1) or surplus (-1) column per inequality, then the
    # artificials of the "=" and ">=" rows
    n_slack = sum(rel != "=" for rel in relations)
    n_art = sum(rel != "<=" for rel in relations)
    slack = ncol
    art = tr.art_start = ncol + n_slack
    tr.width = tr.art_start + n_art
    for r, rel in enumerate(relations):
        row = rows[r]
        row.extend([_ZERO] * (n_slack + n_art))
        if rel != "=":
            row[slack] = _ONE if rel == "<=" else -_ONE
            if rel == "<=":
                tr.unit.append(slack)
            slack += 1
        if rel != "<=":
            row[art] = _ONE
            tr.unit.append(art)
            art += 1
    return tr, rows, rhs


def _point_back(lp: LinearProgram, tr: _Transform, tab: _Tableau) -> tuple[Fraction, ...]:
    values = [_ZERO] * tr.width
    for r, b in enumerate(tab.basis):
        values[b] = tab.rhs[r]
    point = []
    for j in range(lp.arity):
        pos, neg = tr.col_of_var[j]
        x = values[pos] - (values[neg] if neg >= 0 else _ZERO)
        point.append(x + tr.shift[j])
    return tuple(point)


def _ray_back(lp: LinearProgram, tr: _Transform, direction: list[Fraction]) -> tuple[Fraction, ...]:
    ray = []
    for j in range(lp.arity):
        pos, neg = tr.col_of_var[j]
        d = direction[pos] - (direction[neg] if neg >= 0 else _ZERO)
        ray.append(d)
    return tuple(ray)


def _farkas_from_duals(lp: LinearProgram, tr: _Transform,
                       duals: list[Fraction]) -> FarkasCertificate:
    """Orient equality-form duals into canonical >=-row multipliers."""
    # index canonical rows by origin
    slots: dict[tuple[str, int, int], int] = {}
    pos = 0
    for i, c in enumerate(lp.constraints):
        if c.relation in (">=", "="):
            slots[("row", i, +1)] = pos
            pos += 1
        if c.relation in ("<=", "="):
            slots[("row", i, -1)] = pos
            pos += 1
    for j, (lo, up) in enumerate(lp.bounds):
        if lo is not None:
            slots[("lb", j, +1)] = pos
            pos += 1
        if up is not None:
            slots[("ub", j, -1)] = pos
            pos += 1
    mult = [_ZERO] * pos

    def put(kind: str, index: int, orient: int, amount: Fraction) -> None:
        if amount == 0:
            return
        mult[slots[(kind, index, orient)]] += amount

    # each transformed row contributes -y_i * (row as an equality);
    # the canonical direction absorbing it depends on the sign of y_i.
    for (kind, index, sign), y in zip(tr.row_origin, duals):
        y = y * sign
        if y == 0:
            continue
        if kind == "ub":
            put("ub", index, -1, y)  # verified nonnegative by the caller
            continue
        if y > 0:
            put("row", index, -1, y)
        else:
            put("row", index, +1, -y)
    # leftover column excess goes to the lower-bound rows
    for j in range(lp.arity):
        lo, _ = lp.bounds[j]
        if lo is None:
            continue
        w = _ZERO
        for (kind, index, sign), y in zip(tr.row_origin, duals):
            if kind == "row":
                w += y * sign * lp.constraints[index].coeffs[j]
            elif kind == "ub" and index == j:
                w += y * sign
        if w != 0:
            put("lb", j, +1, w)
    return FarkasCertificate(tuple(mult))


def solve(lp: LinearProgram) -> Optimal | Infeasible | Unbounded:
    """Two-phase simplex; the returned certificate always re-verifies."""
    if debug_stream is not None:
        print(format_lp(lp), file=debug_stream)
    tr, rows, rhs = _build(lp)
    ncol, art_start = tr.width, tr.art_start
    tab = _Tableau(rows, rhs)
    tab.basis = list(tr.unit)

    sense = 1 if lp.sense == "max" else -1
    if art_start < ncol:
        # phase 1: maximize -(sum of artificials)
        cost = [_ZERO] * art_start + [-_ONE] * (ncol - art_start)
        tab.set_objective(cost)
        eligible = [True] * ncol
        unb = tab.run(eligible)
        if unb is not None:  # phase-1 objective is bounded above by zero
            raise AssertionError("internal error: unbounded feasibility phase")
        if tab.obj_rhs != 0:
            # a row's dual is the reduced cost of its unit column, less
            # that column's phase-1 cost
            duals = [tab.obj[u] - (_ONE if u >= art_start else _ZERO) for u in tr.unit]
            cert = _farkas_from_duals(lp, tr, duals)
            outcome = Infeasible(cert, tab.pivots)
            if not verify_farkas(lp, cert):
                raise AssertionError("internal error: Farkas certificate failed")
            counters.record(tab.pivots)
            return outcome
        # drive leftover zero-level artificials out of the basis
        for r, b in enumerate(tab.basis):
            if b < art_start:
                continue
            col = next(
                (j for j in range(art_start) if tab.rows[r][j] != 0), None
            )
            if col is not None:
                tab.pivot(r, col)

    # phase 2
    cost = [_ZERO] * ncol
    for j in range(lp.arity):
        pos, neg = tr.col_of_var[j]
        cost[pos] += sense * lp.objective[j]
        if neg >= 0:
            cost[neg] -= sense * lp.objective[j]
    tab.set_objective(cost)
    eligible = [True] * ncol
    for j in range(art_start, ncol):
        eligible[j] = False  # artificials may leave the basis but never enter
    unb = tab.run(eligible)
    counters.record(tab.pivots)
    shift_const = sum(
        (c * s for c, s in zip(lp.objective, tr.shift)), _ZERO
    )
    if unb is not None:
        direction = [_ZERO] * ncol
        direction[unb] = _ONE
        for r, b in enumerate(tab.basis):
            direction[b] = -tab.rows[r][unb]
        point = _point_back(lp, tr, tab)
        ray = _ray_back(lp, tr, direction)
        outcome = Unbounded(point, ray, tab.pivots)
        if not (satisfies(lp, point) and verify_ray(lp, ray)):
            raise AssertionError("internal error: unbounded certificate failed")
        return outcome
    point = _point_back(lp, tr, tab)
    if not satisfies(lp, point):
        raise AssertionError("internal error: optimal point infeasible")
    # obj_rhs is in shifted coordinates; add the constant part back
    value = sense * tab.obj_rhs + shift_const
    # the reduced cost of a row's unit column is that row's dual
    duals = [_ZERO] * len(lp.constraints)
    for (kind, index, sign), u in zip(tr.row_origin, tr.unit):
        if kind == "row":
            duals[index] = sense * sign * tab.obj[u]
    return Optimal(value, point, tab.pivots, tuple(duals))


def format_lp(lp: LinearProgram) -> str:
    """Plain-text dump, used by the CLI's debug flag."""

    def term(j: int, a: Fraction) -> str:
        return f"{a} x{j}"

    lines = [f"{lp.sense} " + " + ".join(term(j, a) for j, a in enumerate(lp.objective))]
    for c in lp.constraints:
        lhs = " + ".join(term(j, a) for j, a in enumerate(c.coeffs) if a != 0) or "0"
        lines.append(f"  {lhs} {c.relation} {c.rhs}")
    for j, (lo, up) in enumerate(lp.bounds):
        lo_s = str(lo) if lo is not None else "-inf"
        up_s = str(up) if up is not None else "+inf"
        lines.append(f"  {lo_s} <= x{j} <= {up_s}")
    return "\n".join(lines)
