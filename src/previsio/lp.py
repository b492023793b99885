"""Exact rational linear programming.

A two-phase simplex with Bland's anti-cycling rule on a fraction-free
tableau: each row is a list of Python ints, its rhs last, over one
positive denominator, and the objective row is kept the same way.  A
pivot cross-multiplies the rows it changes and divides each through by
its gcd, so every sign test and ratio comparison is made on ints, and a
`fractions.Fraction` is made only when a result is read out.  A row that
reads "<=" once its rhs is made nonnegative starts basic on its slack;
only the other rows get an artificial, and phase 1 is skipped when
there are none.

Outcomes are self-certifying: an :class:`Optimal` point satisfies every
constraint exactly, an :class:`Infeasible` outcome carries a Farkas
certificate (nonnegative multipliers over the >=-canonical system that
combine to ``0 >= positive``), and an :class:`Unbounded` outcome carries
a feasible point plus an improving ray.  ``solve`` re-verifies each
certificate before returning it.  The row duals of an optimal outcome
are not re-verified here; a caller that relies on them checks what it
uses.

Each :class:`Constraint` is stored once, in ints: the (column, int)
pairs of its nonzero coefficients and an int rhs, over one positive
scale, divided through by their gcd so that a row has one form however
it was built.  Its `coeffs` and `rhs` are `Fraction` views, computed on
read, and `constraint` builds a row from rationals.  The tableau starts
from those ints, and the checks run on them too: a point, ray or set of
Farkas multipliers is put over one common denominator, and only the
nonzero terms of each row are summed.  Every accept or reject is then a
sign test on ints, exactly as strict as the same test on fractions.

``solve`` is pure: it keeps no count and writes nothing.  The account
of a call is a :class:`Trace`, passed down to whatever solves for it:
``Trace.solve`` counts each program and its pivots, and dumps it when
the trace has a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from fractions import Fraction
from typing import Sequence, TextIO

from .errors import MalformedProgram
from .model import RationalLike, as_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)

Bound = tuple[Fraction | None, Fraction | None]


@dataclass(frozen=True)
class Constraint:
    """The row sum_j (a_j / scale) x_j `relation` int_rhs / scale over
    `arity` columns: `terms` holds the (column, a_j) pairs of its nonzero
    coefficients, by column, and `scale` is positive.  The row is divided
    through by the gcd of its ints and its scale when it is made, so two
    rows are equal, and hash alike, exactly when they are the same row."""

    terms: tuple[tuple[int, int], ...]
    scale: int
    int_rhs: int
    relation: str  # "<=", "=", ">="
    arity: int

    def __post_init__(self) -> None:
        if self.relation not in ("<=", "=", ">="):
            raise MalformedProgram(f"unknown relation {self.relation!r}")
        if self.scale <= 0:
            raise MalformedProgram("a row's scale must be positive")
        g, last = math.gcd(self.scale, self.int_rhs), -1
        for j, a in self.terms:
            if not (a and last < j < self.arity):
                raise MalformedProgram("terms need nonzero ints by increasing column, below the arity")
            g, last = math.gcd(g, a), j
        if g > 1:
            object.__setattr__(self, "terms", tuple((j, a // g) for j, a in self.terms))
            object.__setattr__(self, "scale", self.scale // g)
            object.__setattr__(self, "int_rhs", self.int_rhs // g)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        row = [_ZERO] * self.arity
        for j, a in self.terms:
            row[j] = Fraction(a, self.scale)
        return tuple(row)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.int_rhs, self.scale)


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
            if c.arity != n:
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


def over_one_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """`values` as ints over their least common denominator, and that
    denominator."""
    d = reduce(math.lcm, [v.denominator for v in values], 1)
    return [v.numerator * (d // v.denominator) for v in values], d


def int_terms(
    values: Sequence[Fraction], less: Fraction = _ZERO
) -> tuple[list[tuple[int, int]], int]:
    """Each nonzero values[j] - less as a pair (j, int) over one positive
    int, the lcm of every denominator: the subtraction is made on the
    ints.  This is the one scaling of a row to ints."""
    (base, *ints), d = over_one_denominator([less, *values])
    return [(j, a - base) for j, a in enumerate(ints) if a != base], d


def constraint(coeffs: Sequence[RationalLike], relation: str, rhs: RationalLike) -> Constraint:
    """The row coeffs.x `relation` rhs, from rationals."""
    n = len(coeffs)
    terms, scale = int_terms([*map(as_rational, coeffs), as_rational(rhs)])
    int_rhs = terms.pop()[1] if terms and terms[-1][0] == n else 0
    return Constraint(tuple(terms), scale, int_rhs, relation, n)


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


def _canonical_rows(lp: LinearProgram):
    """The canonical rows of `FarkasCertificate` in order, each as
    ((kind, index, sign), terms, scale, rhs) in ints: the row is
    sign * (terms, rhs) / scale."""
    for i, c in enumerate(lp.constraints):
        if c.relation != "<=":
            yield ("row", i, 1), c.terms, c.scale, c.int_rhs
        if c.relation != ">=":
            yield ("row", i, -1), c.terms, c.scale, c.int_rhs
    for j, (lo, up) in enumerate(lp.bounds):
        if lo is not None:
            yield ("lb", j, 1), ((j, lo.denominator),), lo.denominator, lo.numerator
        if up is not None:
            yield ("ub", j, -1), ((j, up.denominator),), up.denominator, up.numerator


def verify_farkas(lp: LinearProgram, cert: FarkasCertificate) -> bool:
    rows = list(_canonical_rows(lp))
    if len(cert.multipliers) != len(rows):
        return False
    if any(m < 0 for m in cert.multipliers):
        return False
    used = [(m, row) for m, row in zip(cert.multipliers, rows) if m]
    # m times a row is m.numerator * sign * (terms, rhs) / (m.denominator *
    # scale); the sum is taken over the lcm of those denominators
    d = reduce(math.lcm, [m.denominator * row[2] for m, row in used], 1)
    combined = [0] * lp.arity
    rhs = 0
    for m, ((_, _, sign), terms, scale, b) in used:
        w = sign * m.numerator * (d // (m.denominator * scale))
        for j, a in terms:
            combined[j] += w * a
        rhs += w * b
    return not any(combined) and rhs > 0


def _holds(lp: LinearProgram, xs: list[int], d: int) -> bool:
    """Every row and bound holds at the point xs / d or, when d = 0, on
    the direction xs of the recession cone.  Both sides of a row are
    taken times its scale and d."""
    for c in lp.constraints:
        lhs = sum(a * xs[j] for j, a in c.terms)
        rhs = c.int_rhs * d
        if (c.relation != ">=" and lhs > rhs) or (c.relation != "<=" and lhs < rhs):
            return False
    return all(
        (lo is None or x * lo.denominator >= lo.numerator * d)
        and (up is None or x * up.denominator <= up.numerator * d)
        for x, (lo, up) in zip(xs, lp.bounds)
    )


def satisfies(lp: LinearProgram, point: Sequence[Fraction]) -> bool:
    return len(point) == lp.arity and _holds(lp, *over_one_denominator(point))


def verify_ray(lp: LinearProgram, ray: Sequence[Fraction]) -> bool:
    """A recession direction that strictly improves the objective."""
    if len(ray) != lp.arity or not any(ray):
        return False
    ds, _ = over_one_denominator(ray)
    gain = sum(c * x for c, x in zip(lp.objective, ds) if x)
    return _holds(lp, ds, 0) and (gain > 0 if lp.sense == "max" else gain < 0)


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


class _Tableau:
    """Equality-form simplex tableau on integer rows, with Bland pivoting.

    Row r is a list of Python ints, its rhs last, over one positive int
    denominator: it stands for ``rows[r][j] / den[r]``, and its basic
    column holds ``den[r]``.  The objective row (reduced costs
    cB.B^-1.A_j - c_j, then cB.B^-1.b) is kept the same way in ``obj``
    over ``obj_den``.  No denominator is negative, so every sign test and
    ratio comparison is made on ints.  A pivot is fraction-free, in the
    style of Edmonds (1967) and Bareiss (1968): the pivot row keeps its
    ints and takes the pivot entry as its denominator, and every other
    row it changes is divided through by the gcd of its ints and its
    denominator.  Fractions are made only when a result is read out.
    """

    def __init__(self, rows: list[list[int]], den: list[int], basis: list[int]):
        self.rows = rows
        self.den = den
        self.basis = basis
        self.obj: list[int] = []
        self.obj_den = 1
        self.pivots = 0

    def set_objective(self, cost: Sequence[Fraction | int]) -> None:
        scale = reduce(math.lcm, [c.denominator for c in cost])
        self.obj = [-c.numerator * (scale // c.denominator) for c in cost] + [0]
        self.obj_den = scale
        for r, b in enumerate(self.basis):
            f = self.obj[b]
            if f:
                self.obj, self.obj_den = _eliminate(
                    self.obj, self.obj_den, f, self.rows[r], self.den[r]
                )

    def pivot(self, row: int, col: int) -> None:
        self.pivots += 1
        prow = self.rows[row]
        q = prow[col]
        if q < 0:  # only when a zero-level artificial is driven out
            prow = self.rows[row] = [-a for a in prow]
            q = -q
        self.den[row] = q
        for r, arow in enumerate(self.rows):
            f = arow[col]
            if f and r != row:
                self.rows[r], self.den[r] = _eliminate(arow, self.den[r], f, prow, q)
        f = self.obj[col]
        if f:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, f, prow, q)
        self.basis[row] = col

    def run(self, eligible: Sequence[bool]) -> int | None:
        """Maximize until optimal (returns None) or unbounded (returns
        the entering column of the unbounded direction)."""
        while True:
            enter = -1
            for j, (ok, rc) in enumerate(zip(eligible, self.obj)):
                if ok and rc < 0:
                    enter = j
                    break
            if enter < 0:
                return None
            # rhs_r / a_r against rhs_best / a_best: the row denominators
            # cancel, and cross-multiplying keeps the comparison in ints
            leave = -1
            best_rhs = best_a = 0
            for r, arow in enumerate(self.rows):
                a = arow[enter]
                if a > 0:
                    lhs, rhs = arow[-1] * best_a, best_rhs * a
                    if leave < 0 or lhs < rhs or (
                        lhs == rhs and self.basis[r] < self.basis[leave]
                    ):
                        leave, best_rhs, best_a = r, arow[-1], a
            if leave < 0:
                return enter
            self.pivot(leave, enter)


def _eliminate(row: list[int], d: int, f: int, prow: list[int], q: int) -> tuple[list[int], int]:
    """row/d less (f/d)·(prow/q), which clears the pivot column of row, as
    (row·q - f·prow) / (d·q) divided through by its gcd."""
    g = math.gcd(f, q)
    if g > 1:
        f //= g
        q //= g
    new = [a * q - f * p for a, p in zip(row, prow)]
    d *= q
    # not gcd(d, *new): a star-args tuple of each row length would be
    # kept in CPython's tuple free lists, which shows in peak memory
    g = reduce(math.gcd, new, d)
    if g > 1:
        new = [a // g for a in new]
        d //= g
    return new, d


@dataclass
class _Transform:
    """Bookkeeping to map the equality-form problem back to the original."""

    col_of_var: list[tuple[int, int]] = field(default_factory=list)  # (pos col, neg col or -1)
    shift: dict[int, Fraction] = field(default_factory=dict)  # variable -> its nonzero lower bound
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
    for j, (lo, up) in enumerate(lp.bounds):
        if lo is None:
            tr.col_of_var.append((ncol, ncol + 1))
            ncol += 2
        else:
            tr.col_of_var.append((ncol, -1))
            if lo:
                tr.shift[j] = lo
            ncol += 1

    # (terms, scale, rhs, relation, origin) of every row, in the ints of
    # `Constraint`; the scale becomes the row's denominator
    int_rows = [
        (c.terms, c.scale, c.int_rhs, c.relation, ("row", i))
        for i, c in enumerate(lp.constraints)
    ]
    int_rows += [
        (((j, up.denominator),), up.denominator, up.numerator, "<=", ("ub", j))
        for j, (lo, up) in enumerate(lp.bounds) if up is not None
    ]

    # each row with its rhs made nonnegative: (terms, factor, denominator,
    # rhs, relation, origin), the factor multiplying every term
    made = []
    n_slack = n_art = 0
    for terms, scale, b, rel, (kind, index) in int_rows:
        # x_j = y_j + shift_j moves terms.shift to the rhs, and a fraction
        # left there multiplies the whole row by its denominator
        q = 1
        moved = sum(a * tr.shift[j] for j, a in terms if j in tr.shift) if tr.shift else 0
        if moved:
            b -= moved
            q, b = b.denominator, b.numerator
        sign = 1
        if b < 0:
            b = -b
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            sign = -1
        made.append((terms, sign * q, scale * q, b, rel, (kind, index, sign)))
        n_slack += rel != "="
        n_art += rel != "<="

    # the columns of the variables, a slack (+1) or surplus (-1) column
    # per inequality, then the artificials of the "=" and ">=" rows, then
    # the rhs: each row is allocated once, at that width
    slack = ncol
    art = tr.art_start = ncol + n_slack
    tr.width = art + n_art
    rows: list[list[int]] = []
    den: list[int] = []
    for terms, f, d, b, rel, origin in made:
        row = [0] * (tr.width + 1)
        for j, a in terms:
            v = f * a
            pos, neg = tr.col_of_var[j]
            row[pos] = v
            if neg >= 0:
                row[neg] = -v
        row[-1] = b
        if rel != "=":
            row[slack] = d if rel == "<=" else -d
            if rel == "<=":
                tr.unit.append(slack)
            slack += 1
        if rel != "<=":
            row[art] = d
            tr.unit.append(art)
            art += 1
        rows.append(row)
        den.append(d)
        tr.row_origin.append(origin)
    return tr, rows, den


def _point_back(lp: LinearProgram, tr: _Transform, tab: _Tableau) -> tuple[Fraction, ...]:
    values = [_ZERO] * tr.width
    for r, b in enumerate(tab.basis):
        if tab.rows[r][-1]:
            values[b] = Fraction(tab.rows[r][-1], tab.den[r])
    point = []
    for pos, neg in tr.col_of_var:
        x = values[pos]
        if neg >= 0 and values[neg]:
            x -= values[neg]
        point.append(x)
    for j, shift in tr.shift.items():
        point[j] += shift
    return tuple(point)


def _farkas_from_duals(lp: LinearProgram, tr: _Transform,
                       duals: list[Fraction]) -> FarkasCertificate:
    """Orient equality-form duals into canonical >=-row multipliers."""
    slots = {origin: pos for pos, (origin, *_) in enumerate(_canonical_rows(lp))}
    mult = [_ZERO] * len(slots)
    excess = [_ZERO] * lp.arity  # left over per column, for the lower-bound rows
    # each transformed row contributes -y_i * (row as an equality);
    # the canonical direction absorbing it depends on the sign of y_i.
    for (kind, index, sign), y in zip(tr.row_origin, duals):
        y = y * sign
        if y == 0:
            continue
        if kind == "ub":
            mult[slots["ub", index, -1]] += y  # verified nonnegative by the caller
            excess[index] += y
            continue
        mult[slots["row", index, -1 if y > 0 else 1]] += abs(y)
        c = lp.constraints[index]
        for j, a in c.terms:
            excess[j] += y * a / c.scale
    for j, w in enumerate(excess):
        if w and lp.bounds[j][0] is not None:
            mult[slots["lb", j, 1]] += w
    return FarkasCertificate(tuple(mult))


def solve(lp: LinearProgram) -> Optimal | Infeasible | Unbounded:
    """Two-phase simplex; the returned certificate always re-verifies.
    Pure: it neither counts nor prints (see `Trace`)."""
    tr, rows, den = _build(lp)
    ncol, art_start = tr.width, tr.art_start
    tab = _Tableau(rows, den, list(tr.unit))

    sense = 1 if lp.sense == "max" else -1
    if art_start < ncol:
        # phase 1: maximize -(sum of artificials)
        tab.set_objective([0] * art_start + [-1] * (ncol - art_start))
        unb = tab.run([True] * ncol)
        if unb is not None:  # phase-1 objective is bounded above by zero
            raise AssertionError("internal error: unbounded feasibility phase")
        if tab.obj[-1] != 0:
            # a row's dual is the reduced cost of its unit column, less
            # that column's phase-1 cost
            d = tab.obj_den
            duals = [Fraction(tab.obj[u] - (d if u >= art_start else 0), d) for u in tr.unit]
            cert = _farkas_from_duals(lp, tr, duals)
            outcome = Infeasible(cert, tab.pivots)
            if not verify_farkas(lp, cert):
                raise AssertionError("internal error: Farkas certificate failed")
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
    for c, (pos, neg) in zip(lp.objective, tr.col_of_var):
        if c:
            cost[pos] = c if sense > 0 else -c
            if neg >= 0:
                cost[neg] = -cost[pos]
    tab.set_objective(cost)
    # artificials may leave the basis but never enter
    unb = tab.run([j < art_start for j in range(ncol)])
    shift_const = sum((lp.objective[j] * s for j, s in tr.shift.items()), _ZERO)
    if unb is not None:
        direction = [_ZERO] * ncol
        direction[unb] = _ONE
        for r, b in enumerate(tab.basis):
            direction[b] = Fraction(-tab.rows[r][unb], tab.den[r])
        point = _point_back(lp, tr, tab)
        ray = tuple(
            direction[pos] - (direction[neg] if neg >= 0 else _ZERO)
            for pos, neg in tr.col_of_var
        )
        outcome = Unbounded(point, ray, tab.pivots)
        if not (satisfies(lp, point) and verify_ray(lp, ray)):
            raise AssertionError("internal error: unbounded certificate failed")
        return outcome
    point = _point_back(lp, tr, tab)
    if not satisfies(lp, point):
        raise AssertionError("internal error: optimal point infeasible")
    # the objective row's rhs is in shifted coordinates; add the constant part back
    value = sense * Fraction(tab.obj[-1], tab.obj_den) + shift_const
    # the reduced cost of a row's unit column is that row's dual
    duals = [_ZERO] * len(lp.constraints)
    for (kind, index, sign), u in zip(tr.row_origin, tr.unit):
        if kind == "row":
            duals[index] = Fraction(sense * sign * tab.obj[u], tab.obj_den)
    return Optimal(value, point, tab.pivots, tuple(duals))


@dataclass
class Trace:
    """The account of the programs solved for one call: how many, the
    most pivots any took, and, when `dump` is a text stream, each
    program as `format_lp` writes it, before it is solved.  Library code
    solves every program through a trace; callers that pass one trace
    down share one account.  Its counts take no lock, so each thread
    keeps its own."""

    solves: int = 0
    max_pivots: int = 0
    dump: TextIO | None = None

    def solve(self, program: LinearProgram) -> Optimal | Infeasible | Unbounded:
        if self.dump is not None:
            print(format_lp(program), file=self.dump)
        # looked up in the module at each call, so that a wrapper bound
        # to `lp.solve` sees every program
        outcome = solve(program)
        self.solves += 1
        self.max_pivots = max(self.max_pivots, outcome.pivots)
        return outcome


def format_lp(lp: LinearProgram) -> str:
    """Plain-text dump, written by a `Trace` that has a `dump` stream."""

    lines = [f"{lp.sense} " + " + ".join(f"{a} x{j}" for j, a in enumerate(lp.objective))]
    for c in lp.constraints:
        lhs = " + ".join(f"{a} x{j}" for j, a in enumerate(c.coeffs) if a != 0) or "0"
        lines.append(f"  {lhs} {c.relation} {c.rhs}")
    for j, (lo, up) in enumerate(lp.bounds):
        lo_s = str(lo) if lo is not None else "-inf"
        up_s = str(up) if up is not None else "+inf"
        lines.append(f"  {lo_s} <= x{j} <= {up_s}")
    return "\n".join(lines)
