"""Exact rational linear programming, in the one form previsio builds.

Every program the library solves maximises c.x over x >= 0 under rows
a.x <= b with b >= 0: a stake program of a check, or an extension
bound.  The origin is feasible, so ``solve`` starts from the basis of
the rows' slacks and runs the simplex with Bland's anti-cycling rule
from there.  The tableau is condensed (Tucker's form): it keeps only
the columns of the nonbasic variables, each labelled by its variable.
It is fraction-free: each row is a list of Python ints, its rhs last,
over one positive denominator, and the objective row is kept the same
way.  A pivot cross-multiplies the rows it changes, so every sign test
and ratio comparison is made on ints, and divides a changed row
through by its gcd only once the row's denominator is wider than 62
bits: the small programs of a check never need it, and the path and
the outcome are the same however far a row is reduced (see `solve`).
An :class:`Optimal` holds ints too, and a `fractions.Fraction`
is made only when a result is read out.

The optimal point is checked against every row before it is returned.
Its row duals are not re-verified here; a caller that relies on them
checks what it uses.  An unbounded program raises :class:`Unbounded`,
an `AssertionError`: a stake program bounds its objective, and an
extension bound does so over a W-coherent base, so only the extensions
read it, as a sign that their base is not coherent.

Each :class:`Constraint` is stored once, in ints: one int coefficient
per column and an int rhs, over one positive scale, divided through by
their gcd so that a row has one form however it was built.  Callers
build rows from the int gains they already hold; only `format_lp`
reads a row back as `Fraction`s.  The tableau starts from a copy of
those ints, and `satisfies` zips each row with the point.  Every accept
or reject is then a sign test on ints, exactly as strict as the same
test on fractions.  Where a `Fraction` does turn into ints, in
`over_one_denominator` and the objective of `solve`, each value is
read once, by `as_integer_ratio`.

A :class:`Constraint`, a :class:`LinearProgram` and an :class:`Optimal`
are immutable tuple records (`typing.NamedTuple`): a check builds
several of each, and a tuple is made in one `tuple.__new__`, where a
frozen dataclass sets each field through `object.__setattr__`.  The
first two validate and normalise in their `__new__`; equality and
hashing are the tuple's.

``solve`` is pure: it keeps no count and writes nothing.  The account
of a call is a :class:`Trace`, passed down to whatever solves for it:
``Trace.solve`` counts each program and its pivots, and dumps it when
the trace has a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence, TextIO

from .errors import MalformedProgram
from .model import RationalLike, as_rational

_ZERO = Fraction(0)


class _Row(NamedTuple):
    coeffs: tuple[int, ...]
    scale: int
    int_rhs: int


class Constraint(_Row):
    """The row sum_j (coeffs[j] / scale) x_j <= int_rhs / scale, with one
    int per column: `scale` is positive and `int_rhs` is not negative.
    The row is divided through by the gcd of its ints and its scale when
    it is made, so two rows are equal, and hash alike, exactly when they
    are the same row."""

    __slots__ = ()

    def __new__(cls, coeffs: Sequence[int], scale: int, int_rhs: int) -> Constraint:
        if scale <= 0:
            raise MalformedProgram("a row's scale must be positive")
        if int_rhs < 0:
            raise MalformedProgram("a row's rhs must not be negative")
        g = math.gcd(*coeffs, scale, int_rhs)
        if g > 1:
            return tuple.__new__(cls, (tuple([a // g for a in coeffs]), scale // g, int_rhs // g))
        return tuple.__new__(cls, (tuple(coeffs), scale, int_rhs))

    @classmethod
    def _make(cls, iterable) -> Constraint:
        # `_replace` builds through `_make`: a row it makes is normalised too
        return cls(*iterable)

    @property
    def arity(self) -> int:
        return len(self.coeffs)


class _Program(NamedTuple):
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]


class LinearProgram(_Program):
    """max c.x subject to the rows, over x >= 0.  An all-zero objective
    is optimal at the origin."""

    __slots__ = ()

    def __new__(
        cls, objective: Sequence[RationalLike], constraints: Sequence[Constraint] = ()
    ) -> LinearProgram:
        objective = tuple(map(as_rational, objective))
        n = len(objective)
        if n == 0:
            raise MalformedProgram("a program needs at least one variable")
        for c in constraints:
            if c.arity != n:
                raise MalformedProgram("constraint arity differs from objective")
        return tuple.__new__(cls, (objective, constraints))

    @classmethod
    def _make(cls, iterable) -> LinearProgram:
        return cls(*iterable)

    @property
    def arity(self) -> int:
        return len(self.objective)


def over_one_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """`values` as ints over their least common denominator, and that
    denominator.  Each value is read once, by `as_integer_ratio`."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def int_terms(
    values: Sequence[Fraction], less: Fraction = _ZERO
) -> tuple[list[tuple[int, int]], int]:
    """Each nonzero values[j] - less as a pair (j, int) over one positive
    int, the lcm of every denominator: the subtraction is made on the
    ints.  `envelopes` scales each halfspace to ints with it."""
    (base, *ints), d = over_one_denominator([less, *values])
    return [(j, a - base) for j, a in enumerate(ints) if a != base], d


def satisfies(lp: LinearProgram, xs: Sequence[int], den: int) -> bool:
    """The point xs / den, for an int den > 0, is nonnegative and meets
    every row; both sides of a row are taken times its scale and den."""
    return len(xs) == lp.arity and all(x >= 0 for x in xs) and all(
        sum(map(mul, c.coeffs, xs)) <= c.int_rhs * den for c in lp.constraints
    )


class Unbounded(AssertionError):
    """The program's objective has no upper bound on its rows."""


class Optimal(NamedTuple):
    """An optimal point xs / x_den and its value.  ys / y_den holds one
    multiplier per row; they solve the dual (y >= 0, A^T y >= c) with
    b.y equal to the value.  `point` and `duals` read them out."""

    value: Fraction
    xs: tuple[int, ...]
    x_den: int
    ys: tuple[int, ...]
    y_den: int
    pivots: int

    @property
    def point(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.x_den) for x in self.xs)

    @property
    def duals(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(y, self.y_den) for y in self.ys)


# a changed row is divided through by its gcd only once its denominator
# is wider than this: below it, the gcd pass costs more than it saves
_LAZY_BITS = 62


def solve(lp: LinearProgram) -> Optimal:
    """Bland's simplex from the slack basis.  Pure: it neither counts
    nor prints (see `Trace`).

    The variables are labelled 0..n-1, then n + i for the slack of row
    i.  The tableau keeps a column for each nonbasic variable only, with
    its label in ``labels``.  Row r is a list of ints, its rhs last,
    that stands for ``rows[r][j] / den[r]``, with ``basis[r]`` the label
    of its basic variable.  The objective row (reduced costs
    cB.B^-1.A_j - c_j, then cB.B^-1.b) is the last row, ``rows[m]``,
    kept the same way.  No denominator is negative, so every sign test
    and ratio comparison is made on ints.  A pivot is fraction-free, in
    the style of Edmonds (1967) and Bareiss (1968): the pivot row keeps
    its ints and takes the pivot entry q as its denominator, and every
    other row it changes is cross-multiplied with it, then divided
    through by the gcd of its ints and its denominator once that
    denominator is wider than 62 bits.  The leaving variable takes the
    entering column: d_r, the pivot row's old denominator, in the pivot
    row, and -f·d_r in a row whose entry was f.  Bland's rule enters the
    smallest label, so the path is the full tableau's, pivot for pivot.

    A row's positive denominator cancels in its sign tests and in the
    ratio rhs_r / a_r that Bland's rule cross-multiplies, so how far a
    row is reduced moves no pivot.  Nor does it move the outcome: the
    point is read out over the lcm of its values' least denominators,
    and the objective row is put in lowest terms after the last pivot.
    A row's dual is its slack's objective entry while the slack is
    nonbasic, else 0."""
    n, m = lp.arity, len(lp.constraints)
    rows = [[*c.coeffs, c.int_rhs] for c in lp.constraints]
    den = [c.scale for c in lp.constraints]
    labels = list(range(n))
    basis = list(range(n, n + m))
    # the slacks cost nothing, so the objective row starts as -c
    ratios = [c.as_integer_ratio() for c in lp.objective]
    obj_den = math.lcm(*[q for _, q in ratios])
    obj = [-p * (obj_den // q) for p, q in ratios]
    obj.append(0)
    rows.append(obj)
    den.append(obj_den)
    pivots = 0
    while True:
        entering = [j for j in range(n) if obj[j] < 0]
        if not entering:
            break
        enter = min(entering, key=labels.__getitem__)
        # rhs_r / a_r against rhs_best / a_best: the row denominators
        # cancel, and cross-multiplying keeps the comparison in ints
        leave = -1
        best_rhs = best_a = 0
        for r in range(m):
            arow = rows[r]
            a = arow[enter]
            if a > 0:
                lhs, rhs = arow[-1] * best_a, best_rhs * a
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, best_rhs, best_a = r, arow[-1], a
        if leave < 0:
            raise Unbounded("internal error: an unbounded program")
        pivots += 1
        prow = rows[leave]
        q = prow[enter]
        prow[enter], den[leave] = den[leave], q
        # row/d less (f/d)·(prow/q) clears the pivot column of row: it
        # is (row·q' - f'·prow) / (d·q'), with f' and q' over gcd(f, q)
        for r, arow in enumerate(rows):
            f = arow[enter]
            if f and r != leave:
                arow[enter] = 0
                g = math.gcd(f, q)
                qg = q // g
                if g > 1:
                    f //= g
                new = [a * qg - f * p for a, p in zip(arow, prow)]
                d = den[r] * qg
                if d.bit_length() > _LAZY_BITS:
                    g = reduce(math.gcd, new, d)
                    if g > 1:
                        new = [a // g for a in new]
                        d //= g
                rows[r], den[r] = new, d
        obj = rows[m]
        labels[enter], basis[leave] = basis[leave], labels[enter]
    obj_den = den[m]
    g = reduce(math.gcd, obj, obj_den)
    if g > 1:
        obj = [a // g for a in obj]
        obj_den //= g
    # the point over the lcm of its values' least denominators
    basic = [(b, rows[r][-1], den[r]) for r, b in enumerate(basis) if b < n and rows[r][-1]]
    x_den = reduce(math.lcm, [d // math.gcd(v, d) for _, v, d in basic], 1)
    xs = [0] * n
    for b, v, d in basic:
        xs[b] = v * x_den // d
    # looked up in the module at each call, so that a wrapper bound to
    # `lp.satisfies` sees every check
    if not satisfies(lp, xs, x_den):
        raise AssertionError("internal error: optimal point infeasible")
    slacks = {label - n: obj[j] for j, label in enumerate(labels) if label >= n}
    ys = tuple(slacks.get(i, 0) for i in range(m))
    return Optimal(Fraction(obj[-1], obj_den), tuple(xs), x_den, ys, obj_den, pivots)


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

    def solve(self, program: LinearProgram) -> Optimal:
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

    lines = ["max " + " + ".join(f"{a} x{j}" for j, a in enumerate(lp.objective))]
    for c in lp.constraints:
        lhs = " + ".join(f"{Fraction(a, c.scale)} x{j}" for j, a in enumerate(c.coeffs) if a) or "0"
        lines.append(f"  {lhs} <= {Fraction(c.int_rhs, c.scale)}")
    lines += [f"  0 <= x{j} <= +inf" for j in range(lp.arity)]
    return "\n".join(lines)
