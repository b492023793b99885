import copy
import io
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_checks as ref
from fraction_checks import constraint
from previsio import lp
from previsio.errors import MalformedProgram
from previsio.lp import (
    Constraint,
    LinearProgram,
    Optimal,
    Trace,
    format_lp,
    satisfies,
    solve,
)

F = Fraction
_UNBOUNDED = "internal error: an unbounded program"


def _beale() -> LinearProgram:
    # classic cycling-prone instance; Bland's rule must terminate
    return LinearProgram(
        objective=(F(3, 4), F(-150), F(1, 50), F(-6)),
        constraints=(
            constraint([F(1, 4), -60, F(-1, 25), 9], 0),
            constraint([F(1, 2), -90, F(-1, 50), 3], 0),
            constraint([0, 0, 1, 0], 1),
        ),
    )


def test_simple_optimum():
    prog = LinearProgram(objective=(F(1),), constraints=(constraint([1], 3),))
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert out.value == 3
    assert out.point == (F(3),)
    assert out.duals == (F(1),)


def test_simple_unbounded_raises():
    # every program the library builds bounds its objective
    with pytest.raises(AssertionError, match=_UNBOUNDED):
        solve(LinearProgram(objective=(F(1),)))
    with pytest.raises(AssertionError, match=_UNBOUNDED):
        solve(LinearProgram(objective=(F(1), F(0)), constraints=(constraint([-1, 1], 2),)))


def test_an_unbounded_program_raises_unbounded_an_assertion_error():
    # the extensions read it as a sign that their base is not coherent;
    # anywhere else it stays an internal error
    assert issubclass(lp.Unbounded, AssertionError)
    with pytest.raises(lp.Unbounded, match=_UNBOUNDED):
        solve(LinearProgram(objective=(F(1), F(0)), constraints=(constraint([-1, 1], 2),)))


def test_degenerate_program_terminates():
    out = solve(_beale())
    assert isinstance(out, Optimal)
    assert out.value == F(1, 20)


def test_zero_objective_is_feasibility_test():
    # the origin is feasible, so a zero objective is optimal there
    prog = LinearProgram(objective=(F(0), F(0)), constraints=(constraint([1, 1], 1),))
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert (out.value, out.point, out.pivots) == (0, (F(0), F(0)), 0)


def test_malformed_arity_rejected():
    with pytest.raises(MalformedProgram):
        LinearProgram(objective=(F(1),), constraints=(constraint([1, 2], 3),))
    with pytest.raises(MalformedProgram):
        LinearProgram(objective=())
    with pytest.raises(MalformedProgram):
        Constraint((1,), 0, 0)
    with pytest.raises(MalformedProgram):
        Constraint((1,), -2, 0)
    # a row of three columns in a program of two
    with pytest.raises(MalformedProgram):
        LinearProgram(objective=(F(1), F(1)), constraints=(Constraint((1, 0, 2), 1, 1),))


def test_a_row_with_a_negative_rhs_is_refused():
    # the origin must be feasible, so no row may have a negative rhs
    with pytest.raises(MalformedProgram):
        Constraint((1,), 1, -1)
    with pytest.raises(MalformedProgram):
        constraint([1], F(-1, 3))


def test_constraint_normalises_its_row():
    # a row built from rationals, in tests, is the row of ints over the
    # lcm of their denominators, divided through by their gcd
    row = constraint([1, "1/2"], "3")
    assert (row.coeffs, row.scale, row.int_rhs, row.arity) == ((2, 1), 2, 6, 2)
    assert ref.coeffs(row) == (F(1), F(1, 2)) and ref.rhs(row) == F(3)
    assert all(type(c) is F for c in (*ref.coeffs(row), ref.rhs(row)))
    same = Constraint((6, 1), 3, 0)
    assert (same.coeffs, same.scale) == ((6, 1), 3)
    assert Constraint((12, 2), 6, 0) == same
    assert Constraint([12, 2], 6, 0) == same and hash(Constraint([12, 2], 6, 0)) == hash(same)
    assert ref.coeffs(same) == (F(2), F(1, 3))
    # an all-zero row is 0 <= rhs over a scale of 1
    assert Constraint((0, 0), 4, 8) == Constraint((0, 0), 1, 2)
    with pytest.raises(TypeError):
        constraint([1.5], 0)


@pytest.mark.parametrize(
    "terms,scale,int_rhs,coeffs,rhs",
    [
        ((4, 0, -6), 2, 8, [2, 0, -3], 4),
        ((0, 3, 0), 9, 0, [0, F(1, 3), 0], 0),
        ((10, 5, 15), 20, 25, [F(1, 2), F(1, 4), F(3, 4)], F(5, 4)),
        ((0, 0, 0), 7, 14, [0, 0, 0], 2),
    ],
)
def test_a_row_built_from_ints_has_the_one_form(terms, scale, int_rhs, coeffs, rhs):
    # the terms, one int per column, share a factor above 1 with their
    # scale; once divided through, the row is the one `constraint`
    # makes from its fractions
    row = Constraint(terms, scale, int_rhs)
    same = constraint(coeffs, rhs)
    assert row == same and hash(row) == hash(same)
    assert (row.coeffs, row.scale, row.int_rhs) == (same.coeffs, same.scale, same.int_rhs)
    assert ref.coeffs(row) == tuple(map(F, coeffs)) and ref.rhs(row) == F(rhs)
    assert constraint(ref.coeffs(row), ref.rhs(row)) == row
    assert Constraint((*terms, 0), scale, int_rhs) != constraint(coeffs, rhs)
    assert Constraint(terms, scale, int_rhs + scale) != constraint(coeffs, rhs)


def _random_program(rng: random.Random) -> LinearProgram:
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    rows = tuple(
        constraint([rng.randint(-4, 4) for _ in range(n)], rng.randint(0, 6))
        for _ in range(m)
    )
    objective = tuple(F(rng.randint(-5, 5)) for _ in range(n))
    return LinearProgram(objective=objective, constraints=rows)


def _assert_solves_the_dual(prog: LinearProgram, out: Optimal) -> None:
    # the dual of max c.x s.t. Ax <= b, x >= 0 is min b.y s.t.
    # A^T y >= c, y >= 0; the duals must be feasible there and reach the
    # primal value, which proves both optimal
    rows = prog.constraints
    assert len(out.duals) == len(rows)
    assert all(y >= 0 for y in out.duals)
    for j, c in enumerate(prog.objective):
        assert sum(ref.coeffs(row)[j] * y for row, y in zip(rows, out.duals)) >= c
    assert sum(ref.rhs(row) * y for row, y in zip(rows, out.duals)) == out.value
    assert sum(c * x for c, x in zip(prog.objective, out.point)) == out.value


def test_strong_duality_spot_check():
    rng = random.Random(20250810)
    checked = unbounded = 0
    for _ in range(120):
        prog = _random_program(rng)
        try:
            out = solve(prog)
        except AssertionError as error:
            assert str(error) == _UNBOUNDED
            unbounded += 1
            continue
        assert satisfies(prog, out.xs, out.x_den)
        _assert_solves_the_dual(prog, out)
        checked += 1
    assert checked > 20 and unbounded > 5


_ROW = st.tuples(st.lists(st.integers(-3, 3), min_size=3, max_size=3), st.integers(0, 4))


def _solved(prog: LinearProgram) -> Optimal | None:
    """The optimum, or None when `solve` finds the program unbounded."""
    try:
        return solve(prog)
    except AssertionError as error:
        assert str(error) == _UNBOUNDED
        return None


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(_ROW, min_size=1, max_size=3),
    objective=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_every_outcome_carries_a_valid_certificate(rows, objective):
    prog = LinearProgram(
        objective=tuple(map(F, objective)),
        constraints=tuple(constraint(coeffs, b) for coeffs, b in rows),
    )
    out = _solved(prog)
    if out is not None:
        assert satisfies(prog, out.xs, out.x_den)
        assert sum(c * x for c, x in zip(prog.objective, out.point)) == out.value


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(_ROW, min_size=1, max_size=4),
    objective=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_optimal_duals_solve_the_dual(rows, objective):
    prog = LinearProgram(
        objective=tuple(map(F, objective)),
        constraints=tuple(constraint(coeffs, b) for coeffs, b in rows),
    )
    out = _solved(prog)
    assume(out is not None)
    _assert_solves_the_dual(prog, out)


def _two_programs():
    bounded = LinearProgram(
        objective=(F(1), F(2)),
        constraints=(constraint([1, 1], 3), constraint([-1, 1], F(1, 2))),
    )
    return bounded, _beale()


def test_a_trace_counts_and_dumps_each_program_in_order():
    programs = _two_programs()
    dump = io.StringIO()
    trace = Trace(dump=dump)
    outcomes = [trace.solve(p) for p in programs]
    assert all(isinstance(o, Optimal) for o in outcomes)
    assert outcomes == [solve(p) for p in programs]
    assert trace.solves == 2
    assert trace.max_pivots == max(o.pivots for o in outcomes) > 0
    assert dump.getvalue() == "".join(format_lp(p) + "\n" for p in programs)
    quiet = Trace()
    for p in programs:
        quiet.solve(p)
    assert (quiet.solves, quiet.max_pivots) == (trace.solves, trace.max_pivots)


def test_a_bare_solve_keeps_no_count_and_writes_nothing(capsys):
    for p in _two_programs():
        solve(p)
    assert capsys.readouterr() == ("", "")
    assert not hasattr(lp, "counters") and not hasattr(lp, "debug_stream")


def test_slack_basis_skips_phase_one():
    # every row has rhs >= 0, so the slacks form a feasible basis and a
    # zero objective is optimal there without a single pivot
    prog = LinearProgram(
        objective=(F(0), F(0), F(0)),
        constraints=(
            constraint([1, 2, 0], 3),
            constraint([-1, 1, F(1, 2)], 0),
            constraint([0, 3, -2], F(5, 3)),
        ),
    )
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert out.pivots == 0
    assert out.point == (F(0), F(0), F(0))


@pytest.mark.parametrize("rhs,kind", [(4, Optimal), (0, Optimal)])
def test_solving_twice_is_repeatable_and_leaves_the_program_alone(rhs, kind):
    rows = (
        constraint([2, 3, -1], 6),
        constraint([F(1, 3), -2, 5], rhs),
        constraint([1, 1, 1], F(7, 2)),
        constraint([3, 0, F(-2, 5)], 1),
    )
    prog = LinearProgram(objective=(F(1), F(-2), F(3, 4)), constraints=rows)
    snapshot = [(c.coeffs, c.scale, c.int_rhs) for c in rows]
    first = solve(prog)
    second = solve(prog)
    assert isinstance(first, kind)
    assert first.pivots > 0
    assert first == second
    assert [(c.coeffs, c.scale, c.int_rhs) for c in prog.constraints] == snapshot


# -- golden outcomes ---------------------------------------------------------
#
# Every field of every outcome of a fixed corpus in the one program
# form, recorded from the two-phase solver that preceded this one on
# the same tableau: its unbounded programs are the ones `solve` now
# refuses.  Pivot counts are pinned too: Bland's rule on exact
# comparisons must take the same path.

_BIG = 2**61 - 1  # a Mersenne prime, so it shares no factor with anything


def _golden_program(seed: int) -> LinearProgram:
    """A seeded program: max c.x over x >= 0 under rows a.x <= b, b >= 0.
    Each column gets a positive entry in some row.  Seeds divisible by 3
    draw some coefficients over 2**61 - 1, by 5 make most right-hand
    sides zero, and by 7 leave one column with no positive entry and a
    positive cost, so that the program is unbounded."""
    rng = random.Random(seed)
    big, degenerate, open_column = seed % 3 == 0, seed % 5 == 0, seed % 7 == 0
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)

    def num(lo, hi):
        v = rng.randint(lo, hi)
        if big and rng.random() < 0.3:
            return F(v * rng.choice([1, _BIG - 1, 5]), rng.choice([_BIG, 3]))
        if rng.random() < 0.15:
            return F(v, rng.choice([2, 3, 5]))
        return F(v)

    rows = [[num(-2, 4) for _ in range(n)] for _ in range(m)]
    objective = [num(-2, 5) for _ in range(n)]
    for j in range(n):
        if all(coeffs[j] <= 0 for coeffs in rows):
            rng.choice(rows)[j] = num(1, 4)
    if open_column:
        j = rng.randrange(n)
        for coeffs in rows:
            coeffs[j] = -abs(coeffs[j])
        objective[j] = abs(objective[j]) + 1
    rhs = [F(0) if degenerate and rng.random() < 0.6 else num(0, 6) for _ in rows]
    return LinearProgram(
        objective=tuple(objective),
        constraints=tuple(constraint(c, b) for c, b in zip(rows, rhs)),
    )


def _golden_corpus() -> list[LinearProgram]:
    zero_objective = LinearProgram(
        objective=(F(0), F(0), F(0)),
        constraints=(
            constraint([1, 2, 0], 3),
            constraint([-1, 1, F(1, 2)], 0),
            constraint([0, 3, -2], F(5, 3)),
        ),
    )
    big = LinearProgram(
        objective=(F(1), F(1, _BIG), F(-1)),
        constraints=(
            constraint([1, F(2, _BIG), 1], F(3, _BIG)),
            constraint([0, 1, -1], _BIG),
            constraint([F(-1, 3), 1, 1], 1),
        ),
    )
    return [_beale(), zero_objective, big] + [_golden_program(s) for s in range(40)]


def _encode(out: Optimal) -> tuple:
    """An outcome as strings of its exact fields, in canonical form."""

    def text(values) -> str:
        return " ".join(map(str, values))

    return ("optimal", out.pivots, str(out.value), text(out.point), text(out.duals))


_GOLDEN = [
    ("optimal", 6, "1/20", "1/25 0 1 0", "0 3/2 1/20"),
    ("optimal", 0, "0", "0 0 0", "0 0 0"),
    ("optimal", 1, "3/2305843009213693951", "3/2305843009213693951 0 0", "1 0 0"),
    ("unbounded",),
    ("optimal", 0, "0", "0 0", "0 0 0 0 0"),
    ("optimal", 0, "0", "0", "0"),
    ("optimal", 2, "2/3", "0 1/6", "4/3 0 0 0 0"),
    ("optimal", 2, "5/3", "5/12 5/6", "1/3 0 5/6"),
    ("optimal", 4, "31/13", "0 1/13 0 15/13 0", "15/13 16/13 0"),
    ("optimal", 1, "4/3", "0 0 0 4/3 0", "1/3"),
    ("unbounded",),
    ("optimal", 2, "47/2", "7/2 10", "0 5/2 9/2"),
    ("unbounded",),
    ("optimal", 2, "0", "0 0 0 0 0", "3/4"),
    ("optimal", 3, "0", "0 0 0 0", "0 1/6 5/3 0 0"),
    ("optimal", 2,
     "4611686018427387902/230584300921369395",
     "0 0 2305843009213693951/461168601842738790 0",
     "4611686018427387902/443075998594971956865988017022216875 0 "
     "4611686018427387902/1152921504606846975"),
    ("optimal", 4, "2", "0 0 1", "0 0 1"),
    ("unbounded",),
    ("optimal", 1, "1152921504606846975", "1/2 0", "1152921504606846975"),
    ("optimal", 2, "46/9", "2/3 0 8/9", "0 11/9 0 2/3"),
    ("optimal", 3, "17/20", "0 0 0 7/20 1/10", "13/10 0 1/5 0"),
    ("optimal", 1, "10/3", "5/3 0", "2/3"),
    ("optimal", 1, "6/5", "2/5", "0 3 0 0 0"),
    ("optimal", 2, "0", "0 0", "0 17/2 18"),
    ("unbounded",),
    ("optimal", 0, "0", "0 0", "0 0"),
    ("optimal", 2, "2", "0 2 0", "1"),
    ("optimal", 2,
     "36893488147419103234/9",
     "9223372036854775768/6917529027641081877 0 39199331156632797167/2305843009213693959 0",
     "0 2/3 0 0 9223372036854775804/9"),
    ("optimal", 1, "0", "0 0 0 0", "2/3"),
    ("optimal", 2, "54", "6 15/2", "24 10"),
    ("optimal", 3, "768614336404564650", "0 0 0 1/4", "0 768614336404564650 0"),
    ("unbounded",),
    ("optimal", 3, "8", "0 0 0 2 0", "4"),
    ("unbounded",),
    ("optimal", 0, "0", "0", "0 0 0 0"),
    ("optimal", 0, "0", "0", "0 0"),
    ("optimal", 4, "0", "0 0 0 0 0", "4/3 0"),
    ("optimal", 3, "16", "0 6 4 0 0", "0 16/3 4/3"),
    ("unbounded",),
    ("optimal", 1, "18446744073709551600", "4611686018427387900 0 0", "6"),
    ("optimal", 2, "30", "0 0 15/2 0 0", "6"),
    ("optimal", 5, "13/5", "0 1/5 0 6/5", "2/5 0 0 3/5"),
    ("optimal", 1, "5", "15/2 0", "2 0 0"),
]


@pytest.mark.parametrize("index", range(len(_GOLDEN)))
def test_golden_outcomes_are_reproduced_exactly(index):
    corpus = _golden_corpus()
    assert len(corpus) == len(_GOLDEN)
    if _GOLDEN[index] == ("unbounded",):
        with pytest.raises(AssertionError, match=_UNBOUNDED):
            solve(corpus[index])
    else:
        assert _encode(solve(corpus[index])) == _GOLDEN[index]


def test_the_textbook_simplex_reproduces_the_golden_outcomes():
    for prog, golden in zip(_golden_corpus(), _GOLDEN):
        out = ref.bland_slack_simplex(prog)
        if golden == ("unbounded",):
            assert out is None
        else:
            value, point, pivots, duals = out
            text = " ".join
            assert golden == ("optimal", pivots, str(value), text(map(str, point)),
                              text(map(str, duals)))


# -- the int outcome ---------------------------------------------------------


def _optimal_golden_programs() -> list[LinearProgram]:
    return [p for p, g in zip(_golden_corpus(), _GOLDEN) if g != ("unbounded",)]


def test_point_and_duals_read_the_ints_over_their_denominators():
    programs = _optimal_golden_programs()
    assert len(programs) == 35
    for prog in programs:
        out = solve(prog)
        assert out.point == tuple(F(x, out.x_den) for x in out.xs)
        assert out.duals == tuple(F(y, out.y_den) for y in out.ys)
        assert (len(out.xs), len(out.ys)) == (prog.arity, len(prog.constraints))
        assert all(type(v) is int for v in (*out.xs, out.x_den, *out.ys, out.y_den))
        # the point is over the least common denominator of its values
        assert out.x_den == math.lcm(*(x.denominator for x in out.point))
        assert out.y_den > 0


def _assert_in_lowest_terms(prog: LinearProgram, out: Optimal) -> None:
    """x_den is the lcm of the point's least denominators, and y_den that
    of the whole objective row: the duals, the reduced costs A^T y - c
    and the value.  The duals share y_den with the rest of that row, so
    gcd(*ys, y_den) itself may exceed 1."""
    assert out.x_den == math.lcm(*(x.denominator for x in out.point))
    duals = out.duals
    reduced = [
        sum(F(c.coeffs[j], c.scale) * y for c, y in zip(prog.constraints, duals))
        - prog.objective[j]
        for j in range(prog.arity)
    ]
    row = [*duals, *reduced, out.value]
    assert out.y_den == math.lcm(*(v.denominator for v in row))


def test_an_optimal_outcome_is_in_lowest_terms():
    # some of these rows are over 2**61 - 1, so their denominators pass
    # 62 bits within a pivot or two and are divided by their gcd; the
    # rest never are
    for prog in _optimal_golden_programs():
        _assert_in_lowest_terms(prog, solve(prog))


def test_every_solve_checks_its_point_through_lp_satisfies(monkeypatch):
    # perfbench's lp.cert span wraps `previsio.lp.satisfies`, so `solve`
    # must look it up in the module: one call per solve, on its ints
    calls = []
    real = lp.satisfies

    def spy(prog, xs, den):
        calls.append((prog, xs, den))
        return real(prog, xs, den)

    monkeypatch.setattr(lp, "satisfies", spy)
    programs = _optimal_golden_programs()
    trace = Trace()
    outcomes = [trace.solve(p) for p in programs]
    assert len(calls) == trace.solves == len(programs)
    for (prog, xs, den), p, out in zip(calls, programs, outcomes):
        assert prog is p and (tuple(xs), den) == (out.xs, out.x_den)


_COEFF = st.integers(-3, 4) | st.builds(F, st.integers(-3, 4), st.sampled_from([2, 3, _BIG]))


@st.composite
def _bounded_programs(draw):
    """A program of the one form, often degenerate, kept bounded by a row
    of positive coefficients at a drawn place among the others."""
    n = draw(st.integers(1, 5))
    rhs = st.sampled_from([F(0), F(0), F(1), F(5, 3), F(6)])
    rows = [
        ([draw(_COEFF) for _ in range(n)], draw(rhs)) for _ in range(draw(st.integers(0, 4)))
    ]
    bounding = ([draw(st.integers(1, 3)) for _ in range(n)], draw(rhs))
    rows.insert(draw(st.integers(0, len(rows))), bounding)
    return LinearProgram(
        objective=tuple(F(draw(_COEFF)) for _ in range(n)),
        constraints=tuple(constraint(coeffs, b) for coeffs, b in rows),
    )


@settings(max_examples=300, deadline=None)
@given(prog=_bounded_programs())
def test_solve_takes_the_textbook_simplex_path(prog):
    # the oracle shares no code with the condensed int tableau
    out = solve(prog)
    assert (out.value, out.point, out.pivots, out.duals) == ref.bland_slack_simplex(prog)
    _assert_in_lowest_terms(prog, out)


# -- scaling a row -----------------------------------------------------------

_FACTOR = st.builds(F, st.integers(1, _BIG), st.sampled_from([1, 3, _BIG]))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(_ROW, min_size=1, max_size=4),
    objective=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    which=st.integers(0, 3),
    k=_FACTOR,
)
def test_scaling_a_row_changes_no_verdict(rows, objective, which, k):
    # k * (a.x <= b) is the same constraint for k > 0; the path may
    # change, the verdict and the value may not
    cons = [constraint(coeffs, b) for coeffs, b in rows]
    which %= len(cons)
    c = cons[which]
    scaled_row = constraint([k * a for a in ref.coeffs(c)], k * ref.rhs(c))
    programs = [
        LinearProgram(
            objective=tuple(map(F, objective)),
            constraints=tuple(cons[:which] + [row] + cons[which + 1:]),
        )
        for row in (c, scaled_row)
    ]
    plain, scaled = (_solved(p) for p in programs)
    assert (plain is None) is (scaled is None)
    if scaled is not None:
        prog = programs[1]
        assert scaled.value == plain.value
        assert satisfies(prog, scaled.xs, scaled.x_den)
        assert sum(a * x for a, x in zip(prog.objective, scaled.point)) == scaled.value


# -- the records ---------------------------------------------------------------


def _records() -> list:
    """One of each record, the row not yet in lowest terms when built."""
    row = Constraint((4, 6, 0), 2, 8)
    prog = LinearProgram(objective=(F(1), F(-1, 2), F(0)), constraints=(row,))
    return [row, prog, solve(prog)]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_a_record_is_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_a_record_round_trips_through_pickle_and_deepcopy(record):
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(again) is type(record)
        assert again == record and hash(again) == hash(record)
        assert all(getattr(again, f) == getattr(record, f) for f in record._fields)


def test_a_record_is_built_by_keyword():
    row = Constraint(coeffs=(2, 4), scale=6, int_rhs=2)
    assert row == Constraint((1, 2), 3, 1)
    prog = LinearProgram(objective=(1, "1/2"), constraints=(row,))
    assert prog.objective == (F(1), F(1, 2)) and prog.arity == 2
    assert LinearProgram(objective=(F(1),)).constraints == ()
    out = Optimal(value=F(1), xs=(1,), x_den=2, ys=(3,), y_den=3, pivots=1)
    assert out == Optimal(F(1), (1,), 2, (3,), 3, 1)
    assert (out.point, out.duals) == ((F(1, 2),), (F(1),))


def test_a_row_is_normalised_when_built_and_after_a_pickle():
    row = Constraint((4, 6, 0), 2, 8)
    assert tuple(row) == ((2, 3, 0), 1, 4)
    again = pickle.loads(pickle.dumps(row))
    assert tuple(again) == ((2, 3, 0), 1, 4) and again.arity == 3
    # `_replace` builds through the same checks
    assert tuple(Constraint((2, -4, 0), 1, 6)._replace(scale=2)) == ((1, -2, 0), 1, 3)
    with pytest.raises(MalformedProgram):
        row._replace(scale=0)
    with pytest.raises(MalformedProgram):
        LinearProgram(objective=(F(1),))._replace(constraints=(row,))
