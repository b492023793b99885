import io
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from previsio import lp
from previsio.errors import MalformedProgram
from previsio.lp import (
    Constraint,
    Infeasible,
    LinearProgram,
    Optimal,
    Trace,
    Unbounded,
    constraint,
    format_lp,
    satisfies,
    solve,
    verify_farkas,
    verify_ray,
)

F = Fraction


def test_simple_optimum():
    prog = LinearProgram(
        objective=(F(1),),
        constraints=(constraint([1], "<=", 3),),
    )
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert out.value == 3
    assert out.point == (F(3),)


def test_simple_infeasible_has_verifying_certificate():
    prog = LinearProgram(
        objective=(F(1),),
        constraints=(constraint([1], "<=", -1),),
    )
    out = solve(prog)
    assert isinstance(out, Infeasible)
    assert verify_farkas(prog, out.certificate)
    assert any(m > 0 for m in out.certificate.multipliers)


def test_simple_unbounded_returns_ray():
    prog = LinearProgram(objective=(F(1),))
    out = solve(prog)
    assert isinstance(out, Unbounded)
    assert satisfies(prog, out.point)
    assert verify_ray(prog, out.ray)


def test_equality_and_free_variables():
    # max x + y s.t. x + y = 2, x - y = 0, y free
    prog = LinearProgram(
        objective=(F(1), F(1)),
        constraints=(
            constraint([1, 1], "=", 2),
            constraint([1, -1], "=", 0),
        ),
        bounds=((F(0), None), (None, None)),
    )
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert out.point == (F(1), F(1))


def test_upper_bounds_and_shifted_lower_bounds():
    # min x + y with 2 <= x <= 5, y <= 4, x + y >= 7
    prog = LinearProgram(
        objective=(F(1), F(1)),
        sense="min",
        constraints=(constraint([1, 1], ">=", 7),),
        bounds=((F(2), F(5)), (F(0), F(4))),
    )
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert out.value == 7
    assert satisfies(prog, out.point)


def test_conflicting_bounds_are_infeasible():
    prog = LinearProgram(
        objective=(F(0),),
        bounds=((F(3), F(2)),),
    )
    out = solve(prog)
    assert isinstance(out, Infeasible)
    assert verify_farkas(prog, out.certificate)


def test_degenerate_program_terminates():
    # classic cycling-prone instance (Beale); Bland's rule must terminate
    prog = LinearProgram(
        objective=(F(3, 4), F(-150), F(1, 50), F(-6)),
        constraints=(
            constraint([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
            constraint([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
            constraint([0, 0, 1, 0], "<=", 1),
        ),
    )
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert out.value == F(1, 20)


def test_zero_objective_is_feasibility_test():
    prog = LinearProgram(
        objective=(F(0), F(0)),
        constraints=(constraint([1, 1], "=", 1),),
    )
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert out.value == 0


def test_malformed_arity_rejected():
    with pytest.raises(MalformedProgram):
        LinearProgram(objective=(F(1),), constraints=(constraint([1, 2], "<=", 3),))
    with pytest.raises(MalformedProgram):
        LinearProgram(objective=(F(1),), sense="sideways")
    with pytest.raises(MalformedProgram):
        Constraint(((0, 1),), 1, 0, "<", 1)
    with pytest.raises(MalformedProgram):
        Constraint(((0, 1),), 0, 0, "<=", 1)
    # one form per row: terms are nonzero, by increasing column, in range
    for terms in (((1, 2), (0, 1)), ((0, 1), (0, 2)), ((0, 0),), ((2, 1),), ((-1, 1),)):
        with pytest.raises(MalformedProgram):
            Constraint(terms, 1, 0, "<=", 2)


def test_constraint_normalises_its_row():
    row = constraint([1, "1/2"], "<=", "3")
    assert row.coeffs == (F(1), F(1, 2)) and row.rhs == F(3)
    assert all(type(c) is F for c in (*row.coeffs, row.rhs))
    assert Constraint(((0, 6), (1, 1)), 3, 0, ">=", 2).coeffs == (F(2), F(1, 3))
    with pytest.raises(MalformedProgram):
        constraint([1], "<", 0)
    with pytest.raises(TypeError):
        constraint([1.5], "<=", 0)


@pytest.mark.parametrize(
    "terms,scale,int_rhs,coeffs,rhs",
    [
        (((0, 4), (2, -6)), 2, 8, [2, 0, -3], 4),
        (((1, 3),), 9, 0, [0, F(1, 3), 0], 0),
        (((0, 10), (1, 5), (2, 15)), 20, -25, [F(1, 2), F(1, 4), F(3, 4)], F(-5, 4)),
        ((), 7, 14, [0, 0, 0], 2),
    ],
)
def test_a_row_built_from_ints_has_the_one_form(terms, scale, int_rhs, coeffs, rhs):
    # the ints share a factor above 1 with their scale; once divided
    # through, the row is the one `constraint` makes from its fractions
    for relation in ("<=", "=", ">="):
        row = Constraint(terms, scale, int_rhs, relation, 3)
        same = constraint(coeffs, relation, rhs)
        assert row == same and hash(row) == hash(same)
        assert (row.terms, row.scale, row.int_rhs) == (same.terms, same.scale, same.int_rhs)
        assert row.coeffs == tuple(map(F, coeffs)) and row.rhs == F(rhs)
        assert constraint(row.coeffs, relation, row.rhs) == row
    assert Constraint(terms, scale, int_rhs, "<=", 3) != constraint(coeffs, ">=", rhs)
    assert Constraint(terms, scale, int_rhs, "<=", 4) != constraint(coeffs, "<=", rhs)


def _random_program(rng: random.Random) -> LinearProgram:
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    rows = tuple(
        constraint([rng.randint(-4, 4) for _ in range(n)], "<=", rng.randint(0, 6))
        for _ in range(m)
    )
    objective = tuple(F(rng.randint(-5, 5)) for _ in range(n))
    return LinearProgram(objective=objective, constraints=rows)


def _dual_of(prog: LinearProgram) -> LinearProgram:
    # dual of max c.x s.t. Ax <= b, x >= 0  is  min b.y s.t. A^T y >= c, y >= 0
    m = len(prog.constraints)
    rows = []
    for j in range(prog.arity):
        coeffs = [prog.constraints[i].coeffs[j] for i in range(m)]
        rows.append(constraint(coeffs, ">=", prog.objective[j]))
    return LinearProgram(
        objective=tuple(c.rhs for c in prog.constraints),
        sense="min",
        constraints=tuple(rows),
    )


def test_strong_duality_spot_check():
    rng = random.Random(20250810)
    checked = 0
    for _ in range(120):
        prog = _random_program(rng)
        primal = solve(prog)
        dual = solve(_dual_of(prog))
        if isinstance(primal, Optimal):
            if isinstance(dual, Optimal):
                assert primal.value == dual.value
                checked += 1
            else:
                # b >= 0 makes the primal feasible, so a bounded primal
                # forces a solvable dual
                pytest.fail("bounded feasible primal but unsolved dual")
        elif isinstance(primal, Unbounded):
            assert isinstance(dual, Infeasible)
            assert verify_farkas(_dual_of(prog), dual.certificate)
    assert checked > 20


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        min_size=1,
        max_size=3,
    ),
    rhs=st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    rels=st.lists(st.sampled_from(["<=", ">=", "="]), min_size=3, max_size=3),
    objective=st.lists(st.integers(-3, 3), min_size=2, max_size=2),
)
def test_every_outcome_carries_a_valid_certificate(data, rhs, rels, objective):
    rows = tuple(
        constraint(coeffs, rel, b) for coeffs, b, rel in zip(data, rhs, rels)
    )
    prog = LinearProgram(objective=tuple(map(F, objective)), constraints=rows)
    out = solve(prog)
    if isinstance(out, Optimal):
        assert satisfies(prog, out.point)
        value = sum(c * x for c, x in zip(prog.objective, out.point))
        assert value == out.value
    elif isinstance(out, Infeasible):
        assert verify_farkas(prog, out.certificate)
    else:
        assert satisfies(prog, out.point)
        assert verify_ray(prog, out.ray)


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    ),
    rhs=st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    rels=st.lists(st.sampled_from(["<=", ">=", "="]), min_size=4, max_size=4),
    objective=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_optimal_duals_solve_the_dual(data, rhs, rels, objective):
    # max c.x s.t. rows, x >= 0; dual: y >= 0 on "<=", y <= 0 on ">=",
    # y free on "=", A^T y >= c, and b.y equal to the optimal value
    rows = tuple(
        constraint(coeffs, rel, b) for coeffs, b, rel in zip(data, rhs, rels)
    )
    prog = LinearProgram(objective=tuple(map(F, objective)), constraints=rows)
    out = solve(prog)
    assume(isinstance(out, Optimal))
    _assert_solves_the_dual(prog, out)


def _assert_solves_the_dual(prog: LinearProgram, out: Optimal) -> None:
    rows = prog.constraints
    assert len(out.duals) == len(rows)
    for row, y in zip(rows, out.duals):
        if row.relation == "<=":
            assert y >= 0
        elif row.relation == ">=":
            assert y <= 0
    for j, c in enumerate(prog.objective):
        assert sum(row.coeffs[j] * y for row, y in zip(rows, out.duals)) >= c
    assert sum(row.rhs * y for row, y in zip(rows, out.duals)) == out.value


def _two_programs():
    bounded = LinearProgram(
        objective=(F(1), F(2)),
        constraints=(constraint([1, 1], "<=", 3), constraint([1, -1], ">=", F(-1, 2))),
    )
    infeasible = LinearProgram(
        objective=(F(1),),
        constraints=(constraint([1], ">=", 2), constraint([1], "<=", 1)),
    )
    return bounded, infeasible


def test_a_trace_counts_and_dumps_each_program_in_order():
    programs = _two_programs()
    dump = io.StringIO()
    trace = Trace(dump=dump)
    outcomes = [trace.solve(p) for p in programs]
    assert [type(o) for o in outcomes] == [Optimal, Infeasible]
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
    # every row is "<=" with rhs >= 0, so the slacks form a feasible basis
    # and a zero objective is optimal there without a single pivot
    prog = LinearProgram(
        objective=(F(0), F(0), F(0)),
        constraints=(
            constraint([1, 2, 0], "<=", 3),
            constraint([-1, 1, F(1, 2)], "<=", 0),
            constraint([0, 3, -2], "<=", F(5, 3)),
        ),
    )
    out = solve(prog)
    assert isinstance(out, Optimal)
    assert out.pivots == 0
    assert out.point == (F(0), F(0), F(0))


@pytest.mark.parametrize("rhs,kind", [(4, Optimal), (-1, Infeasible)])
def test_solving_twice_is_repeatable_and_leaves_the_program_alone(rhs, kind):
    rows = (
        constraint([2, 3, -1], "<=", 6),
        constraint([F(1, 3), -2, 5], "<=", rhs),
        constraint([1, 1, 1], "=", F(7, 2)),
        constraint([3, 0, F(-2, 5)], ">=", 1),
    )
    prog = LinearProgram(objective=(F(1), F(-2), F(3, 4)), constraints=rows)
    snapshot = [(tuple(c.coeffs), c.relation, c.rhs) for c in rows]
    first = solve(prog)
    second = solve(prog)
    assert isinstance(first, kind)
    assert first.pivots > 0
    assert first == second
    assert [(tuple(c.coeffs), c.relation, c.rhs) for c in prog.constraints] == snapshot


def _reads_leq(relation: str, rhs: int) -> bool:
    # a row starts on its slack when it reads "<=" after its rhs is made
    # nonnegative; every other row needs an artificial
    return (relation == "<=" and rhs >= 0) or (relation == ">=" and rhs < 0)


_ROW = st.tuples(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.sampled_from(["<=", ">=", "="]),
    st.integers(-4, 4),
)


@settings(max_examples=120, deadline=None)
@given(
    rows=st.lists(_ROW, min_size=2, max_size=5).filter(
        lambda rows: len({_reads_leq(rel, b) for _, rel, b in rows}) == 2
    ),
    objective=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_mixed_slack_and_artificial_bases_certify(rows, objective):
    # one tableau holds both kinds of unit column, so Farkas multipliers
    # and optimal duals are read from slacks and artificials alike
    cons = tuple(constraint(coeffs, rel, b) for coeffs, rel, b in rows)
    prog = LinearProgram(objective=tuple(map(F, objective)), constraints=cons)
    out = solve(prog)
    if isinstance(out, Infeasible):
        assert verify_farkas(prog, out.certificate)
    elif isinstance(out, Optimal):
        _assert_solves_the_dual(prog, out)


# -- golden outcomes ---------------------------------------------------------
#
# Every field of every outcome of a fixed corpus, recorded from the
# Fraction tableau that preceded the integer one.  Pivot counts are
# pinned too: Bland's rule on exact comparisons must take the same path.

_BIG = 2**61 - 1  # a Mersenne prime, so it shares no factor with anything


def _golden_program(seed: int) -> LinearProgram:
    """A seeded program with mixed relations, bounds and senses.  Seeds
    divisible by 3 draw some coefficients over 2**61 - 1, by 4 add a
    negated copy of an "=" row, by 5 make most right-hand sides zero."""
    rng = random.Random(seed)
    big, negated, degenerate = seed % 3 == 0, seed % 4 == 0, seed % 5 == 0
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)

    def num(lo=-4, hi=4):
        v = rng.randint(lo, hi)
        if big and rng.random() < 0.3:
            return F(v * rng.choice([1, _BIG - 1, 5]), rng.choice([_BIG, 3]))
        if rng.random() < 0.15:
            return F(v, rng.choice([2, 3, 5]))
        return F(v)

    rows = []
    for _ in range(m):
        coeffs = [num() for _ in range(n)]
        rel = rng.choice(["<=", ">=", "="])
        b = F(0) if degenerate and rng.random() < 0.6 else num(-4, 6)
        rows.append(constraint(coeffs, rel, b))
    if negated:
        rows[0] = constraint(rows[0].coeffs, "=", rows[0].rhs)
        c = rng.choice([c for c in rows if c.relation == "="])
        copy = constraint([-a for a in c.coeffs], "=", -c.rhs)
        rows.insert(rng.randint(0, len(rows)), copy)
    bounds = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.55:
            bounds.append((F(0), None))
        elif kind < 0.7:
            bounds.append((None, None))
        elif kind < 0.85:
            lo = num(-2, 2)
            bounds.append((lo, lo + abs(num(0, 4))))
        elif kind < 0.93:
            bounds.append((None, num(-2, 4)))
        else:
            bounds.append((num(-3, 3), None))
    return LinearProgram(
        objective=tuple(num() for _ in range(n)),
        sense=rng.choice(["max", "min"]),
        constraints=tuple(rows),
        bounds=tuple(bounds),
    )


def _golden_corpus() -> list[LinearProgram]:
    beale = LinearProgram(
        objective=(F(3, 4), F(-150), F(1, 50), F(-6)),
        constraints=(
            constraint([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
            constraint([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
            constraint([0, 0, 1, 0], "<=", 1),
        ),
    )
    mixed = [
        LinearProgram(
            objective=(F(1), F(-2), F(3, 4)),
            constraints=(
                constraint([2, 3, -1], "<=", 6),
                constraint([F(1, 3), -2, 5], "<=", rhs),
                constraint([1, 1, 1], "=", F(7, 2)),
                constraint([3, 0, F(-2, 5)], ">=", 1),
            ),
        )
        for rhs in (4, -1)
    ]
    shifted = LinearProgram(
        objective=(F(1), F(1)),
        sense="min",
        constraints=(constraint([1, 1], ">=", 7),),
        bounds=((F(2), F(5)), (F(0), F(4))),
    )
    # a redundant, negated copy of an "=" row over 2**61 - 1
    copied = LinearProgram(
        objective=(F(1), F(1, _BIG), F(-1)),
        constraints=(
            constraint([1, F(2, _BIG), 1], "=", F(3, _BIG)),
            constraint([-1, F(-2, _BIG), -1], "=", F(-3, _BIG)),
            constraint([0, 1, 1], ">=", 1),
        ),
        bounds=((None, None), (F(0), F(_BIG)), (F(-1), None)),
    )
    # seeds 86, 124, 160 and 228 pivot on a negative entry when they drive
    # a zero-level artificial out of the basis
    seeds = [*range(32), 86, 124, 160, 228]
    return [beale, *mixed, shifted, copied] + [_golden_program(s) for s in seeds]


def _encode(out) -> tuple:
    """An outcome as strings of its exact fields, in canonical form."""

    def text(values) -> str:
        return " ".join(map(str, values))

    if isinstance(out, Optimal):
        return ("optimal", out.pivots, str(out.value), text(out.point), text(out.duals))
    if isinstance(out, Infeasible):
        return ("infeasible", out.pivots, text(out.certificate.multipliers))
    return ("unbounded", out.pivots, text(out.point), text(out.ray))


_GOLDEN = [
    ("optimal", 6, "1/20", "1/25 0 1 0", "0 3/2 1/20"),
    ("optimal", 6, "41/12", "19/6 0 1/3", "1/12 0 5/6 0"),
    ("infeasible", 3, "329/615 62/205 1 0 7/123 0 0 0"),
    ("optimal", 2, "7", "5 2", "1"),
    ("optimal", 2,
     "4611686018427387903/2305843009213693951",
     "2305843009213693950/2305843009213693951 2 -1",
     "1 0 -1/2305843009213693951"),
    ("optimal", 4,
     "-662038073654063984609604354709112886402818062872632884022/55169839471171998858365197112293822683117389992672886785",
     "-4611686018427387887/2305843009213693951 -2 "
     "-148873535527910576962793023545033097701/47852207848256971408396153105596547070 "
     "544178950174431767651/143556623544770914225188459316789641210",
     "-10376293541461622781/4785220784825697140839615310559654707 0 0 0 "
     "31128880624384868346/23926103924128485704198076552798273535"),
    ("unbounded", 0, "0 -2", "-1 0"),
    ("optimal", 0, "0", "0", "0"),
    ("infeasible", 0, "1 0 1 2 0 5"),
    ("infeasible", 1, "0 0 0 1 1 0 0 0 8"),
    ("optimal", 2, "3", "0 1 2", "0 1 0"),
    ("infeasible", 2, "1 0 1 0 1/4 0 0 0 0"),
    ("optimal", 2, "3", "7/5 -2/5 0", "1 1/3"),
    ("infeasible", 1, "0 23/20 0 1 0 1 1 0 31/20"),
    ("optimal", 3,
     "-6917529027641081933/21267647932558653948014168890775961604",
     "15/9223372036854775804 2/2305843009213693951 0 0",
     "-6917529027641082053/46116860184273879020 0 3/20"),
    ("infeasible", 0, "0 0 1 1 1 24/5 0"),
    ("infeasible", 3, "4 1 1 1 2 0 18 2/3"),
    ("optimal", 5,
     "-48422703193487573488/15950735949418990258672902609580327119",
     "-7686143364045646575/28356863910078204904307382417031692656 0 "
     "13835058055282163573/42535295865117307356461073625547538984 "
     "29207344783373456723/28356863910078204904307382417031692656",
     "95704415696513942576984633252968923236/15950735949418990258672902609580327119 "
     "-29975959119778021508/5316911983139663419557634203193442373 0 "
     "-31901471898837981067289362916626661384/15950735949418990258672902609580327119"),
    ("optimal", 1, "0", "0 3/2 0", "0 0 0"),
    ("infeasible", 0, "0 1 0"),
    ("optimal", 1,
     "354460798875977565646513280898686430",
     "0 354460798875977565646513280898686430",
     "-2305843009213693951/5"),
    ("optimal", 3, "0", "0 0 0", "3/2 -3/2 0 0 0"),
    ("infeasible", 4, "0 0 0 3/2 1 7 18/5 0 0"),
    ("optimal", 5, "-18446744073709551644/3", "-8/3 11/3", "768614336404564650"),
    ("optimal", 1, "0", "1", "0"),
    ("optimal", 4, "0", "0 0", "1/3 0 0 0"),
    ("infeasible", 2,
     "0 9223372036854775795/6917529027641081853 0 1 1 0 0 "
     "23058430092136939528/6917529027641081853 0"),
    ("optimal", 3, "72/25", "-18/25 26/25", "16/25 12/25"),
    ("unbounded", 1, "0 3/10 0", "1 2 0"),
    ("optimal", 3, "1/9", "0 -2/9 5/3 -5/9", "-1/2 0 -1/6"),
    ("unbounded", 4, "2 6 -1/2 0", "0 0 0 1"),
    ("optimal", 2, "7/5", "3/5 -1/5", "0 -3/2"),
    ("infeasible", 0, "0 1 0 1 0 2 17/3 2/3 3074457345618258597"),
    ("infeasible", 0, "0 1 0 1 0 8"),
    ("infeasible", 0, "1 0 1 1 0 0"),
    ("optimal", 1,
     "-27670116110564327408/2305843009213693951",
     "0 13835058055282163704/2305843009213693951 0",
     "0"),
    ("infeasible", 0, "0 1 0 1 7 0"),
    ("optimal", 1, "3", "-1", "3/4 0 0"),
    ("unbounded", 2, "0 0 0", "-1 1/2 0"),
    ("optimal", 2, "0", "0", "0 0 0 0"),
    ("optimal", 5, "-2/3", "-2 1", "0 0 0"),
]


@pytest.mark.parametrize("index", range(len(_GOLDEN)))
def test_golden_outcomes_are_reproduced_exactly(index):
    corpus = _golden_corpus()
    assert len(corpus) == len(_GOLDEN)
    assert _encode(solve(corpus[index])) == _GOLDEN[index]


# -- scaling a row -----------------------------------------------------------

_BOUND = st.sampled_from([(F(0), None), (None, None), (F(-1), F(2)), (None, F(3))])
_FACTOR = st.builds(F, st.integers(1, _BIG), st.sampled_from([1, 3, _BIG]))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(_ROW, min_size=1, max_size=4),
    objective=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    bounds=st.lists(_BOUND, min_size=3, max_size=3),
    sense=st.sampled_from(["max", "min"]),
    which=st.integers(0, 3),
    k=_FACTOR,
)
def test_scaling_a_row_changes_no_verdict(rows, objective, bounds, sense, which, k):
    # k * (a.x rel b) is the same constraint for k > 0; the path may change
    # (phase 1 minimises the sum of the artificials), the verdict may not
    cons = [constraint(coeffs, rel, b) for coeffs, rel, b in rows]
    which %= len(cons)
    c = cons[which]
    scaled_row = constraint([k * a for a in c.coeffs], c.relation, k * c.rhs)
    programs = [
        LinearProgram(
            objective=tuple(map(F, objective)),
            sense=sense,
            constraints=tuple(cons[:which] + [row] + cons[which + 1:]),
            bounds=tuple(bounds),
        )
        for row in (c, scaled_row)
    ]
    plain, scaled = (solve(p) for p in programs)
    assert type(plain) is type(scaled)
    prog = programs[1]
    if isinstance(scaled, Optimal):
        assert scaled.value == plain.value
        assert satisfies(prog, scaled.point)
        assert sum(a * x for a, x in zip(prog.objective, scaled.point)) == scaled.value
    elif isinstance(scaled, Infeasible):
        assert verify_farkas(prog, scaled.certificate)
    else:
        assert satisfies(prog, scaled.point)
        assert verify_ray(prog, scaled.ray)
