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
    Unbounded,
    constraint,
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
        Constraint((F(1),), "<", F(0))


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


def test_counters_accumulate():
    lp.counters.reset()
    solve(LinearProgram(objective=(F(1),), constraints=(constraint([1], "<=", 1),)))
    solves, max_pivots = lp.counters.snapshot()
    assert solves == 1
    assert max_pivots >= 0


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
