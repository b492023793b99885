from fractions import Fraction

import pytest

from previsio.checkers import (
    check_aul,
    check_df_precise_conditional,
    check_w_coherence,
)
from previsio.conglomerability import (
    check_conglomerability,
    definetti_example,
    walley_666_example,
)
from previsio.errors import InvalidPartition, MissingValues
from previsio.jsonio import load_problem
from previsio.model import Assessment, PossibilitySpace, restrict

F = Fraction


def _loaded(doc):
    """The problem a generated document loads to, and its cells."""
    problem = load_problem(doc)
    return problem, [problem.events[name] for name in doc["cells"]]


def test_finite_total_probability_is_conglomerable():
    space = PossibilitySpace(("a", "b", "c", "d"))
    cells = [space.event(["a", "b"]), space.event(["c", "d"])]
    x = space.indicator(space.event(["a", "c"]))
    p = [F(1, 8), F(3, 8), F(1, 4), F(1, 4)]
    items = []
    total = sum(pi * v for pi, v in zip(p, x.values))
    items.append((x.unconditional(), total, total))
    for cell in cells:
        mass = sum(p[i] for i in cell.members)
        value = sum(p[i] * x.values[i] for i in cell.members) / mass
        items.append((restrict(x, cell), value, value))
    report = check_conglomerability(
        Assessment.build(space, items), x, cells
    )
    assert report.conglomerable
    assert report.gap == 0
    assert report.lower_condition


def test_missing_values_rejected():
    space = PossibilitySpace(("a", "b"))
    x = space.indicator(space.event(["a"]))
    a = Assessment.build(space, [(x.unconditional(), F(1, 2))])
    with pytest.raises(MissingValues):
        check_conglomerability(a, x, [space.event(["a"])])


@pytest.mark.parametrize("second", ["omega", "B1"])
def test_overlapping_cells_are_refused(second):
    # the cells of a partition are pairwise disjoint: with Omega or B1
    # again beside B1, the gap of 1/6 would close or stand for nothing
    problem, cells = _loaded(definetti_example(1, 2, 3))
    a, b1, omega = problem.variables["A"], problem.events["B1"], problem.space.omega()
    with pytest.raises(InvalidPartition, match="cells overlap"):
        check_conglomerability(problem.assessment, a, [b1, omega if second == "omega" else b1])
    # cells need not cover the space: the truncated ones leave `rest` out
    assert frozenset().union(*(c.members for c in cells)) != omega.members
    assert check_conglomerability(problem.assessment, a, cells).gap == F(1, 6)


# ---------------------------------------------------------------------------
# the odd-number example


def test_definetti_values_and_cells():
    problem, cells = _loaded(definetti_example(1, 2, 4))
    a = problem.variables["A"]
    omega = problem.space.omega()
    assert problem.assessment.lower(restrict(a, omega)) == F(1, 2)
    for cell in cells:
        assert problem.assessment.lower(restrict(a, cell)) == F(1, 3)
    assert problem.events["B1"].atoms() == ("w1", "w2", "w4")
    assert problem.events["B2"].atoms() == ("w3", "w6", "w8")


def test_definetti_violates_interval_iff_sides_differ():
    unequal, cells = _loaded(definetti_example(1, 2, 5))
    report = check_conglomerability(
        unequal.assessment, unequal.variables["A"], cells
    )
    assert not report.conglomerable
    assert report.inf_cell == report.sup_cell == F(1, 3)
    assert report.gap == F(1, 6)
    # the violation is from above: the one-sided lower bound still holds
    assert report.lower_condition

    equal, cells = _loaded(definetti_example(1, 1, 5))
    report = check_conglomerability(
        equal.assessment, equal.variables["A"], cells
    )
    assert report.conglomerable
    assert report.cell_values == (F(1, 2),) * 5

    flipped, cells = _loaded(definetti_example(2, 1, 4))  # more odds than evens per cell
    report = check_conglomerability(
        flipped.assessment, flipped.variables["A"], cells
    )
    assert not report.conglomerable
    assert report.inf_cell == F(2, 3)
    assert not report.lower_condition  # violated from below this time


def test_definetti_is_df_coherent_and_w_coherent():
    for h, k in ((1, 2), (2, 1), (1, 1), (2, 3)):
        problem = load_problem(definetti_example(h, k, 3))
        assert check_df_precise_conditional(problem.assessment).passed, (h, k)
    assert check_w_coherence(load_problem(definetti_example(1, 2, 4)).assessment).passed


def test_definetti_notes_flag_the_completion():
    doc = definetti_example(1, 2, 3)
    assert any("Bayes-derived" in note for note in doc["notes"])
    zero_doc = definetti_example(1, 1, 3)
    assert any("probability zero" in note for note in zero_doc["notes"])
    problem, zero_rest = load_problem(doc), load_problem(zero_doc)
    # with positive remainder mass the completion is part of the assessment
    rest = restrict(problem.variables["A"], problem.events["Brest"])
    assert problem.assessment.lower(rest) == 1
    assert zero_rest.assessment.entry_for(
        restrict(zero_rest.variables["A"], zero_rest.events["Brest"])
    ) is None


# ---------------------------------------------------------------------------
# the two-sided mixture example


def test_walley_666_values():
    problem, cells = _loaded(walley_666_example(4))
    omega = problem.space.omega()
    a_var = problem.variables["A"]
    assert problem.assessment.lower(restrict(a_var, omega)) == F(1, 2)
    for i, cell in enumerate(cells, start=1):
        assert problem.assessment.lower(restrict(a_var, cell)) == 1
        atom = problem.variables[f"w{i}"]
        assert problem.assessment.lower(restrict(atom, cell)) == 1
        assert problem.assessment.lower(
            restrict(problem.variables[f"B{i}"], omega)
        ) == F(1, 2 ** (i + 1))
    assert problem.assessment.lower(
        restrict(problem.variables["tailneg"], omega)
    ) == F(1, 2)


def test_walley_666_bayes_consistency():
    problem, cells = _loaded(walley_666_example(3))
    omega = problem.space.omega()
    for i, cell in enumerate(cells, start=1):
        cell_mass = problem.assessment.lower(
            restrict(problem.variables[f"B{i}"], omega)
        )
        joint = problem.variables["A"].pointwise_mul(
            problem.space.indicator(cell)
        )
        joint_mass = sum(
            problem.assessment.lower(
                restrict(problem.variables[a], omega)
            ) * joint.value_at(a)
            for a in problem.space.atoms
        )
        conditional = problem.assessment.lower(
            restrict(problem.variables["A"], cell)
        )
        assert conditional * cell_mass == joint_mass


def test_walley_666_consistent_at_truncation():
    problem = load_problem(walley_666_example(4))
    assert check_aul(problem.assessment).passed
    assert check_df_precise_conditional(problem.assessment).passed


def test_walley_666_limit_diagnostic():
    problem, cells = _loaded(walley_666_example(4))
    report = check_conglomerability(
        problem.assessment, problem.variables["A"], cells
    )
    assert report.inf_cell == report.sup_cell == 1
    assert report.value == F(1, 2)
    assert report.value <= report.sup_cell  # the upper side holds
    assert not report.lower_condition      # the lower side is the diagnostic
    assert not report.conglomerable
    assert report.gap == F(1, 2)


def test_bayes_consistency_definetti():
    # P(A | cell) * P(cell) = P(A and cell) under the generating measure
    problem, cells = _loaded(definetti_example(1, 2, 4))
    n = len(cells)
    cell_mass = F(3, 4) / n
    odd_share = cell_mass / 3
    for cell in cells:
        conditional = problem.assessment.lower(
            restrict(problem.variables["A"], cell)
        )
        assert conditional * cell_mass == odd_share
