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
from previsio.model import Assessment, PossibilitySpace, restrict

F = Fraction


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
    bundle = definetti_example(1, 2, 3)
    a, b1, omega = bundle.variables["A"], bundle.events["B1"], bundle.space.omega()
    with pytest.raises(InvalidPartition, match="cells overlap"):
        check_conglomerability(bundle.assessment, a, [b1, omega if second == "omega" else b1])
    # cells need not cover the space: the truncated ones leave `rest` out
    assert frozenset().union(*(c.members for c in bundle.cells)) != omega.members
    assert check_conglomerability(bundle.assessment, a, bundle.cells).gap == F(1, 6)


# ---------------------------------------------------------------------------
# the odd-number example


def test_definetti_values_and_cells():
    bundle = definetti_example(1, 2, 4)
    a = bundle.variables["A"]
    omega = bundle.space.omega()
    assert bundle.assessment.lower(restrict(a, omega)) == F(1, 2)
    for cell in bundle.cells:
        assert bundle.assessment.lower(restrict(a, cell)) == F(1, 3)
    assert bundle.events["B1"].atoms() == ("w1", "w2", "w4")
    assert bundle.events["B2"].atoms() == ("w3", "w6", "w8")


def test_definetti_violates_interval_iff_sides_differ():
    unequal = definetti_example(1, 2, 5)
    report = check_conglomerability(
        unequal.assessment, unequal.variables["A"], unequal.cells
    )
    assert not report.conglomerable
    assert report.inf_cell == report.sup_cell == F(1, 3)
    assert report.gap == F(1, 6)
    # the violation is from above: the one-sided lower bound still holds
    assert report.lower_condition

    equal = definetti_example(1, 1, 5)
    report = check_conglomerability(
        equal.assessment, equal.variables["A"], equal.cells
    )
    assert report.conglomerable
    assert report.cell_values == (F(1, 2),) * 5

    flipped = definetti_example(2, 1, 4)  # more odds than evens per cell
    report = check_conglomerability(
        flipped.assessment, flipped.variables["A"], flipped.cells
    )
    assert not report.conglomerable
    assert report.inf_cell == F(2, 3)
    assert not report.lower_condition  # violated from below this time


def test_definetti_is_df_coherent_and_w_coherent():
    for h, k in ((1, 2), (2, 1), (1, 1), (2, 3)):
        bundle = definetti_example(h, k, 3)
        assert check_df_precise_conditional(bundle.assessment).passed, (h, k)
    assert check_w_coherence(definetti_example(1, 2, 4).assessment).passed


def test_definetti_notes_flag_the_completion():
    bundle = definetti_example(1, 2, 3)
    assert any("Bayes-derived" in note for note in bundle.notes)
    zero_rest = definetti_example(1, 1, 3)
    assert any("probability zero" in note for note in zero_rest.notes)
    # with positive remainder mass the completion is part of the assessment
    rest = restrict(bundle.variables["A"], bundle.events["Brest"])
    assert bundle.assessment.lower(rest) == 1
    assert zero_rest.assessment.entry_for(
        restrict(zero_rest.variables["A"], zero_rest.events["Brest"])
    ) is None


# ---------------------------------------------------------------------------
# the two-sided mixture example


def test_walley_666_values():
    bundle = walley_666_example(4)
    omega = bundle.space.omega()
    a_var = bundle.variables["A"]
    assert bundle.assessment.lower(restrict(a_var, omega)) == F(1, 2)
    for i, cell in enumerate(bundle.cells, start=1):
        assert bundle.assessment.lower(restrict(a_var, cell)) == 1
        atom = bundle.variables[f"w{i}"]
        assert bundle.assessment.lower(restrict(atom, cell)) == 1
        assert bundle.assessment.lower(
            restrict(bundle.variables[f"B{i}"], omega)
        ) == F(1, 2 ** (i + 1))
    assert bundle.assessment.lower(
        restrict(bundle.variables["tailneg"], omega)
    ) == F(1, 2)


def test_walley_666_bayes_consistency():
    bundle = walley_666_example(3)
    omega = bundle.space.omega()
    for i, cell in enumerate(bundle.cells, start=1):
        cell_mass = bundle.assessment.lower(
            restrict(bundle.variables[f"B{i}"], omega)
        )
        joint = bundle.variables["A"].pointwise_mul(
            bundle.space.indicator(cell)
        )
        joint_mass = sum(
            bundle.assessment.lower(
                restrict(bundle.variables[a], omega)
            ) * joint.value_at(a)
            for a in bundle.space.atoms
        )
        conditional = bundle.assessment.lower(
            restrict(bundle.variables["A"], cell)
        )
        assert conditional * cell_mass == joint_mass


def test_walley_666_consistent_at_truncation():
    bundle = walley_666_example(4)
    assert check_aul(bundle.assessment).passed
    assert check_df_precise_conditional(bundle.assessment).passed


def test_walley_666_limit_diagnostic():
    bundle = walley_666_example(4)
    report = check_conglomerability(
        bundle.assessment, bundle.variables["A"], bundle.cells
    )
    assert report.inf_cell == report.sup_cell == 1
    assert report.value == F(1, 2)
    assert report.value <= report.sup_cell  # the upper side holds
    assert not report.lower_condition      # the lower side is the diagnostic
    assert not report.conglomerable
    assert report.gap == F(1, 2)


def test_bayes_consistency_definetti():
    # P(A | cell) * P(cell) = P(A and cell) under the generating measure
    bundle = definetti_example(1, 2, 4)
    n = len(bundle.cells)
    cell_mass = F(3, 4) / n
    odd_share = cell_mass / 3
    for cell in bundle.cells:
        conditional = bundle.assessment.lower(
            restrict(bundle.variables["A"], cell)
        )
        assert conditional * cell_mass == odd_share
