import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from previsio.errors import (
    DuplicateEntry,
    ImpossibleConditioningEvent,
    SpaceMismatch,
)
from previsio.model import (
    Assessment,
    PossibilitySpace,
    restrict,
    zero_given,
)

F = Fraction


@pytest.fixture
def space():
    return PossibilitySpace(("a", "b", "c"))


def test_space_validation():
    with pytest.raises(ValueError):
        PossibilitySpace(())
    with pytest.raises(ValueError):
        PossibilitySpace(("a", "a"))


def test_restriction_discards_outside_values(space):
    x = space.variable({"a": 1, "b": 0, "c": 5})
    b = space.event(["a", "b"])
    cv = restrict(x, b)
    assert cv.value_map() == {0: F(1), 1: F(0)}


def test_equal_on_event_means_equal_conditional(space):
    b = space.event(["a", "b"])
    x = space.variable({"a": 1, "b": 0, "c": 5})
    y = space.variable({"a": 1, "b": 0, "c": 99})
    assert restrict(x, b) == restrict(y, b)
    assert restrict(x, space.omega()) != restrict(y, space.omega())


def test_equal_restrictions_hash_alike_and_find_each_other(space):
    b = space.event(["a", "b"])
    x = space.variable({"a": F(1, 2), "b": 0, "c": 5})
    y = space.variable({"a": F(2, 4), "b": 0, "c": -7})
    bx, by = restrict(x, b), restrict(y, b)
    assert bx is not by and bx == by and hash(bx) == hash(by)
    assessment = Assessment.build(space, [(bx, F(1, 3), F(2, 3))])
    assert assessment.entry_for(by) is assessment.entries[0]
    assert by in assessment and assessment.lower(by) == F(1, 3)
    assert restrict(x, space.omega()) not in assessment
    # the hash is kept once made; copies and pickles still agree
    for cv in (bx, restrict(y, b)):
        for again in (copy.copy(cv), copy.deepcopy(cv), pickle.loads(pickle.dumps(cv))):
            assert again == cv and hash(again) == hash(cv) == hash(bx)
            assert assessment.entry_for(again) is assessment.entries[0]



def test_a_restriction_hashes_its_values_without_fraction_hash(space, monkeypatch):
    # the values are hashed by their (numerator, denominator) pairs, which
    # equal values share: `Fraction.__hash__` computes a modular inverse
    # per value
    b = space.event(["a", "c"])
    cv = restrict(space.variable({"a": F(1, 3), "b": 0, "c": F(-2, 7)}), b)

    def refused(self):
        raise AssertionError("Fraction.__hash__ was called")

    monkeypatch.setattr(F, "__hash__", refused)
    h = hash(cv)
    monkeypatch.undo()
    same = restrict(space.variable({"a": "2/6", "b": 9, "c": F(4, -14)}), b)
    assert same == cv and hash(same) == h
    assert restrict(space.variable({"a": F(1, 3), "b": 0, "c": F(2, 7)}), b) != cv


def test_a_pickled_restriction_hashes_afresh_in_another_process(space):
    # a string hashes differently in another process, so a hash made
    # here must not travel with the pickle
    cv = restrict(space.variable({"a": 1, "b": F(1, 2), "c": 5}), space.event(["a", "c"]))
    hash(cv)
    script = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "from previsio.model import PossibilitySpace, restrict\n"
        "cv = pickle.loads(sys.stdin.buffer.read())\n"
        "space = PossibilitySpace(('a', 'b', 'c'))\n"
        "x = space.variable({'a': 1, 'b': Fraction(1, 2), 'c': 5})\n"
        "fresh = restrict(x, space.event(['a', 'c']))\n"
        "assert cv == fresh and hash(cv) == hash(fresh), 'hash travelled'\n"
        "assert {fresh: 1}[cv] == 1\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "12345"}
    done = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(cv), env=env, capture_output=True
    )
    assert done.returncode == 0, done.stderr.decode()


def test_restrict_to_sure_event_keeps_everything(space):
    x = space.variable({"a": 1, "b": 0, "c": 5})
    cv = restrict(x, space.omega())
    assert cv.values == (F(1), F(0), F(5))


def test_empty_conditioning_event_rejected(space):
    x = space.variable({"a": 1, "b": 0, "c": 5})
    with pytest.raises(ImpossibleConditioningEvent):
        restrict(x, space.empty_event())


def test_cond_sup_inf(space):
    x = space.variable({"a": 1, "b": 0, "c": 5})
    b = space.event(["a", "b"])
    assert restrict(x, b).sup() == 1
    assert restrict(x, b).inf() == 0
    const = space.constant(F(7, 3))
    assert restrict(const, b).sup() == restrict(const, b).inf() == F(7, 3)
    two = PossibilitySpace(("a", "b"))
    y = two.variable({"a": -3, "b": 7})
    assert y.unconditional().sup() == 7


def test_event_algebra(space):
    ab = space.event(["a", "b"])
    bc = space.event(["b", "c"])
    assert (ab & bc) == space.event(["b"])
    assert (~space.omega()) == space.empty_event()
    assert (space.event(["a"]) | space.event(["b"])) == ab
    assert ab.implies(space.omega())


def test_event_algebra_space_mismatch(space):
    other = PossibilitySpace(("a", "b", "c"))
    assert (space.event(["a"]) | other.event(["b"])).members  # equal spaces merge
    different = PossibilitySpace(("x", "y"))
    with pytest.raises(SpaceMismatch):
        space.event(["a"]) & different.event(["x"])


def test_indicator(space):
    ind = space.indicator(space.event(["a", "c"]))
    assert ind.values == (F(1), F(0), F(1))


def test_restrict_idempotent(space):
    x = space.variable({"a": 2, "b": -1, "c": 4})
    b = space.event(["a", "c"])
    cv = restrict(x, b)
    assert restrict(cv.as_variable(), b) == cv


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    ys=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    mask=st.integers(1, 7),
)
def test_restriction_commutes_with_pointwise_functions(xs, ys, mask):
    space = PossibilitySpace(("a", "b", "c"))
    x = space.variable(dict(zip(space.atoms, xs)))
    y = space.variable(dict(zip(space.atoms, ys)))
    b = space.event([a for i, a in enumerate(space.atoms) if mask >> i & 1])
    combos = [x + y, x.pointwise_mul(y)]
    restricted = [
        restrict(x, b).as_variable().given(b),
        restrict(y, b).as_variable().given(b),
    ]
    rx, ry = (cv.as_variable() for cv in restricted)
    for combined, again in zip(combos, [rx + ry, rx.pointwise_mul(ry)]):
        assert restrict(combined, b) == restrict(again, b)


def test_assessment_duplicate_rejected(space):
    x = space.variable({"a": 1, "b": 0, "c": 0})
    y = space.variable({"a": 1, "b": 0, "c": 0})
    with pytest.raises(DuplicateEntry):
        Assessment.build(
            space,
            [(x.unconditional(), F(1, 2)), (y.unconditional(), F(1, 3))],
        )


def test_assessment_lookup_and_extension(space):
    x = space.variable({"a": 1, "b": 0, "c": 0})
    a = Assessment.build(space, [(x.unconditional(), F(1, 2), F(2, 3))])
    cv = x.unconditional()
    assert a.lower(cv) == F(1, 2)
    assert a.entry_for(cv).upper == F(2, 3)
    assert not a.is_precise
    bigger = a.with_entry(restrict(x, space.event(["a", "b"])), F(1, 4))
    assert len(bigger) == 2
    assert len(a) == 1  # immutable


def test_zero_given(space):
    b = space.event(["a", "b"])
    assert zero_given(b).is_constant(0)
    assert zero_given(b) == restrict(space.constant(0), b)
