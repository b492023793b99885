import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from axioms import DomainNotClosed, check_a1_a4
from conftest import (
    bayes_value,
    positive_vector,
    random_arbitrary_assessment,
    random_coherent_assessment,
    random_domain,
    random_event,
    random_precise_assessment,
    random_space,
    random_variable,
)
from enumeration_oracle import natural_extension_grid
from previsio import extensions, gains, lp
from previsio.checkers import _Search, check_convex, check_w_coherence, expanded_elements
from previsio.envelopes import lower_envelope
from previsio.errors import BaseNotCoherent, SpaceMismatch
from previsio.extensions import (
    extend,
    natural_extension,
    natural_extension_prevision,
    upper_extension,
)
from previsio.conglomerability import definetti_example
from previsio.jsonio import load_problem, witness_from_json, witness_to_json
from previsio.gains import FOR, LOWER, UPPER, Bet, against
from previsio.model import Assessment, ConditionalVariable, PossibilitySpace, restrict

F = Fraction


def conditional_cases(seed, count=8):
    """Seeded conditional bases on 4-6 atoms, each with an unassessed
    target on a random event.  The seeds used below each include a case
    where a bound read from the programs of every support union, without
    a strict direction off B, is wrong."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        space = random_space(rng, 4, 6)
        base = random_coherent_assessment(rng, space=space, max_entries=3)
        target = restrict(random_variable(rng, space), random_event(rng, space))
        if base.entry_for(target) is None:
            cases.append((base, target))
    return cases


def unconditional_cases(rng, count):
    cases = []
    for _ in range(count):
        space = random_space(rng, 3, 3)
        base = random_coherent_assessment(rng, space=space, max_entries=2)
        x = space.variable({a: F(rng.randint(-2, 2)) for a in space.atoms})
        target = restrict(x, space.omega())
        if base.entry_for(target) is None:
            cases.append((base, target))
    return cases


def reproducer():
    """A 6-atom conditional assessment whose upper extension, -69/56,
    lies above the -3/2 that the programs of every support union give."""
    s = PossibilitySpace(tuple(f"w{i}" for i in range(6)))

    def cv(atoms, values):
        return ConditionalVariable(
            s.event([f"w{i}" for i in atoms]), tuple(map(F, values))
        )

    a = Assessment.build(s, [
        (cv([0, 2, 3, 4, 5], ["3", "3/2", "1/2", "1", "2"]), F(11, 8)),
        (cv([0, 3, 5], ["1", "-1", "1/2"]), F(-1, 8)),
        (cv([0, 1, 3], ["1", "-3", "-1/2"]), F(-6, 7)),
    ])
    return a, cv([0, 1, 2, 4], ["-1", "-3/2", "-3/2", "-3"])


@pytest.fixture
def product_rule_base():
    space = PossibilitySpace(("a1", "a2", "b2", "c"))
    b = space.event(["a1", "a2", "b2"])
    a_event = space.event(["a1", "a2"])
    x = space.variable({"a1": 1, "a2": 0, "b2": 1, "c": 0})
    assessment = Assessment.build(
        space,
        [
            (restrict(space.indicator(a_event), b), F(1, 2)),
            (restrict(x, a_event & b), F(2, 5)),
        ],
    )
    ax = space.indicator(a_event).pointwise_mul(x)
    return space, assessment, restrict(ax, b)


def test_extension_requires_coherent_base():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": 0})
    bad = Assessment.build(space, [(x.unconditional(), 2)])
    target = restrict(x, space.event(["a"]))
    calls = [
        lambda: extend(bad, target),
        lambda: natural_extension(bad, target),
        lambda: upper_extension(bad, target),
        lambda: natural_extension_prevision(bad),
    ]
    for call in calls:
        with pytest.raises(BaseNotCoherent) as refused:
            call()
        # the refusal names a losing bet of the base: the check's own
        assert gains.gain(refused.value.witness, bad).sup_on_conditioning() < 0
        assert refused.value.witness == check_w_coherence(bad).witness


def refusal_cases(count):
    """Seeded arbitrary bases on 3-6 atoms, each with a fresh target and
    one of its assessed variables."""
    rng = random.Random(457)
    for _ in range(count):
        space = random_space(rng, 3, 6)
        base = random_arbitrary_assessment(rng, space=space)
        yield base, (random_domain(rng, space, 1)[0], rng.choice(base.entries).variable)


def test_an_incoherent_base_is_refused_and_never_an_internal_error(monkeypatch):
    # a bound over an incoherent base may be unbounded, and an assessed
    # target's own checks may fail before the base is certified: either
    # way the call refuses the base with a losing bet
    solve, unbounded = lp.solve, []

    def recording(program):
        try:
            return solve(program)
        except lp.Unbounded:
            unbounded.append(program)
            raise

    monkeypatch.setattr(lp, "solve", recording)
    routes = {True: 0, False: 0}
    for base, targets in refusal_cases(120):
        verdict = check_w_coherence(base)
        for target in targets:
            for call in (extend, natural_extension, upper_extension):
                if verdict.passed:
                    call(base, target)
                    continue
                unbounded.clear()
                with pytest.raises(BaseNotCoherent) as refused:
                    call(base, target)
                assert refused.value.witness == verdict.witness
                assert gains.gain(verdict.witness, base).sup_on_conditioning() < 0
                routes[bool(unbounded)] += 1
    # both routes: an unbounded bound caught, and bounded bounds whose
    # chains leave the base's certification to find the witness
    assert routes[True] > 100 and routes[False] > 100


def test_le_of_assessed_variables_is_the_assessed_value():
    rng = random.Random(211)
    for _ in range(15):
        base = random_coherent_assessment(rng, max_entries=3)
        for entry in base.entries:
            assert natural_extension(base, entry.variable) == entry.lower


def test_le_without_helpers_is_the_infimum():
    space = PossibilitySpace(("a", "b", "c"))
    helper = space.variable({"a": 0, "b": 1, "c": 0})
    base = Assessment.build(
        space, [(restrict(helper, space.event(["b", "c"])), 0)]
    )
    target = restrict(
        space.variable({"a": 5, "b": 9, "c": 9}), space.event(["a"])
    )
    assert natural_extension(base, target) == 5


def test_le_bounded_by_sup_and_dominates_grid():
    cases = unconditional_cases(random.Random(223), 12) + conditional_cases(417)
    for base, target in cases:
        le = natural_extension(base, target)
        assert target.inf() <= le <= target.sup()
        oracle = natural_extension_grid(base, target)
        assert oracle <= le


def test_le_matches_grid_on_corpus(product_rule_base):
    space, assessment, target = product_rule_base
    le = natural_extension(assessment, target)
    assert le == F(1, 5)
    oracle = natural_extension_grid(assessment, target, max_denominator=5)
    assert oracle == le

    two = PossibilitySpace(("a", "b"))
    x = two.indicator(two.event(["a"]))
    base = lower_envelope(
        two,
        [[F(1, 4), F(3, 4)], [F(1, 2), F(1, 2)]],
        [x.unconditional()],
    )
    y = two.variable({"a": 3, "b": 1})
    le = natural_extension(base, y.unconditional())
    assert natural_extension_grid(base, y.unconditional()) == le


def test_product_rule_lower_bound(product_rule_base):
    space, assessment, target = product_rule_base
    le = natural_extension(assessment, target)
    a_cv, x_cv = assessment.entries[0].variable, assessment.entries[1].variable
    assert le >= assessment.lower(a_cv) * assessment.lower(x_cv)


def test_le_monotone_in_the_domain():
    rng = random.Random(227)
    for _ in range(12):
        space = random_space(rng, 3, 3)
        domain = []
        for _ in range(3):
            x = space.variable({a: F(rng.randint(-2, 3)) for a in space.atoms})
            cv = restrict(x, space.omega())
            if cv not in domain:
                domain.append(cv)
        members = [positive_vector(rng, space) for _ in range(2)]
        big = lower_envelope(space, members, domain)
        small = Assessment(space, big.entries[:-1])
        target = restrict(
            space.variable({a: F(rng.randint(-2, 3)) for a in space.atoms}),
            space.omega(),
        )
        if big.entry_for(target) is not None:
            continue
        le_small = (
            natural_extension(small, target) if small.entries else target.inf()
        )
        assert natural_extension(big, target) >= le_small


def test_le_is_minimal_among_coherent_extensions():
    rng = random.Random(229)
    for _ in range(10):
        space = random_space(rng, 3, 3)
        base = random_coherent_assessment(rng, space=space, max_entries=2)
        x = space.variable({a: F(rng.randint(-2, 2)) for a in space.atoms})
        target = restrict(x, space.omega())
        if base.entry_for(target) is not None:
            continue
        le = natural_extension(base, target)
        lu = upper_extension(base, target)
        # every coherent extension value sits in [LE, LU]
        for num in range(-4, 5):
            value = le + F(num, 4)
            extended = base.with_entry(target, value)
            coherent = check_w_coherence(extended).passed
            assert coherent == (le <= value <= lu)


def test_extension_order_independence():
    rng = random.Random(233)
    for _ in range(8):
        space = random_space(rng, 3, 3)
        base = random_coherent_assessment(rng, space=space, max_entries=2)
        xs = []
        while len(xs) < 2:
            x = space.variable({a: F(rng.randint(-2, 2)) for a in space.atoms})
            cv = restrict(x, space.omega())
            if base.entry_for(cv) is None and cv not in xs:
                xs.append(cv)
        le_first = natural_extension(base, xs[0])
        le_second_direct = natural_extension(base, xs[1])
        grown = base.with_entry(xs[0], le_first)
        assert natural_extension(grown, xs[1]) == le_second_direct


def test_upper_extension_precise_entry_degenerates():
    space = PossibilitySpace(("a", "b"))
    x = space.indicator(space.event(["a"]))
    base = Assessment.build(space, [(x.unconditional(), F(1, 3), F(1, 3))])
    assert upper_extension(base, x.unconditional()) == F(1, 3)


def test_upper_extension_empty_base_is_sup():
    space = PossibilitySpace(("a", "b"))
    empty = Assessment(space, ())
    target = restrict(space.variable({"a": 2, "b": 5}), space.omega())
    assert upper_extension(empty, target) == 5
    assert natural_extension(empty, target) == 2


def test_upper_extension_recheck_definetti():
    problem = load_problem(definetti_example(1, 2, 4))
    a_var = problem.variables["A"]
    rest = restrict(a_var, problem.events["Brest"])
    lu = upper_extension(problem.assessment, rest)
    assert lu == 1  # assessed precisely at the Bayes-derived value

    pair = restrict(a_var, problem.events["B1"] | problem.events["B2"])
    le = natural_extension(problem.assessment, pair)
    lu = upper_extension(problem.assessment, pair)
    assert le == lu == F(1, 3)
    extended = problem.assessment.with_entry(pair, lu)
    assert check_w_coherence(extended).passed
    nudged = problem.assessment.with_entry(pair, lu + F(1, 1000))
    assert not check_w_coherence(nudged).passed


def assessed_cases(seed, count=6):
    """Seeded conditional envelopes with lower and upper values on 3-5
    atoms, each with one of its imprecise entries as the target."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        space = random_space(rng, 3, 5)
        domain = random_domain(rng, space, 3)
        members = [positive_vector(rng, space) for _ in range(rng.randint(2, 3))]
        items = []
        for cv in domain:
            values = [bayes_value(p, cv) for p in members]
            items.append((cv, min(values), max(values)))
        base = Assessment.build(space, items)
        target = rng.choice(domain)
        if not base.entry_for(target).is_precise:
            cases.append((base, target))
    return cases


def with_lower(base, target, value):
    """`base` with `value` as the target's lower value, its assessed
    upper value kept."""
    entry = base.entry_for(target)
    if entry is None:
        return base.with_entry(target, value)
    others = tuple(e for e in base.entries if e.variable != target)
    return Assessment(base.space, others).with_entry(target, value, entry.upper)


def test_upper_extension_agrees_with_bisection_oracle():
    cases = (
        unconditional_cases(random.Random(239), 6)
        + conditional_cases(300)
        + assessed_cases(307)
    )
    for base, target in cases:
        lu = upper_extension(base, target)
        lo, hi = natural_extension(base, target), target.sup()
        if check_w_coherence(with_lower(base, target, hi)).passed:
            assert lu == hi
            continue
        for _ in range(20):
            mid = (lo + hi) / 2
            if check_w_coherence(with_lower(base, target, mid)).passed:
                lo = mid
            else:
                hi = mid
        assert lo <= lu <= hi
        entry = base.entry_for(target)
        if entry is not None:
            assert lu <= entry.upper


def test_upper_extension_keeps_an_assessed_upper_value():
    space = PossibilitySpace(("a", "b"))
    x = space.indicator(space.event(["a"])).unconditional()
    base = Assessment.build(space, [(x, F(1, 4), F(1, 2))])
    assert not check_w_coherence(with_lower(base, x, F(3, 4))).passed
    assert upper_extension(base, x) == F(1, 2)
    result = extend(base, x)
    assert (result.lower, result.upper) == (F(1, 4), F(1, 2))


def test_reproducer_upper_extension_is_exact():
    base, target = reproducer()
    assert upper_extension(base, target) == F(-69, 56)
    assert check_w_coherence(base.with_entry(target, F(-69, 56))).passed
    beyond = base.with_entry(target, F(-69, 56) + F(1, 10**9))
    assert not check_w_coherence(beyond).passed


def test_reproducer_extend_returns_both_bounds():
    base, target = reproducer()
    result = extend(base, target)
    assert (result.lower, result.upper) == (F(-3), F(-69, 56))


def value_of(payoff, bound):
    """The bound's value: the payoff's floor plus the `rel` it holds."""
    return payoff.floor + bound.rel


def certificate(payoff, value, helpers, step):
    """The `_Bound` of the price `value` for the payoff, with the helper
    stakes `helpers`, `Fraction`s by element, put over one denominator,
    and the step stakes `step`."""
    ints, den = lp.over_one_denominator(list(helpers.values()))
    return extensions._Bound(value - payoff.floor, dict(zip(helpers, ints)), den, step)


@pytest.mark.parametrize("gap", [F(1, 2000), F(1, 10**6)], ids=["1/2000", "1/10**6"])
def test_certificate_rejects_a_bound_beyond_the_natural_extension(gap):
    # P(x) >= 1/4 and P(y) >= 1/4 put LE(x or y) at 1/2.  A claim just
    # above it is still a coherent value, while 1/1000 below the claim
    # 1001/2000 lies under 1/2 and is not, so coherence re-checks at the
    # claim and one fixed step away cannot tell; the certificate can
    space = PossibilitySpace(("x", "y", "z"))
    x, y = (space.indicator(space.event([a])) for a in ("x", "y"))
    base = Assessment.build(space, [(x.unconditional(), F(1, 4)), (y.unconditional(), F(1, 4))])
    target = space.indicator(space.event(["x", "y"])).unconditional()
    search = _Search(expanded_elements(base))
    payoff = extensions._payoff(target, 1)
    bound, _ = extensions._bound(search, payoff, (), range(len(search.elements)))
    assert value_of(payoff, bound) == F(1, 2)
    assert extensions._certified(search, payoff, bound)
    claimed = value_of(payoff, bound) + gap
    assert check_w_coherence(base.with_entry(target, claimed)).passed
    beyond = bound._replace(rel=claimed - payoff.floor)
    assert not extensions._certified(search, payoff, beyond)
    # nor does any other pair of helper stakes on a grid
    for stakes in product([F(k, 4) for k in range(9)], repeat=2):
        helpers = {i: s for i, s in enumerate(stakes) if s}
        other = certificate(payoff, claimed, helpers, {})
        assert not extensions._certified(search, payoff, other)


@pytest.mark.parametrize(
    "sign,value,helpers,direction,accepted",
    [
        (1, F(0), {}, {}, True),  # bound = inf X on B; nothing outside B
        (1, F(1, 10**6), {}, {}, False),
        (1, F(0), {}, {0: F(1), 1: F(3)}, True),
        (1, F(0), {}, {0: F(1), 1: F(2)}, False),  # gains exactly 0 at c
        (1, F(-1), {0: F(1), 1: F(2)}, {1: F(1)}, True),  # helpers 0 at c
        (1, F(-1), {0: F(1), 1: F(2)}, {}, False),
        (1, F(-1), {0: F(1), 1: F(1)}, {1: F(1)}, False),  # helpers 1/4 at c
        (1, F(0), {}, {0: F(-1)}, False),  # the target is already against
        (-1, F(-1), {}, {0: F(-1)}, True),
        (-1, F(-1), {}, {0: F(-1), 1: F(-1)}, False),  # two against-terms
        (-1, F(-5, 4), {2: F(-1)}, {}, True),
        (-1, F(-5, 4), {2: F(-1)}, {0: F(-1)}, False),  # two against-terms
    ],
)
def test_certificate_checks_are_exact_at_the_boundary(sign, value, helpers, direction, accepted):
    # g_0 = 1{c} - 1/2 and g_1 = 1{b} - 1/4 on {b, c}, g_2 = 1{b} - 1/4
    # on {a, b}; the target is 1{a} given B = {a, b}, so c is the one
    # atom outside B
    space = PossibilitySpace(("a", "b", "c"))
    b, c = (space.indicator(space.event([a])) for a in ("b", "c"))
    bc, ab = space.event(["b", "c"]), space.event(["a", "b"])
    base = Assessment.build(space, [
        (restrict(c, bc), F(1, 2)), (restrict(b, bc), F(1, 4)), (restrict(b, ab), F(1, 4)),
    ])
    target = restrict(space.indicator(space.event(["a"])), ab)
    search = _Search(expanded_elements(base))
    payoff = extensions._payoff(target, sign)
    bound = certificate(payoff, value, helpers, direction)
    assert extensions._certified(search, payoff, bound) is accepted


def test_every_bound_passes_its_certificate(monkeypatch):
    checked = []
    certified = extensions._certified

    def spy(search, payoff, bound):
        ok = certified(search, payoff, bound)
        checked.append((payoff.sign, value_of(payoff, bound), ok))
        return ok

    monkeypatch.setattr(extensions, "_certified", spy)
    base, target = reproducer()
    result = extend(base, target)
    assert (1, result.lower, True) in checked
    assert (-1, -result.upper, True) in checked
    assert all(ok for _, _, ok in checked)


def certified_by_fractions(search, payoff, value, helpers, step):
    """The three conditions of a bound's certificate on `Fraction`s, from
    each element's coefficients, with the helper stakes `helpers` and the
    step stakes `step` by element: at most one against-term, none when
    the target is bet against; value + G <= Y on B; and G <= 0 and
    G' < 0 on the carriers outside B, for the gains G of the helpers and
    G' of the step."""
    signed = [*helpers.items(), *step.items()]
    if len({i for i, s in signed if s < 0}) > (1 if payoff.sign < 0 else 0):
        return False

    def gain(stakes):
        total: dict[int, F] = {}
        for i, s in stakes.items():
            for a, v in search.elements[i].coefficients().items():
                total[a] = total.get(a, 0) + s * v
        return total

    b = payoff.target.cond.members
    y = {a: payoff.sign * v for a, v in payoff.target.value_map().items()}
    outside = frozenset().union(*(search.elements[i].members for i, _ in signed)) - b
    g, direction = gain(helpers), gain(step)
    return all(value + g.get(a, 0) <= y[a] for a in b) and all(
        g.get(a, 0) <= 0 and direction.get(a, 0) < 0 for a in outside
    )


def perturbed(bound, rng):
    """`bound`, then bounds near it: `rel` raised by 10**-9, one helper
    stake doubled, one halved and one dropped, when it has helpers, and
    the step emptied, when it has one; each helper drawn by `rng`.  The
    stakes stay ints over the program's denominator or twice it."""
    yield bound
    yield bound._replace(rel=bound.rel + BEYOND)
    helpers = bound.helpers
    if helpers:
        i = rng.choice(sorted(helpers))
        yield bound._replace(helpers={**helpers, i: 2 * helpers[i]})
        i = rng.choice(sorted(helpers))
        halved = {j: n if j == i else 2 * n for j, n in helpers.items()}
        yield bound._replace(helpers=halved, den=2 * bound.den)
        i = rng.choice(sorted(helpers))
        yield bound._replace(helpers={j: n for j, n in helpers.items() if j != i})
    if bound.step:
        yield bound._replace(step={})


def test_the_int_certificate_agrees_with_the_fraction_conditions(monkeypatch):
    # every bound of seeded `extend` calls, and bounds near it, are
    # accepted exactly when the conditions hold on `Fraction`s
    bounds = []
    bound = extensions._bound

    def spy(search, payoff, combo, usable):
        result = bound(search, payoff, combo, usable)
        if result[0] is not None:
            bounds.append((search, payoff, result[0]))
        return result

    monkeypatch.setattr(extensions, "_bound", spy)
    for base, targets in pinned_extension_cases(160):
        for target in targets:
            try:
                extend(base, target)
            except BaseNotCoherent:
                pass
    assert len(bounds) >= 300
    rng = random.Random(34)
    accepted = {True: 0, False: 0}
    for search, payoff, found in bounds:
        for near in perturbed(found, rng):
            helpers = {i: F(n, near.den) for i, n in near.helpers.items()}
            want = certified_by_fractions(
                search, payoff, value_of(payoff, near), helpers, near.step
            )
            assert extensions._certified(search, payoff, near) is want
            accepted[want] += 1
    assert accepted[True] >= 100 and accepted[False] >= 100


def test_a_payoff_is_the_signed_values_over_one_denominator():
    # `_payoff` negates the ints of the target's values for sign -1: the
    # payoff built from the negated `Fraction`s is the same, field for field
    rng = random.Random(30)
    for _ in range(200):
        space = random_space(rng, 3, 6)
        x = space.variable({a: F(rng.randint(-9, 9), rng.randint(1, 12)) for a in space.atoms})
        target = restrict(x, random_event(rng, space))
        atoms = sorted(target.cond.members)
        for sign in (1, -1):
            ints, den = lp.over_one_denominator([sign * v for v in target.values])
            low = min(ints)
            want = extensions._Payoff(
                target, sign, F(low, den), {a: v - low for a, v in zip(atoms, ints)}, den
            )
            got = extensions._payoff(target, sign)
            assert [getattr(got, f) for f in want._fields] == [
                getattr(want, f) for f in want._fields
            ]


def test_an_int_gain_is_the_fraction_gain_over_its_denominator():
    # the stakes come over one denominator with the extra values, so it
    # need not be their least, nor need the gain's be; but the ints over
    # it are the stakes' gain and the extra values exactly
    rng = random.Random(31)
    for base, _ in conditional_cases(31, count=6):
        search = _Search(expanded_elements(base))
        for _ in range(10):
            stakes = {
                i: F(rng.randint(-6, 6), rng.randint(1, 9))
                for i in range(len(search.elements))
                if rng.random() < 0.7
            }
            extra = [F(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(rng.randint(0, 2))]
            ints, den = lp.over_one_denominator([*stakes.values(), *extra])
            gain, d = extensions._int_gain(search, dict(zip(stakes, ints)), den)
            want: dict[int, F] = {}
            for i, s in stakes.items():
                for a, v in search.elements[i].coefficients().items():
                    want[a] = want.get(a, 0) + s * v
            assert d > 0 and all(type(v) is int for v in (*gain.values(), *ints))
            assert {a: F(v, d) for a, v in gain.items() if v} == {
                a: v for a, v in want.items() if v
            }
            assert d % den == 0
            assert [F(v * (d // den), d) for v in ints[len(stakes):]] == extra


# -- the attained side: chains -----------------------------------------------

BEYOND = F(1, 10**9)


def upper_combos(elements, target):
    """The upper extension's combinations in the order it runs them:
    each (k,) but the target's own lower element, then ()."""
    own = ((target, FOR, LOWER),)
    return [(k,) for k, el in enumerate(elements) if el.terms != own] + [()]


def upper_runs(search, target):
    """The elements of the upper extension, its best bound, and each
    combination with the chain its bound ran, each run on its own, with
    no sharing."""
    combos = upper_combos(search.elements, target)
    usable = [k for (k,) in combos[:-1]]
    upper = extensions._payoff(target, -1)
    runs = [extensions._bound(search, upper, c, usable) for c in combos]
    best = max(value_of(upper, b) for b, _ in runs if b is not None)
    return usable, best, [(c, chain) for c, (_, chain) in zip(combos, runs)]


def closes(search, payoff, value, combo, chain, usable=None):
    """Whether the walk of `chain` closes the one combination `combo`
    with the target's row at `value`, over the elements `usable`
    (default: all).  `_closed` takes the value less the payoff's floor."""
    usable = range(len(search.elements)) if usable is None else usable
    rel = value - payoff.floor
    return combo in extensions._closed(search, payoff, rel, [combo], chain, usable)


def closes_every_upper_combination(search, target, value, usable, runs):
    payoff = extensions._payoff(target, -1)
    return all(closes(search, payoff, value, c, chain, usable) for c, chain in runs)


def test_chains_close_at_the_bounds_and_not_beyond():
    cases = (
        unconditional_cases(random.Random(431), 12)
        + conditional_cases(433, 12)
        + conditional_cases(417)
        + assessed_cases(439, 10)
        + [reproducer()]
    )
    shrinking = 0
    for base, target in cases:
        search = _Search(expanded_elements(base))
        lower = extensions._payoff(target, 1)
        le, chain = extensions._bound(search, lower, (), range(len(search.elements)))
        le = value_of(lower, le)
        assert closes(search, lower, le, (), chain)
        assert not closes(search, lower, le - BEYOND, (), chain)
        usable, best, runs = upper_runs(search, target)
        assert closes_every_upper_combination(search, target, best, usable, runs)
        # LU + 1e-9 is the price -(LU + 1e-9) of a bet against -X
        assert not closes_every_upper_combination(search, target, best - BEYOND, usable, runs)
        result = extend(base, target)
        assert (result.lower, result.upper) == (le, -best)
        shrinking += (len(chain) > 1) + sum(len(c) > 1 for _, c in runs)
    assert shrinking >= 40


def reproducer_chains():
    """The reproducer's search, its payoffs for LE and LU, LE's bound and
    chain, and the chain of each upper combination by its
    against-terms."""
    base, target = reproducer()
    search = _Search(expanded_elements(base))
    lower, upper = extensions._payoff(target, 1), extensions._payoff(target, -1)
    le, chain = extensions._bound(search, lower, (), range(len(search.elements)))
    usable, best, runs = upper_runs(search, target)
    assert -best == F(-69, 56) and usable == [0, 1, 2]
    return search, (lower, upper), value_of(lower, le), chain, best, dict(runs)


def test_the_reproducer_chains_are_pinned():
    # the first step, 5 and 7 on atoms 3 and 5, expects 0 from g_0 and
    # g_1 and 25/14 > 0 from g_2, and every element meets {3, 5}; LE's
    # last step sits on atom 4, where X = LE = -3.  LU's chain for (2,)
    # drops elements 0 and 1, then charges atoms 0 and 1 with p.g_2 = 0
    # and p.(X - LU) = 0
    search, (lower, _), le, chain, best, runs = reproducer_chains()
    assert (le, chain) == (F(-3), ({3: 5, 5: 7}, {4: 1}))
    assert runs == {
        (): ({3: 5, 5: 7}, {0: 1}),
        (0,): ({3: 5, 5: 7},),
        (1,): ({3: 5, 5: 7},),
        (2,): ({5: 1}, {0: 15, 1: 13}),
    }
    # positive scaling changes no sign the verifier tests
    scaled = tuple({a: 3 * m for a, m in p.items()} for p in chain)
    assert closes(search, lower, le, (), scaled)


def test_a_negative_mass_is_rejected():
    # X - LE is 3/2 > 0 at atom 1, so a negative mass there keeps
    # p.(X - LE) <= 0, and no element is active at the last step
    search, (lower, _), le, chain, _, _ = reproducer_chains()
    assert closes(search, lower, le, (), chain)
    mutated = (chain[0], {**chain[1], 1: -1})
    assert not closes(search, lower, le, (), mutated)


def test_a_zero_mass_charges_nothing():
    # LE's first step with a zero mass on atom 4, in B and in element
    # 0's event, cut short there, does not close (): at LE, nor 10**-9
    # beyond it
    search, (lower, _), le, chain, _, _ = reproducer_chains()
    assert 4 in search.elements[0].members and 4 in lower.target.cond.members
    for value in (le, le - BEYOND):
        assert not closes(search, lower, value, (), (chain[0] | {4: 0},))


def test_a_chain_without_its_bound_step_is_rejected():
    search, (lower, upper), le, chain, best, runs = reproducer_chains()
    assert not closes(search, lower, le, (), chain[:-1])
    assert closes(search, upper, best, (2,), runs[2,], [0, 1, 2])
    assert not closes(search, upper, best, (2,), runs[2,][:-1], [0, 1, 2])


def test_a_chain_swapped_to_another_against_term_is_rejected():
    # (2,)'s first step charges atom 5, where g_0 = 5/8 > 0, so it
    # cannot bet against element 0; ()'s charges atom 3, where g_2 > 0
    search, (_, upper), _, _, best, runs = reproducer_chains()
    assert not closes(search, upper, best, (0,), runs[2,], [0, 1, 2])
    assert not closes(search, upper, best, (2,), runs[()], [0, 1, 2])


def test_a_step_with_a_negative_expectation_is_rejected():
    # one more unit on atom 3 pushes p.g_0 and p.g_1 to -7/8 while
    # p.g_2 stays positive and the support stays {3, 5}, off B
    search, (lower, _), le, chain, _, _ = reproducer_chains()
    mutated = ({3: 6, 5: 7}, chain[1])
    assert not closes(search, lower, le, (), mutated)


def test_an_element_no_step_has_touched_is_still_checked():
    # element 0, 3|{b} at 3, gains 0 and leaves with the first step, on
    # b; element 1, X|{a, c} at 7/4, stays active, so the last step, on
    # B = {c}, must still expect a gain >= 0 from it: one unit more on
    # a, where it gains -3/4, is rejected
    space = PossibilitySpace(("a", "b", "c"))
    base = Assessment.build(space, [
        (restrict(space.variable({"a": 0, "b": 3, "c": 0}), space.event(["b"])), F(3)),
        (restrict(space.variable({"a": 1, "b": 0, "c": 2}), space.event(["a", "c"])), F(7, 4)),
    ])
    target = restrict(space.constant(-3), space.event(["c"]))
    search = _Search(expanded_elements(base))
    lower = extensions._payoff(target, 1)
    le, chain = extensions._bound(search, lower, (), range(len(search.elements)))
    le = value_of(lower, le)
    assert (le, chain) == (F(-3), ({1: 1}, {2: 1}))
    assert closes(search, lower, le, (), chain)
    assert not closes(search, lower, le, (), (chain[0], {2: 1, 0: 1}))
    # a zero mass on a, in element 1's event, does not drop it
    assert not closes(search, lower, le, (), (chain[0] | {0: 0}, {2: 1, 0: 1}))


@pytest.fixture
def extension_log(monkeypatch):
    """Every `_bound` and `_closed` call of the extensions, in order:
    ("bound", sign, combo, chain, value) and ("closed", sign, value,
    combos, chain, closed), with the value None for no bound.  Each
    value is the bound's or the walk's `rel` plus the payoff's floor."""
    log = []
    bound, closed = extensions._bound, extensions._closed

    def bound_spy(search, payoff, combo, usable):
        result = bound(search, payoff, combo, usable)
        value = None if result[0] is None else value_of(payoff, result[0])
        log.append(("bound", payoff.sign, combo, result[1], value))
        return result

    def closed_spy(search, payoff, rel, combos, chain, usable):
        shut = closed(search, payoff, rel, combos, chain, usable)
        log.append(("closed", payoff.sign, payoff.floor + rel, list(combos), chain, shut))
        return shut

    monkeypatch.setattr(extensions, "_bound", bound_spy)
    monkeypatch.setattr(extensions, "_closed", closed_spy)
    return log


def test_every_extension_checks_the_chain_of_every_combination(extension_log):
    base, target = reproducer()
    result = extend(base, target)
    lu = -result.upper
    own = {e[2]: e[3] for e in extension_log if e[0] == "bound"}
    # (0,) and (1,) end on their own events, with equal chains, and no
    # bound is known before (2,) reaches LU.  Then every distinct chain
    # run is walked at LU for the combinations still open: (0,)'s
    # closes (0,) and (1,), and (2,)'s closes (2,) and (); (1,)'s, equal
    # to (0,)'s, is kept once and walked only as (0,)'s
    assert own[0,] == own[1,]
    assert extension_log == [
        ("bound", 1, (), own[()], result.lower),
        ("closed", 1, result.lower, [()], own[()], {()}),
        ("bound", -1, (0,), own[0,], None),
        ("bound", -1, (1,), own[1,], None),
        ("bound", -1, (2,), own[2,], lu),
        ("closed", -1, lu, [(0,), (1,), (2,), ()], own[0,], {(0,), (1,)}),
        ("closed", -1, lu, [(2,), ()], own[2,], {(2,), ()}),
    ]
    # an assessed target's LE, its assessed value, is walked too: the
    # natural extension is the same loop over () alone
    extension_log.clear()
    assert natural_extension(base, base.entries[0].variable) == base.entries[0].lower
    assert [e[0] for e in extension_log] == ["bound", "closed"]


def sharing_cases(count):
    """The seeded `extend` inputs of the sharing tests on 3-6 atoms:
    W-coherent and precise bases, conditional or not, with a
    conditional or unconditional target."""
    for seed in range(count):
        rng = random.Random(seed)
        space = random_space(rng, 3, 6)
        draw = random_precise_assessment if seed % 3 == 2 else random_coherent_assessment
        base = draw(rng, space=space, max_entries=4, conditional=bool(seed % 2))
        yield base, random_domain(rng, space, 1, conditional=seed % 4 != 0)[0]


def test_every_extension_result_carries_helpers_that_reach_its_bounds():
    # from the public result alone, with each helper bet's gain G read
    # by `gains.gain` at the assessed prices: under the lower helpers',
    # LE + G <= X on B; under the upper ones', X + G <= LU on B, so a
    # price above LU loses; and G <= 0 wherever else they reach.  Each
    # case's second target is assessed, precisely on a precise base,
    # where the helper is the target's own upper element at stake 1
    precise = 0
    for base, target in sharing_cases(300):
        for t in (target, base.entries[0].variable):
            result = extend(base, t)
            x, b = t.value_map(), t.cond.members
            for sign, value, helpers in (
                (1, result.lower, result.lower_helpers),
                (-1, result.upper, result.upper_helpers),
            ):
                gain = gains.gain(helpers, base).values.values
                assert all(gain[a] <= sign * (x[a] - value) for a in b)
                assert all(g <= 0 for a, g in enumerate(gain) if a not in b)
            entry = base.entry_for(t)
            if entry is not None and entry.is_precise:
                precise += 1
                assert result.upper_helpers == Bet.of(against(t, 1, UPPER))
    assert precise > 90


def helper_documents(count):
    """Seeded documents on 3-5 atoms that price X, Y|E and Z|F from below
    and above, by the least and largest expectation of two positive
    vectors, or precisely, by those of one, and leave T unpriced."""
    for seed in range(count):
        rng = random.Random(seed)
        space = random_space(rng, 3, 5)
        variables = {name: random_variable(rng, space) for name in "XYZT"}
        events = {name: random_event(rng, space) for name in "EF"}
        vectors = [positive_vector(rng, space) for _ in range(1 if seed % 3 == 0 else 2)]
        rows = []
        for name, given in (("X", None), ("Y", "E"), ("Z", "F")):
            cv = restrict(variables[name], events[given] if given else space.omega())
            values = [bayes_value(p, cv) for p in vectors]
            rows.append({"var": name, "given": given, "lower": str(min(values)),
                         "upper": str(max(values))})
        yield {
            "atoms": list(space.atoms),
            "variables": {
                name: {a: str(v) for a, v in zip(space.atoms, x.values)}
                for name, x in variables.items()
            },
            "events": {name: list(e.atoms()) for name, e in events.items()},
            "assessments": rows,
        }


def test_extension_helpers_are_bets_of_document_rows():
    # the helpers of every bound, upper conjugate directions among them,
    # are written by the document's own rows, read back as the same
    # bets, and reach their bound under `gains.gain`, which prices them
    # from the assessment
    conjugate = precise = 0
    for doc in helper_documents(60):
        problem = load_problem(doc)
        rows = {(row["var"], row["given"]) for row in doc["assessments"]}
        t = problem.variable_named("T")
        targets = [t.unconditional(), restrict(t, problem.event_named("E"))]
        targets += [entry.variable for entry in problem.assessment.entries]
        for target in targets:
            result = extend(problem.assessment, target)
            x, b = target.value_map(), target.cond.members
            for sign, value, helpers in (
                (1, result.lower, result.lower_helpers),
                (-1, result.upper, result.upper_helpers),
            ):
                assert isinstance(helpers, Bet)
                written = witness_to_json(problem, helpers)
                assert {(term["var"], term["given"]) for term in written["terms"]} <= rows
                assert witness_from_json(problem, written) == helpers
                conjugate += sum(term.get("price") == UPPER for term in written["terms"])
                gain = gains.gain(helpers, problem.assessment).values.values
                assert all(gain[a] <= sign * (x[a] - value) for a in b)
                assert all(g <= 0 for a, g in enumerate(gain) if a not in b)
            entry = problem.assessment.entry_for(target)
            precise += entry is not None and entry.is_precise
    assert conjugate > 200 and precise > 60


def test_each_combination_is_solved_or_closed_by_an_earlier_chain(extension_log):
    # replays the upper extension's log: a combination is solved only
    # when no chain run before it closes it at the best bound so far,
    # and otherwise a walk at that bound, of a chain run before, closed
    # it; every combination is closed by the walks at LU
    skipped = solved_after_a_bound = 0
    for base, target in sharing_cases(300):
        extension_log.clear()
        result = extend(base, target)
        upper = [e for e in extension_log if e[1] == -1]
        if not upper:
            continue  # a precise target keeps its value
        search = _Search(expanded_elements(base))
        combos = upper_combos(search.elements, target)
        usable = [k for (k,) in combos[:-1]]
        payoff = extensions._payoff(target, -1)
        best, ran, walked, log = None, [], {}, iter(upper)
        entry = next(log)
        for combo in combos:
            if entry is None or entry[:3] != ("bound", -1, combo):
                skipped += 1
                assert best is not None and best in walked.get(combo, ())
                continue
            if best is not None:
                solved_after_a_bound += 1
                assert not any(closes(search, payoff, best, combo, c, usable) for c in ran)
            ran.append(entry[3])
            if entry[4] is not None and (best is None or entry[4] > best):
                best = entry[4]
            entry = next(log, None)
            while entry is not None and entry[0] == "closed":
                assert entry[2] == best and entry[4] in ran
                for c in entry[5]:
                    walked.setdefault(c, set()).add(best)
                entry = next(log, None)
        assert entry is None and best == -result.upper
        assert all(best in walked[c] for c in combos)
    assert skipped > 600 and solved_after_a_bound > 100


class Unshared(tuple):
    """A chain equal only to itself."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def test_extend_refusing_every_shared_chain_solves_every_combination(monkeypatch):
    cases = list(sharing_cases(300))
    shared = [extend(base, target) for base, target in cases]
    owners = {}
    bound, closed = extensions._bound, extensions._closed
    solved = []

    def owned(search, payoff, combo, usable):
        value, chain = bound(search, payoff, combo, usable)
        # equal to no other chain, so that no chain is kept once for two
        chain = Unshared(chain)
        owners[id(chain)] = (combo, chain)  # kept alive: no id reuse
        solved.append(combo)
        return value, chain

    def own_only(search, payoff, rel, combos, chain, usable):
        return closed(search, payoff, rel, combos, chain, usable) & {owners[id(chain)][0]}

    monkeypatch.setattr(extensions, "_bound", owned)
    monkeypatch.setattr(extensions, "_closed", own_only)
    for (base, target), expected in zip(cases, shared):
        solved.clear()
        assert extend(base, target) == expected
        entry = base.entry_for(target)
        if entry is None or not entry.is_precise:
            # LE's () and every combination of the upper extension
            assert solved == [()] + upper_combos(expanded_elements(base), target)


def test_upper_extension_is_the_largest_bound_of_every_combination(extension_log):
    # the oracle runs each combination on its own, with no sharing
    empty_run = 0
    for base, target in [*sharing_cases(300), reproducer()]:
        extension_log.clear()
        lu = upper_extension(base, target)
        entry = base.entry_for(target)
        if entry is not None and entry.is_precise:
            assert lu == entry.lower
            continue
        solved_empty = ("bound", -1, ()) in [e[:3] for e in extension_log]
        search = _Search(expanded_elements(base))
        combos = upper_combos(search.elements, target)
        usable = [k for (k,) in combos[:-1]]
        payoff = extensions._payoff(target, -1)
        bounds = [extensions._bound(search, payoff, c, usable)[0] for c in combos]
        assert lu == -max(value_of(payoff, b) for b in bounds if b is not None)
        # () is solved exactly when every (k,) chain ends on its own event
        assert solved_empty == all(b is None for b in bounds[:-1])
        empty_run += solved_empty
    assert empty_run >= 40


def test_extended_assessments_pass_the_w_coherence_oracle():
    # the re-check the chains replace, kept as an oracle: the base with
    # the target's lower value at LE, and at LU, is W-coherent
    rng = random.Random(443)
    for _ in range(300):
        space = random_space(rng, 3, 5)
        base = random_coherent_assessment(rng, space=space, max_entries=3)
        if rng.random() < 0.25:
            target = rng.choice(base.entries).variable
        else:
            target = random_domain(rng, space, 1, rng.random() < 0.5)[0]
        result = extend(base, target)
        for value in {result.lower, result.upper}:
            assert check_w_coherence(with_lower(base, target, value)).passed


def test_extension_programs_start_feasible(solved_programs):
    # the bound program prices from min_B Y, which zero stakes attain;
    # the shrinking steps and the base's certification are checker
    # programs.  25 draws, as the first 20 leave 200 programs
    rng = random.Random(43)
    for _ in range(25):
        base = random_coherent_assessment(rng, space=random_space(rng, 3, 5))
        for conditional in (False, True):
            target = random_domain(rng, base.space, 1, conditional)[0]
            result = extend(base, target)
            assert result.lower <= result.upper
    assert len(solved_programs) > 200
    # `Constraint` holds every row to rhs >= 0 over x >= 0, so the
    # origin is a feasible start; every program ends optimal
    assert all(isinstance(outcome, lp.Optimal) for _, outcome in solved_programs)


class CountingRuns(_Search):
    """A search that records the programs each `run` solves."""

    runs: list = []

    def run(self, combos, given=()):
        start = self.trace.solves
        witness = super().run(combos, given)
        CountingRuns.runs.append(self.trace.solves - start)
        return witness


def test_the_base_is_checked_once_per_call(monkeypatch):
    monkeypatch.setattr(extensions, "_Search", CountingRuns)
    monkeypatch.setattr(CountingRuns, "runs", [])
    base, target = reproducer()
    # the bounds are certified from their own chains: only the base is
    # run, once
    for call in (extend, natural_extension, upper_extension):
        CountingRuns.runs.clear()
        call(base, target)
        assert len(CountingRuns.runs) == 1
    CountingRuns.runs.clear()
    source = natural_extension_prevision(base)
    source(target)
    source(restrict(target.as_variable().scale(2), target.cond))
    assert len(CountingRuns.runs) == 1
    # over an unconditional base, the chains of an unconditional target's
    # upper bounds close every combination of the base: a (k,) chain is
    # its bound program's duals, with k for and against, so they expect
    # 0 from g_k and charge B_k, and they dominate and touch every entry
    rng = random.Random(449)
    unassessed = 0
    for _ in range(40):
        space = random_space(rng, 3, 6)
        base = random_coherent_assessment(rng, space=space, conditional=False)
        target = random_domain(rng, space, 1, conditional=False)[0]
        if base.entry_for(target) is not None:
            continue
        unassessed += 1
        for call in (extend, upper_extension):
            CountingRuns.runs.clear()
            call(base, target)
            assert CountingRuns.runs == [0]
    assert unassessed > 30


def test_each_distinct_chain_is_walked_once_per_bound_and_given_once(monkeypatch, extension_log):
    # equal chains, such as the reproducer's (0,) and (1,), are kept
    # once: no walk at one bound repeats a chain, and the base's run is
    # given each distinct chain of the call once
    runs = []
    run = _Search.run

    def spy(search, combos, given=()):
        runs.append(list(given))
        return run(search, combos, given)

    monkeypatch.setattr(_Search, "run", spy)
    equal = 0
    for base, target in [reproducer(), *sharing_cases(300)]:
        runs.clear()
        extension_log.clear()
        extend(base, target)
        (chains,) = runs
        assert all(a != b for i, a in enumerate(chains) for b in chains[i + 1:])
        ran = [e[3] for e in extension_log if e[0] == "bound"]
        assert all(chain in chains for chain in ran)
        walks = [(e[1], e[2], e[4]) for e in extension_log if e[0] == "closed"]
        assert all(w not in walks[i + 1:] for i, w in enumerate(walks))
        equal += len(ran) - len(chains)
    assert equal > 50


def test_the_search_is_built_once_per_extend(monkeypatch):
    built = []

    class Counting(_Search):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(extensions, "_Search", Counting)
    space = PossibilitySpace(("a", "b"))
    x = space.indicator(space.event(["a"])).unconditional()
    interval = Assessment.build(space, [(x, F(1, 4), F(1, 2))])
    for base, target in [reproducer(), (interval, x)]:
        built.clear()
        extend(base, target)
        assert len(built) == 1


def test_the_prevision_builds_one_search_for_every_lookup(monkeypatch):
    problem = load_problem(definetti_example(1, 2, 3))
    base = problem.assessment
    basis = [problem.variables["A"]]
    events = [problem.events[name] for name in ("Omega", "A", "Brest")]
    built = []

    class Counting(_Search):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(extensions, "_Search", Counting)
    source = natural_extension_prevision(base)
    seen = {}

    def recording(cv):
        seen[cv] = source(cv)
        return seen[cv]

    report = check_a1_a4(recording, basis, events)
    assert len(built) == 1  # one per looked-up target would be 16
    assert report.passed
    assert [(c.axiom, c.checked) for c in report.checks] == [
        ("internality", 15), ("homogeneity", 12),
        ("superadditivity", 3), ("bayes-compound", 9),
    ]
    assert len(seen) > 1
    for cv, value in seen.items():
        assert value == natural_extension(base, cv)
    other = PossibilitySpace(("a", "b"))
    with pytest.raises(SpaceMismatch):
        source(restrict(other.variable({"a": 1, "b": 0}), other.omega()))


def test_an_extension_solves_every_program_on_the_trace_it_is_given(monkeypatch):
    # the base check included: lp.solve, looked up at each call, sees
    # exactly the programs the trace counts
    base, target = reproducer()
    solve = lp.solve
    pivots = []

    def counting(program):
        outcome = solve(program)
        pivots.append(outcome.pivots)
        return outcome

    monkeypatch.setattr(lp, "solve", counting)
    for call in (natural_extension, upper_extension, extend):
        pivots.clear()
        trace = lp.Trace()
        call(base, target, trace=trace)
        assert (trace.solves, trace.max_pivots) == (len(pivots), max(pivots))


# programs solved for A from de Finetti (1, 2, n) with A's own entry
# removed, read from one trace: natural_extension (LE's bound and the
# base's certification, n + 2 programs) and then the oracle W-coherence
# check at LE, in all `natural`; extend (both bounds and the base's
# certification, n + 3: the upper bound's first chain closes every
# other combination) and then the oracle checks at LE and LU, in all
# `both`.
# Deterministic, so a change here is a change of algorithm
PINNED_EXTENSIONS = pytest.mark.parametrize(
    "n,natural,both",
    [(4, 11, 17), (5, 13, 20), (6, 15, 23), (7, 17, 26), (8, 19, 29),
     (9, 21, 32), (10, 23, 35)],
)


@PINNED_EXTENSIONS
def test_extension_lp_counts_are_pinned(n, natural, both):
    problem = load_problem(definetti_example(1, 2, n))
    target = problem.variables["A"].unconditional()
    base = Assessment(
        problem.space,
        tuple(e for e in problem.assessment.entries if e.variable != target),
    )
    trace = lp.Trace()
    assert natural_extension(base, target, trace=trace) == F(1, 3)
    assert trace.solves == n + 2
    assert check_w_coherence(with_lower(base, target, F(1, 3)), trace=trace).passed
    assert trace.solves == natural
    trace = lp.Trace()
    result = extend(base, target, trace=trace)
    assert (result.lower, result.upper) == (F(1, 3), F(1))
    assert trace.solves == n + 3
    for value in (result.lower, result.upper):
        assert check_w_coherence(with_lower(base, target, value), trace=trace).passed
    assert trace.solves == both


def scale_recipe(atoms, entries):
    """The scale recipe's input and `extend` target at atoms x entries:
    from rng 1, a conditional envelope of three members, drawn until it
    has at least 3/4 of `entries`, and a conditional target."""
    rng = random.Random(1)
    space = PossibilitySpace(tuple(f"w{i}" for i in range(atoms)))
    while True:
        base = random_coherent_assessment(rng, space, max_entries=entries, members=3)
        if 4 * len(base.entries) >= 3 * entries:
            return base, random_domain(rng, space, 1)[0]


def test_extend_program_count_is_pinned_on_the_scale_recipe():
    # 14 entries, all lower: LE's bound takes 2 programs and the upper
    # extension solves 6 of its 15 combinations, 2 programs each; the
    # base's certification then runs what their chains leave open, 0 of
    # its 15 combinations.  The check of the base alone takes 5 programs
    # (19 in all when it ran first, 37 when each combination was also
    # solved).  Deterministic, like the counts above
    base, target = scale_recipe(8, 15)
    assert len(base.entries) == 14
    trace = lp.Trace()
    extend(base, target, trace=trace)
    assert trace.solves == 14


@pytest.mark.parametrize(
    "atoms,entries,pinned",
    [
        (12, 22, {"w-coherence": (10, 51), "extend": (24, 40), "convexity": (9, 34)}),
        (16, 28, {"w-coherence": (7, 65), "extend": (20, 93), "convexity": (10, 37)}),
    ],
)
def test_the_scale_table_is_pinned(atoms, entries, pinned):
    # programs / max pivots of the ROADMAP scale table.  Most row updates
    # of these programs pass 62 bits and are divided by their gcd, the
    # rest are not; how far a row is reduced must move no pivot
    base, target = scale_recipe(atoms, entries)
    calls = {
        "w-coherence": lambda trace: check_w_coherence(base, trace=trace),
        "extend": lambda trace: extend(base, target, trace=trace),
        "convexity": lambda trace: check_convex(base, trace=trace),
    }
    for name, call in calls.items():
        trace = lp.Trace()
        call(trace)
        assert (trace.solves, trace.max_pivots) == pinned[name], name


def two_sided_envelope(rng, space, conditional):
    """The least and largest Bayes values of one to three positive
    vectors on a fresh domain, as lower and upper values."""
    vectors = [positive_vector(rng, space) for _ in range(rng.randint(1, 3))]
    items = []
    for cv in random_domain(rng, space, 4, conditional):
        values = [bayes_value(p, cv) for p in vectors]
        items.append((cv, min(values), max(values)))
    return Assessment.build(space, items)


def pinned_extension_cases(count=700):
    """Seeded `extend` inputs on 3-6 atoms, as (base, targets): coherent,
    precise, arbitrary and two-sided envelope bases in turn, conditional
    or not, each with a fresh conditional target, a fresh unconditional
    one and an assessed one."""
    for seed in range(count):
        rng = random.Random(seed)
        space = random_space(rng, 3, 6)
        conditional = rng.random() < 0.7
        if seed % 4 == 0:
            base = random_coherent_assessment(rng, space=space, conditional=conditional)
        elif seed % 4 == 1:
            base = random_precise_assessment(rng, space=space, conditional=conditional)
        elif seed % 4 == 2:
            base = random_arbitrary_assessment(rng, space=space, conditional=conditional)
        else:
            base = two_sided_envelope(rng, space, conditional)
        fresh = [random_domain(rng, space, 1, conditional=c)[0] for c in (True, False)]
        yield base, [*fresh, rng.choice(base.entries).variable]


def _described_terms(bet):
    return tuple(
        (
            tuple(sorted(t.variable.cond.members)),
            tuple(map(str, t.variable.values)),
            str(t.stake),
            t.side,
            t.price,
        )
        for t in bet.terms
    )


# sha256 over the `extend` calls of `pinned_extension_cases`, each on a
# fresh trace: lower, upper and each helper bet's terms in order
# (variable, stake, side and price), or the witness terms of a base that
# is refused, then programs and largest pivot count.  Deterministic, so
# a change here is a change of the bounds, their helpers or the search
PINNED_EXTENSION_RESULTS = "d45edbd6aa0c53fb53b263a1610d545c4bf1d6826a1262251dec70c1c52209ce"


def test_the_extension_results_are_pinned():
    digest = hashlib.sha256()
    calls = refused = assessed = precise = conditional = 0
    for base, targets in pinned_extension_cases():
        for target in targets:
            calls += 1
            trace = lp.Trace()
            try:
                result = extend(base, target, trace=trace)
            except BaseNotCoherent as refusal:
                refused += 1
                described = ("refused", _described_terms(refusal.witness))
            else:
                described = (
                    str(result.lower),
                    str(result.upper),
                    _described_terms(result.lower_helpers),
                    _described_terms(result.upper_helpers),
                )
                entry = base.entry_for(target)
                assessed += entry is not None
                precise += entry is not None and entry.is_precise
                conditional += not target.cond.is_sure
            digest.update(repr((described, trace.solves, trace.max_pivots)).encode())
    # 2,100 calls: 252 refused; of the rest, 992 conditional targets,
    # 620 assessed and 254 precise
    assert calls >= 1000 and refused > 200 and conditional > 800
    assert assessed > 500 and precise > 200
    assert digest.hexdigest() == PINNED_EXTENSION_RESULTS


def test_conjugacy_observation_on_corpus(product_rule_base):
    # recorded behaviour, not a law: mirroring the target can move the
    # admissible interval asymmetrically when other entries are present
    space, assessment, target = product_rule_base
    negated = restrict(target.as_variable().scale(-1), target.cond)
    assert upper_extension(assessment, target) == F(2, 5)
    assert natural_extension(assessment, negated) == F(-1)
    assert upper_extension(assessment, negated) == -natural_extension(
        assessment, target
    )


def test_extend_bundles_both_bounds(product_rule_base):
    _, assessment, target = product_rule_base
    result = extend(assessment, target)
    assert result.lower == F(1, 5)
    assert result.lower <= result.upper


# ---------------------------------------------------------------------------
# axiom suite


def test_axioms_pass_for_natural_extension():
    space = PossibilitySpace(("a", "b", "c"))
    domain = [
        space.indicator(space.event(["a"])).unconditional(),
        restrict(space.variable({"a": 0, "b": 2, "c": 1}), space.event(["b", "c"])),
    ]
    base = lower_envelope(
        space,
        [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 3), F(1, 3), F(1, 3)]],
        domain,
    )
    basis = [
        space.indicator(space.event(["a"])),
        space.variable({"a": 0, "b": 1, "c": 2}),
    ]
    events = [space.omega(), space.event(["a", "b"]), space.event(["b", "c"])]
    report = check_a1_a4(natural_extension_prevision(base), basis, events)
    assert report.passed, report


def test_axioms_fail_for_constant_underpricing():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 2, "b": 3})
    report = check_a1_a4(lambda cv: F(-100), [x], [space.omega()])
    internality = report["internality"]
    assert not internality.passed
    assert internality.counterexample
    assert not report["homogeneity"].passed
    assert not report.passed


def test_axioms_zero_scaling_prices_zero():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": 0})
    base = Assessment.build(space, [(x.unconditional(), F(1, 3))])
    source = natural_extension_prevision(base)
    assert source(restrict(x.scale(0), space.omega())) == 0


def test_axioms_domain_not_closed():
    space = PossibilitySpace(("a", "b"))
    x = space.variable({"a": 1, "b": 0})
    assessment = Assessment.build(space, [(x.unconditional(), F(1, 3))])
    with pytest.raises(DomainNotClosed):
        check_a1_a4(assessment, [x], [space.omega()])
