"""Acceptance suite: one test per criterion, exact tolerances.

Each test prints a single CRITERION line; run with `pytest -s
tests/test_acceptance.py` to see them all.  Everything is exact
rational arithmetic; where a criterion says "exact, zero tolerance"
the assertions are equalities of Fractions.
"""

import random
import time
from fractions import Fraction

from axioms import check_a1_a4
from conftest import family_entries, positive_vector, random_space
from corpus import small_corpus
from enumeration_oracle import find_violation_enumeration, natural_extension_grid
from grid_oracle import find_violation_grid
from previsio import gains
from previsio.checkers import (
    PartitionFamily,
    check_aul,
    check_bi_coherence,
    check_coherence_unconditional,
    check_convex,
    check_df_precise_conditional,
    check_df_precise_unconditional,
    check_separate_coherence,
    check_w_coherence,
    check_walley_asl,
)
from previsio.conglomerability import (
    check_conglomerability,
    definetti_example,
    walley_666_example,
)
from previsio.envelopes import convex_envelope, credal_polytope, lower_envelope
from previsio.errors import MalformedFamily
from previsio.extensions import natural_extension, natural_extension_prevision
from previsio.jsonio import load_problem
from previsio.model import Assessment, Entry, PossibilitySpace, restrict, zero_given

F = Fraction


def _report(number: int, text: str) -> None:
    print(f"CRITERION {number}: PASS - {text}")


def test_criterion_1_definetti_truncation():
    started = time.monotonic()
    doc = definetti_example(1, 2, 8)
    problem = load_problem(doc)
    cells = [problem.events[name] for name in doc["cells"]]
    verdict = check_df_precise_conditional(problem.assessment)
    assert verdict.passed
    report = check_conglomerability(
        problem.assessment, problem.variables["A"], cells
    )
    assert report.inf_cell == F(1, 3)
    assert report.sup_cell == F(1, 3)
    assert report.value == F(1, 2)
    assert report.gap == F(1, 6)
    assert not report.conglomerable
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(
        1,
        f"de Finetti h=1 k=2 N=8 dF-coherent, interval [1/3,1/3] vs 1/2, "
        f"gap 1/6, {elapsed:.2f}s",
    )


def test_criterion_2_bi_coherence_examples():
    three = PossibilitySpace(("w1", "w2", "w3"))
    vac3 = Assessment.build(
        three,
        [(three.indicator(three.event([w])).unconditional(), 0) for w in three.atoms],
    )
    assert check_bi_coherence(vac3).passed

    two = PossibilitySpace(("w1", "w2"))
    vac2 = Assessment.build(
        two,
        [(two.indicator(two.event([w])).unconditional(), 0) for w in two.atoms],
    )
    verdict = check_bi_coherence(vac2)
    assert not verdict.passed
    table = gains.gain(verdict.witness, vac2)
    assert set(table.values.values) == {F(-1, 2)}
    assert sum(t.stake for t in verdict.witness.terms) == 1

    for space in (two, three):
        uniform = Assessment.build(
            space,
            [
                (
                    space.indicator(space.event([w])).unconditional(),
                    F(1, space.size),
                    F(1, space.size),
                )
                for w in space.atoms
            ],
        )
        assert check_df_precise_unconditional(uniform).passed
        assert check_bi_coherence(uniform).passed
    _report(2, "vacuous 3-atom passes, 2-atom fails with gain -1/2, precise pass")


def test_criterion_3_walley_666_truncation():
    doc = walley_666_example(4)
    problem = load_problem(doc)
    cells = [problem.events[name] for name in doc["cells"]]
    omega = problem.space.omega()
    for i, cell in enumerate(cells, start=1):
        assert problem.assessment.lower(restrict(problem.variables["A"], cell)) == 1
        assert problem.assessment.lower(
            restrict(problem.variables[f"w{i}"], cell)
        ) == 1
    assert problem.assessment.lower(restrict(problem.variables["A"], omega)) == F(1, 2)
    assert check_aul(problem.assessment).passed
    report = check_conglomerability(
        problem.assessment, problem.variables["A"], cells
    )
    assert report.sup_cell == 1 and report.value <= report.sup_cell
    assert report.inf_cell == 1 and not report.lower_condition
    assert report.gap == F(1, 2)
    _report(
        3,
        "Bayes values P(A|Bn)=P(wn|Bn)=1 exact, AUL passes, limit gap 1/2 reported",
    )


def _chain_instance(rng):
    space = random_space(rng, 3, 4)
    kind = rng.random()
    if kind < 0.35:  # precise, dF-coherent by construction
        p = positive_vector(rng, space)
        items = []
        for _ in range(rng.randint(1, 4)):
            x = space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms})
            cv = x.unconditional()
            if any(cv == c for c, *_ in items):
                continue
            value = sum(pi * v for pi, v in zip(p, x.values))
            items.append((cv, value, value))
        return "precise", Assessment.build(space, items)
    if kind < 0.7:  # lower envelope, W-coherent by construction
        domain = []
        for _ in range(rng.randint(1, 4)):
            x = space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms})
            event = space.event(
                [a for a in space.atoms if rng.random() < 0.6] or [space.atoms[0]]
            )
            cv = restrict(x, event)
            if cv not in domain:
                domain.append(cv)
        members = [positive_vector(rng, space) for _ in range(rng.randint(1, 3))]
        return "envelope", lower_envelope(space, members, domain)
    items = []  # arbitrary, possibly inconsistent
    for _ in range(rng.randint(1, 4)):
        x = space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms})
        event = space.event(
            [a for a in space.atoms if rng.random() < 0.6] or [space.atoms[0]]
        )
        cv = restrict(x, event)
        if any(cv == c for c, *_ in items):
            continue
        lo, hi = cv.inf(), cv.sup()
        items.append((cv, lo + (hi - lo) * F(rng.randint(-1, 5), 4)))
    return "arbitrary", Assessment.build(space, items)


def _random_partition_family(rng):
    space = random_space(rng, 3, 4)
    atoms = list(space.atoms)
    rng.shuffle(atoms)
    split = rng.randint(1, len(atoms) - 1)
    cells = [space.event(atoms[:split]), space.event(atoms[split:])]
    members = [space.constant(0)] + [space.indicator(c) for c in cells]
    extra = space.variable({a: F(rng.randint(-2, 2)) for a in space.atoms})
    if extra not in members:
        members.append(extra)
    p = positive_vector(rng, space)
    table = []
    for member in members:
        row = []
        for cell in cells:
            mass = sum(p[i] for i in cell.members)
            row.append(
                sum(p[i] * member.values[i] for i in cell.members) / mass
            )
        table.append(row)
    if rng.random() < 0.5:  # sometimes perturb the family off-Bayes
        i = rng.randrange(len(members))
        j = rng.randrange(2)
        table[i][j] += F(rng.randint(-2, 2), 3)
    family = PartitionFamily(space, tuple(cells), tuple(members))
    entries = family_entries(cells, members, table)  # drop structurally conflicting draws
    side = ()
    if rng.random() < 0.6:
        value = sum(pi * v for pi, v in zip(p, members[-1].values))
        if rng.random() < 0.3:
            value += F(rng.randint(-1, 1))
        side = (Entry(members[-1].unconditional(), value, value),)
    return Assessment(space, (*side, *entries)), family


def _random_separate_family(rng):
    space = random_space(rng, 3, 4)
    atoms = list(space.atoms)
    rng.shuffle(atoms)
    split = rng.randint(1, len(atoms) - 1)
    cells = [space.event(atoms[:split]), space.event(atoms[split:])]
    p = positive_vector(rng, space)
    items = {}
    for cell in cells:
        items[restrict(space.indicator(cell), cell)] = (F(1), None)
        for _ in range(rng.randint(0, 2)):
            x = space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms})
            cv = restrict(x, cell)
            if cv in items:
                continue
            mass = sum(p[i] for i in cell.members)
            value = sum(p[i] * v for i, v in cv.value_map().items()) / mass
            items[cv] = (value - F(rng.randint(-1, 2), 7), None)
    return Assessment.build(space, [(cv, lo, up) for cv, (lo, up) in items.items()])


def test_criterion_4_implication_chain():
    rng = random.Random(40400)
    checked = 0
    for _ in range(120):
        kind, assessment = _chain_instance(rng)
        checked += 1
        if kind == "precise" and assessment.is_unconditional:
            df = check_df_precise_unconditional(assessment).passed
            bi = check_bi_coherence(assessment).passed
            coh = check_coherence_unconditional(assessment).passed
            assert not df or bi      # dF implies bi
            assert not bi or coh     # bi implies coherence
        w = check_w_coherence(assessment).passed
        aul = check_aul(assessment).passed
        assert not w or aul          # W-coherence implies AUL
    families = 0
    while families < 40:
        try:
            assessment, family = _random_partition_family(rng)
        except MalformedFamily:
            continue
        checked += 1
        families += 1
        verdict = check_walley_asl(assessment, family)
        if verdict.passed:
            assert check_aul(assessment).passed  # ASL implies AUL
    for _ in range(40):
        family = _random_separate_family(rng)
        checked += 1
        separate = check_separate_coherence(family).passed
        assert separate == check_w_coherence(family).passed  # separate coherence iff W-coherence
    assert checked == 200
    _report(4, f"{checked} random instances, zero implication violations")


def test_criterion_5_envelope_round_trip():
    rng = random.Random(50500)
    for _ in range(100):
        space = random_space(rng, 3, 5)
        domain = []
        for _ in range(rng.randint(1, 3)):
            x = space.variable({a: F(rng.randint(-3, 3)) for a in space.atoms})
            event = space.event(
                [a for a in space.atoms if rng.random() < 0.6] or [space.atoms[0]]
            )
            cv = restrict(x, event)
            if cv not in domain:
                domain.append(cv)
        members = [positive_vector(rng, space) for _ in range(rng.randint(2, 4))]
        envelope = lower_envelope(space, members, domain)
        assert check_w_coherence(envelope).passed
        credal = credal_polytope(envelope, positivity=[])
        per_entry = credal.per_entry_min(envelope)
        for entry in envelope.entries:
            assert per_entry[entry.variable] == entry.lower
    _report(5, "100 envelopes W-coherent; vertex minima reproduce them exactly")


def test_criterion_6_natural_extension():
    rng = random.Random(60600)
    grid_checked = 0
    for _ in range(50):
        space = PossibilitySpace(("a", "b", "c"))
        domain = []
        while len(domain) < 2:
            x = space.variable({a: F(rng.randint(-2, 2)) for a in space.atoms})
            event = space.event(
                [a for a in space.atoms if rng.random() < 0.6] or [space.atoms[0]]
            )
            cv = restrict(x, event)
            if cv not in domain:
                domain.append(cv)
        weights = [
            [rng.randint(1, 3) for _ in space.atoms]
            for _ in range(rng.randint(1, 2))
        ]
        members = [[F(w, sum(ws)) for w in ws] for ws in weights]
        base = lower_envelope(space, members, domain)
        for entry in base.entries:
            assert natural_extension(base, entry.variable) == entry.lower
        y = space.variable({a: F(rng.randint(-2, 2)) for a in space.atoms})
        target = restrict(y, space.omega())
        if base.entry_for(target) is not None:
            continue
        le = natural_extension(base, target)
        assert le <= target.sup()
        oracle = None
        for q, limit in ((6, 3), (12, 4), (16, 6), (24, 6)):
            oracle = natural_extension_grid(
                base, target, max_denominator=q, stake_limit=limit
            )
            assert oracle <= le
            if oracle == le:
                break
        assert oracle == le
        grid_checked += 1
    assert grid_checked >= 40

    # product rule on triples with positive inner value
    triples = 0
    while triples < 10:
        space = random_space(rng, 3, 4)
        a_event = space.event(
            [a for a in space.atoms if rng.random() < 0.5] or [space.atoms[0]]
        )
        if a_event.is_sure:
            continue
        x = space.variable({at: F(rng.randint(0, 4)) for at in space.atoms})
        ax = space.indicator(a_event).pointwise_mul(x)
        domain = [
            restrict(ax, space.omega()),
            restrict(space.indicator(a_event), space.omega()),
            restrict(x, a_event),
        ]
        if len(set(domain)) < 3:
            continue
        members = [positive_vector(rng, space) for _ in range(rng.randint(1, 3))]
        assessment = lower_envelope(space, members, domain)
        if assessment.lower(domain[2]) <= 0:
            continue
        assert check_w_coherence(assessment).passed
        assert assessment.lower(domain[0]) >= assessment.lower(
            domain[1]
        ) * assessment.lower(domain[2])
        triples += 1
    _report(
        6,
        f"50 bases: LE=LP on domains, LE<=sup, grid oracle matched "
        f"({grid_checked} targets); product rule held on {triples} triples",
    )


def test_criterion_7_axiom_suite_on_structured_domain():
    space = PossibilitySpace(("a", "b", "c", "d"))
    domain = [
        restrict(space.variable({"a": 1, "b": 0, "c": 0, "d": 2}), space.omega()),
        restrict(
            space.variable({"a": 0, "b": 1, "c": 3, "d": 0}),
            space.event(["b", "c", "d"]),
        ),
    ]
    base = lower_envelope(
        space,
        [
            [F(1, 4), F(1, 4), F(1, 4), F(1, 4)],
            [F(1, 2), F(1, 6), F(1, 6), F(1, 6)],
        ],
        domain,
    )
    basis = [
        space.indicator(space.event(["a", "b"])),
        space.variable({"a": 0, "b": 1, "c": 2, "d": 0}),
        space.variable({"a": 2, "b": 0, "c": -1, "d": 1}),
    ]
    events = [
        space.omega(),
        space.event(["a", "b", "c"]),
        space.event(["b", "d"]),
    ]
    report = check_a1_a4(natural_extension_prevision(base), basis, events)
    assert report.passed, report
    total = sum(check.checked for check in report.checks)
    _report(7, f"all four axioms hold on {total} sampled combinations")


def test_criterion_8_oracle_equivalence():
    corpus = small_corpus()
    comparisons = 0
    for name, assessment in corpus:
        for notion, checker in (
            ("w-coherence", check_w_coherence),
            ("aul", check_aul),
        ):
            verdict = checker(assessment)
            enumerated = find_violation_enumeration(assessment, notion)
            assert (enumerated is None) == verdict.passed, (name, notion)
            bet = find_violation_grid(assessment, notion, max_denominator=8)
            assert (bet is None) == verdict.passed, (name, notion)
            comparisons += 1
    _report(
        8,
        f"{comparisons} corpus comparisons: shrinking = enumeration = grid",
    )


def test_criterion_9_convex_envelopes():
    rng = random.Random(90900)
    centered_seen = 0
    for _ in range(20):
        space = random_space(rng, 3, 4)
        domain = []
        for _ in range(rng.randint(1, 2)):
            x = space.variable({a: F(rng.randint(-2, 3)) for a in space.atoms})
            event = space.event(
                [a for a in space.atoms if rng.random() < 0.6] or [space.atoms[0]]
            )
            cv = restrict(x, event)
            if cv not in domain:
                domain.append(cv)
        for cv in list(domain):
            zero = zero_given(cv.cond)
            if zero not in domain:
                domain.append(zero)
        members = [positive_vector(rng, space) for _ in range(rng.randint(1, 3))]
        alphas = [F(rng.randint(0, 4), 3) for _ in members]
        result = convex_envelope(space, members, alphas, domain)
        assert check_convex(result.assessment).passed
        events = []
        for cv in domain:
            if cv.cond not in events:
                events.append(cv.cond)
        direct = all(
            min(
                a / sum(F(x) for i, x in enumerate(p) if i in event.members)
                for p, a in zip(members, alphas)
            )
            == 0
            for event in events
        )
        assert result.centered == direct
        centered_seen += result.centered
    _report(
        9,
        f"20 shifted envelopes convex; centered flag agreed "
        f"({centered_seen} centered)",
    )
