"""The benchmark's workloads: seeded inputs, operations and known answers.

Each workload turns a seed into a list of operations.  An operation is
one call into previsio's public entry points (the timed part) plus the
answer it must give, which is checked outside the timed part.  The
generators live here and not in the test suite, so that refactoring
the tests cannot move the benchmark.

Workloads:

* ``classical`` -- the paper's counterexamples (de Finetti's h/k
  partition and Walley's example 6.6.6 at small truncations) written to
  files in set-up and checked through ``cli.run``.  A few large
  conditional assessments with 2^cells support unions, so most time
  goes to probe enumeration and pivoting.
  It is the only workload that runs the CLI and the JSON layer.  The
  generators are Bayes-completed, so every verdict is "pass".
* ``random-mixed`` -- seeded conditional assessments on 4-6 atoms,
  checked through the library.  Operations take milliseconds, so the
  fixed cost of each call (element expansion, program build,
  certificate checks, the witness re-check of failing verdicts) weighs
  as much as pivoting.
* ``inference`` -- natural and upper extension of seeded targets, and
  credal-set vertices, on unconditional envelopes.  Free variables,
  minimised objectives and discarded unbounded programs in the LP
  layer, plus the coherence re-checks of ``extensions`` and the double
  description of ``envelopes``; neither checker workload runs these.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from previsio import checkers, cli, envelopes, extensions
from previsio.model import Assessment, PossibilitySpace, restrict

F = Fraction


@dataclass
class Op:
    """One operation: `call` is timed; `mismatch` judges its output
    untimed and returns None when the output is the known answer."""

    kind: str
    call: Callable[[], Any]
    mismatch: Callable[[Any], str | None]


@dataclass
class Corpus:
    """The operations of one run, cycled in order.  The measured loop
    may only stop after a multiple of `stop_every` operations, so that
    a run of the small classical corpus always covers whole cycles."""

    ops: list[Op]
    stop_every: int
    window: int  # operations over which the traced run reports layers


# ---------------------------------------------------------------------------
# classical

CLASSICAL_EXAMPLES = (
    ("definetti", "--h", "1", "--k", "1", "--n", "3"),
    ("definetti", "--h", "2", "--k", "2", "--n", "2"),
    ("definetti", "--h", "1", "--k", "3", "--n", "2"),
    ("definetti", "--h", "3", "--k", "1", "--n", "2"),
    ("definetti", "--h", "2", "--k", "3", "--n", "2"),
    ("definetti", "--h", "1", "--k", "2", "--n", "3"),
    ("definetti", "--h", "2", "--k", "1", "--n", "3"),
    ("definetti", "--h", "2", "--k", "2", "--n", "3"),
    ("definetti", "--h", "1", "--k", "1", "--n", "4"),
    ("walley666", "--n", "1"),
    ("walley666", "--n", "2"),
)
CLASSICAL_NOTIONS = ("df-conditional", "aul", "w-coherence")


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _passing_report(notion: str) -> Callable[[Any], str | None]:
    def mismatch(output: tuple[int, str]) -> str | None:
        code, text = output
        if code != 0:
            return f"{notion}: exit code {code}, expected 0"
        verdict = json.loads(text)["results"]["verdict"]
        if verdict.get("passed") is not True:
            return f"{notion}: verdict {verdict!r}, expected a pass"
        return None

    return mismatch


def classical(seed: int, workdir: Path) -> Corpus:
    ops = []
    for spec in CLASSICAL_EXAMPLES:
        code, text = _cli(["example", *spec])
        if code != 0:
            raise RuntimeError(f"example {' '.join(spec)} exited {code}")
        path = workdir / ("-".join(s.lstrip("-") for s in spec) + ".json")
        path.write_text(text)
        for notion in CLASSICAL_NOTIONS:
            argv = ["check", "--notion", notion, "-f", str(path)]
            ops.append(
                Op(f"cli:{notion}", lambda argv=argv: _cli(argv), _passing_report(notion))
            )
    random.Random(seed).shuffle(ops)
    return Corpus(ops, stop_every=len(ops), window=len(ops))


# ---------------------------------------------------------------------------
# seeded assessments


def _space(n: int) -> PossibilitySpace:
    return PossibilitySpace(tuple(f"w{i}" for i in range(n)))


def _variable(rng: random.Random, space: PossibilitySpace):
    return space.variable(
        {a: F(rng.randint(-3, 3), rng.randint(1, 2)) for a in space.atoms}
    )


def _event(rng: random.Random, space: PossibilitySpace):
    while True:
        picked = [a for a in space.atoms if rng.random() < 0.6]
        if picked:
            return space.event(picked)


def _positive_vector(rng: random.Random, n: int) -> list[Fraction]:
    weights = [rng.randint(1, 6) for _ in range(n)]
    return [F(w, sum(weights)) for w in weights]


def _expectation(p, cv) -> Fraction:
    """E_p[X|B], or None when p gives B no mass."""
    mass = sum((p[i] for i in cv.cond.members), F(0))
    if mass == 0:
        return None
    return sum((p[i] * v for i, v in cv.value_map().items()), F(0)) / mass


def _domain(rng, space, count, *, conditional, exclude=()):
    """`count` distinct conditional variables, none of them in `exclude`."""
    cvs: list = []
    while len(cvs) < count:
        event = _event(rng, space) if conditional else space.omega()
        cv = restrict(_variable(rng, space), event)
        if cv not in cvs and cv not in exclude and not cv.is_constant(cv.values[0]):
            cvs.append(cv)
    return cvs


def _envelope(rng, space, domain, members):
    """Lower envelope of strictly positive vectors: W-coherent."""
    vectors = [_positive_vector(rng, space.size) for _ in range(members)]
    items = [(cv, min(_expectation(p, cv) for p in vectors)) for cv in domain]
    return Assessment.build(space, items), vectors


def _bayes(space, domain, p):
    """Precise Bayes values of one positive vector: dF-coherent."""
    items = []
    for cv in domain:
        value = _expectation(p, cv)
        items.append((cv, value, value))
    return Assessment.build(space, items)


def _shifted(rng, space, others):
    """Every atom indicator priced at a positive p, plus Bayes values of
    p on `others` with one of them moved by a nonzero rational.  The
    indicators pin the only candidate prevision to p, which the moved
    entry contradicts: dF-coherence, AUL and W-coherence all fail."""
    p = _positive_vector(rng, space.size)
    indicators = [
        restrict(space.indicator(space.event([a])), space.omega()) for a in space.atoms
    ]
    domain = _domain(rng, space, others, conditional=True, exclude=indicators)
    items = []
    moved = rng.randrange(len(domain))
    for i, cv in enumerate(indicators + domain):
        value = _expectation(p, cv)
        if i == len(indicators) + moved:
            value += F(rng.choice((-1, 1)), rng.randint(2, 5))
        items.append((cv, value, value))
    return Assessment.build(space, items)


# ---------------------------------------------------------------------------
# random-mixed


def _gain_sup(bet, assessment) -> Fraction:
    """Supremum of a witness bet's gain on the union of its conditioning
    events, evaluated here rather than through previsio.gains."""
    gain: dict[int, Fraction] = {}
    for term in bet.terms:
        entry = assessment.entry_for(term.variable)
        price = entry.lower if term.price == "lower" else entry.upper
        sign = 1 if term.side == "for" else -1
        for atom, value in term.variable.value_map().items():
            gain[atom] = gain.get(atom, F(0)) + sign * term.stake * (value - price)
    return max(gain.values())


def _verdict(notion: str, expected: bool, assessment) -> Callable[[Any], str | None]:
    def mismatch(verdict) -> str | None:
        if verdict.passed != expected:
            return f"{notion}: passed={verdict.passed}, expected {expected}"
        if not expected:
            if verdict.witness is None:
                return f"{notion}: failing verdict without a witness"
            if _gain_sup(verdict.witness, assessment) >= 0:
                return f"{notion}: witness gain is not uniformly negative"
        return None

    return mismatch


CHECKERS = {
    "w-coherence": "check_w_coherence",
    "aul": "check_aul",
    "convex": "check_convex",
    "df-conditional": "check_df_precise_conditional",
}

# (construction, notion, expected verdict); one round of operations
RANDOM_MIXED_ROUND = (
    ("envelope", "w-coherence", True),
    ("envelope", "aul", True),
    ("envelope", "convex", True),
    ("bayes", "df-conditional", True),
    ("bayes", "aul", True),
    ("bayes", "w-coherence", True),
    ("bayes", "convex", True),
    ("shifted", "df-conditional", False),
    ("shifted", "aul", False),
    ("shifted", "w-coherence", False),
)
RANDOM_MIXED_POOL = 600


def _check_op(notion: str, assessment, expected: bool) -> Op:
    name = CHECKERS[notion]

    def call():
        return getattr(checkers, name)(assessment)

    return Op(f"lib:{notion}", call, _verdict(notion, expected, assessment))


def random_mixed(seed: int, workdir: Path) -> Corpus:
    rng = random.Random(seed)
    ops = []
    for i in range(RANDOM_MIXED_POOL):
        construction, notion, expected = RANDOM_MIXED_ROUND[i % len(RANDOM_MIXED_ROUND)]
        # atoms and sizes cycle in a fixed pattern; only values are drawn
        space = _space(4 + (i // len(RANDOM_MIXED_ROUND)) % 3)
        size = 2 + (i // (3 * len(RANDOM_MIXED_ROUND))) % 2
        if construction == "envelope":
            domain = _domain(rng, space, size + 1, conditional=True)
            assessment, _ = _envelope(rng, space, domain, 2 + i % 2)
        elif construction == "bayes":
            domain = _domain(rng, space, size, conditional=True)
            assessment = _bayes(space, domain, _positive_vector(rng, space.size))
        else:
            assessment = _shifted(rng, space, size - 1)
        ops.append(_check_op(notion, assessment, expected))
    return Corpus(ops, stop_every=1, window=100)


# ---------------------------------------------------------------------------
# inference


def _extension_known(assessment, target, vectors) -> Callable[[Any], str | None]:
    """Unconditional target: the lower value is the minimum over the
    credal-set vertices (lower envelope theorem, a path without LP);
    the upper value lies between it and the maximum; every member of
    the envelope lies in the credal set, so between the same two."""

    def mismatch(result) -> str | None:
        vertices = envelopes.credal_polytope(assessment).vertices
        values = [_expectation(v, target) for v in vertices]
        lo, hi = min(values), max(values)
        if result.lower != lo:
            return f"extend: lower {result.lower}, vertex minimum {lo}"
        if not lo <= result.upper <= hi:
            return f"extend: upper {result.upper} outside [{lo}, {hi}]"
        for p in vectors:
            if not lo <= _expectation(p, target) <= hi:
                return "extend: an envelope member lies outside the bounds"
        return None

    return mismatch


def _credal_known(assessment) -> Callable[[Any], str | None]:
    """Every vertex is a probability vector, and each assessed value of
    this coherent assessment is the minimum over the vertices."""

    def mismatch(credal) -> str | None:
        vertices = credal.vertices
        for v in vertices:
            if any(x < 0 for x in v) or sum(v) != 1:
                return "credal: a vertex is not a probability vector"
        for entry in assessment.entries:
            values = [_expectation(v, entry.variable) for v in vertices]
            if min(values) != entry.lower:
                return f"credal: vertex minimum {min(values)} != {entry.lower}"
        return None

    return mismatch


# one round: four extensions and one polytope.  Targets are
# unconditional, where the vertex minimum is an exact reference.
INFERENCE_ROUND = ("extend", "extend", "extend", "extend", "credal")
INFERENCE_POOL = 300


def inference(seed: int, workdir: Path) -> Corpus:
    rng = random.Random(seed)
    ops = []
    for i in range(INFERENCE_POOL):
        kind = INFERENCE_ROUND[i % len(INFERENCE_ROUND)]
        step = i // len(INFERENCE_ROUND)
        if kind == "credal":
            space = _space(6 + step % 2)
            domain = _domain(rng, space, 4 + (step // 2) % 2, conditional=False)
            assessment, _ = _envelope(rng, space, domain, 3)
            ops.append(Op(
                "lib:credal_polytope",
                lambda a=assessment: envelopes.credal_polytope(a),
                _credal_known(assessment),
            ))
            continue
        space = _space(4 + (i % len(INFERENCE_ROUND) + step) % 3)
        domain = _domain(rng, space, 2, conditional=False)
        assessment, vectors = _envelope(rng, space, domain, 2)
        (target,) = _domain(rng, space, 1, conditional=False, exclude=domain)
        ops.append(Op(
            "lib:extend",
            lambda a=assessment, t=target: extensions.extend(a, t),
            _extension_known(assessment, target, vectors),
        ))
    return Corpus(ops, stop_every=1, window=50)


WORKLOADS: dict[str, Callable[[int, Path], Corpus]] = {
    "classical": classical,
    "random-mixed": random_mixed,
    "inference": inference,
}
