"""Finite possibility spaces, events, random variables and assessments.

Everything is exact: values are `fractions.Fraction`, events are atom
subsets, and all types are immutable (hence hashable and safe to share
between threads).  A variable conditioned on an event keeps only the
values inside that event, so two variables that agree on the event are
the *same* conditional variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    DuplicateEntry,
    ImpossibleConditioningEvent,
    SpaceMismatch,
)

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_FRACTIONS_ONLY = {Fraction}


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _rationals(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """`values` through `as_rational`, as a tuple; a tuple of nothing
    but `Fraction`s, the common case, is returned with one type test."""
    values = tuple(values)
    if set(map(type, values)) == _FRACTIONS_ONLY:
        return values
    return tuple(map(as_rational, values))


@dataclass(frozen=True)
class PossibilitySpace:
    """An ordered finite partition of atoms; the sample space of a problem."""

    atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a possibility space needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atoms must be pairwise distinct")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        # made once per space; not fields, so equality, hashing, repr and
        # `dataclasses.asdict` never follow the sure event back here
        object.__setattr__(self, "_position", {a: i for i, a in enumerate(self.atoms)})
        object.__setattr__(self, "_omega", Event(self, frozenset(range(self.size))))

    @property
    def size(self) -> int:
        return len(self.atoms)

    def index(self, atom: str) -> int:
        try:
            return self._position[atom]
        except (KeyError, TypeError):
            raise KeyError(f"unknown atom {atom!r}") from None

    def omega(self) -> Event:
        return self._omega

    def empty_event(self) -> Event:
        return Event(self, frozenset())

    def event(self, atoms: Iterable[str]) -> Event:
        return Event(self, frozenset(map(self.index, atoms)))

    def variable(self, values: Mapping[str, RationalLike]) -> RandomVariable:
        if values.keys() != self._position.keys():
            missing = set(self.atoms) - set(values)
            if missing:
                raise ValueError(f"no value for atoms {sorted(missing)}")
            raise KeyError(f"unknown atoms {sorted(set(values) - set(self.atoms))}")
        return RandomVariable(self, tuple(map(values.__getitem__, self.atoms)))

    def constant(self, value: RationalLike) -> RandomVariable:
        return RandomVariable(self, (as_rational(value),) * self.size)

    def indicator(self, event: Event) -> RandomVariable:
        """The 0/1 variable of an event (de Finetti's convention)."""
        self._check(event.space)
        members = event.members
        return RandomVariable(
            self, tuple([_ONE if i in members else _ZERO for i in range(len(self.atoms))])
        )

    def _check(self, other: PossibilitySpace) -> None:
        if other is not self and other != self:
            raise SpaceMismatch("objects live on different possibility spaces")


@dataclass(frozen=True)
class Event:
    """A subset of atoms of one possibility space."""

    space: PossibilitySpace
    members: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if self.members and (min(self.members) < 0 or max(self.members) >= len(self.space.atoms)):
            raise ValueError("event members outside the atom index range")

    @property
    def is_empty(self) -> bool:
        return not self.members

    @property
    def is_sure(self) -> bool:
        return len(self.members) == self.space.size

    def atoms(self) -> tuple[str, ...]:
        return tuple(self.space.atoms[i] for i in sorted(self.members))

    def __and__(self, other: Event) -> Event:
        self.space._check(other.space)
        return Event(self.space, self.members & other.members)

    def __or__(self, other: Event) -> Event:
        self.space._check(other.space)
        return Event(self.space, self.members | other.members)

    def __invert__(self) -> Event:
        return Event(self.space, self.space.omega().members - self.members)

    def implies(self, other: Event) -> bool:
        self.space._check(other.space)
        return self.members <= other.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class RandomVariable:
    """A bounded random variable: one exact rational per atom."""

    space: PossibilitySpace
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.space.size:
            raise ValueError("one value per atom is required")
        object.__setattr__(self, "values", _rationals(self.values))

    def __getitem__(self, atom_index: int) -> Fraction:
        return self.values[atom_index]

    def value_at(self, atom: str) -> Fraction:
        return self.values[self.space.index(atom)]

    def _zip(self, other: RandomVariable) -> Iterable[tuple[Fraction, Fraction]]:
        self.space._check(other.space)
        return zip(self.values, other.values)

    def __add__(self, other: RandomVariable) -> RandomVariable:
        return RandomVariable(self.space, tuple(a + b for a, b in self._zip(other)))

    def __sub__(self, other: RandomVariable) -> RandomVariable:
        return RandomVariable(self.space, tuple(a - b for a, b in self._zip(other)))

    def __neg__(self) -> RandomVariable:
        return RandomVariable(self.space, tuple(-a for a in self.values))

    def scale(self, factor: RationalLike) -> RandomVariable:
        k = as_rational(factor)
        return RandomVariable(self.space, tuple(k * a for a in self.values))

    def pointwise_mul(self, other: RandomVariable) -> RandomVariable:
        return RandomVariable(self.space, tuple(a * b for a, b in self._zip(other)))

    def given(self, event: Event) -> ConditionalVariable:
        return restrict(self, event)

    def unconditional(self) -> ConditionalVariable:
        return restrict(self, self.space.omega())


@dataclass(frozen=True)
class ConditionalVariable:
    """A variable restricted to a nonempty conditioning event.

    Canonical form: only the values on the conditioning event are kept
    (aligned with the event's sorted atom indices), so BX = BY implies
    X|B == Y|B.
    """

    cond: Event
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.cond.is_empty:
            raise ImpossibleConditioningEvent(
                "cannot condition on the impossible event"
            )
        if len(self.values) != len(self.cond.members):
            raise ValueError("one value per conditioning atom is required")
        object.__setattr__(self, "values", _rationals(self.values))

    def __hash__(self) -> int:
        # the values are hashed by their (numerator, denominator) pairs,
        # which equal values share: `Fraction.__hash__` computes a
        # modular inverse per value.  Done once per object; threads that
        # race store the same value
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.cond, tuple([v.as_integer_ratio() for v in self.values])))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # a string's hash differs between processes, so the memo is
        # never copied or pickled along
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def space(self) -> PossibilitySpace:
        return self.cond.space

    def sup(self) -> Fraction:
        return max(self.values)

    def inf(self) -> Fraction:
        return min(self.values)

    def value_map(self) -> dict[int, Fraction]:
        """Atom index -> value, for atoms inside the conditioning event."""
        return dict(zip(sorted(self.cond.members), self.values))

    def as_variable(self, fill: RationalLike = 0) -> RandomVariable:
        """Extend back to a full variable, `fill` outside the event."""
        filled = [as_rational(fill)] * self.space.size
        for i, v in self.value_map().items():
            filled[i] = v
        return RandomVariable(self.space, tuple(filled))

    def is_constant(self, value: RationalLike) -> bool:
        v = as_rational(value)
        return all(x == v for x in self.values)


def restrict(variable: RandomVariable, event: Event) -> ConditionalVariable:
    """Canonical restriction X|B; values outside B are discarded."""
    variable.space._check(event.space)
    if event.is_empty:
        raise ImpossibleConditioningEvent(
            "cannot condition on the impossible event"
        )
    return ConditionalVariable(
        event, tuple(map(variable.values.__getitem__, sorted(event.members)))
    )


def zero_given(event: Event) -> ConditionalVariable:
    """The conditional variable 0|B."""
    return ConditionalVariable(event, (Fraction(0),) * len(event.members))


@dataclass(frozen=True)
class Entry:
    """One assessed value: a conditional variable with its lower prevision
    and, optionally, an upper prevision (lower == upper encodes a precise
    assessment).  upper >= lower is deliberately not enforced here; the
    checkers must detect such conflicts."""

    variable: ConditionalVariable
    lower: Fraction
    upper: Fraction | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", as_rational(self.lower))
        if self.upper is not None:
            object.__setattr__(self, "upper", as_rational(self.upper))

    @property
    def is_precise(self) -> bool:
        return self.upper is not None and self.upper == self.lower


@dataclass(frozen=True)
class Assessment:
    """A finite mapping from conditional variables to assessed previsions."""

    space: PossibilitySpace
    entries: tuple[Entry, ...]
    _index: dict[ConditionalVariable, Entry] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        index: dict[ConditionalVariable, Entry] = {}
        for entry in self.entries:
            entry.variable.space._check(self.space)
            if entry.variable in index:
                raise DuplicateEntry(
                    "assessment already prices this conditional variable"
                )
            index[entry.variable] = entry
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, cv: ConditionalVariable) -> bool:
        return cv in self._index

    def entry_for(self, cv: ConditionalVariable) -> Entry | None:
        return self._index.get(cv)

    def lower(self, cv: ConditionalVariable) -> Fraction:
        entry = self._index.get(cv)
        if entry is None:
            raise KeyError("conditional variable is not assessed")
        return entry.lower

    @property
    def is_precise(self) -> bool:
        return all(e.is_precise for e in self.entries)

    @property
    def is_unconditional(self) -> bool:
        return all(e.variable.cond.is_sure for e in self.entries)

    def conditioning_events(self) -> tuple[Event, ...]:
        seen: list[Event] = []
        for e in self.entries:
            if e.variable.cond not in seen:
                seen.append(e.variable.cond)
        return tuple(seen)

    def with_entry(
        self,
        cv: ConditionalVariable,
        lower: RationalLike,
        upper: RationalLike | None = None,
    ) -> Assessment:
        return Assessment(self.space, self.entries + (Entry(cv, lower, upper),))

    @classmethod
    def build(
        cls,
        space: PossibilitySpace,
        items: Sequence[tuple[ConditionalVariable, RationalLike]
                        | tuple[ConditionalVariable, RationalLike, RationalLike | None]],
    ) -> Assessment:
        # `Entry` coerces the values
        return cls(space, tuple(Entry(*item) for item in items))
