"""Exception hierarchy shared by all previsio modules."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .gains import Bet


class PrevisioError(Exception):
    """Base class for all errors raised by this package."""


class SpaceMismatch(PrevisioError):
    """Two objects defined on different possibility spaces were combined."""


class ImpossibleConditioningEvent(PrevisioError):
    """An empty event was used as a conditioning event."""


class DuplicateEntry(PrevisioError):
    """An assessment assigns two values to the same conditional variable."""


class UnassessedVariable(PrevisioError):
    """A bet references a conditional variable the assessment does not price."""


class EmptyAssessment(PrevisioError):
    """A checker was invoked on an assessment with no entries."""


class NotPrecise(PrevisioError):
    """A precise-prevision checker received an entry with lower < upper."""


class ConditionalEntriesUnsupported(PrevisioError):
    """An unconditional-only checker received a conditional entry."""


class MissingSelfIndicator(PrevisioError):
    """A per-cell assessment lacks the indicator of its own conditioning event."""


class MissingZeroVariables(PrevisioError):
    """The centered-convexity check needs 0|B assessed for every conditioning event."""


class InvalidPartition(PrevisioError):
    """Cells handed to a partition-based operation do not form a partition."""


class MalformedFamily(PrevisioError):
    """A conglomerative family is structurally invalid (missing 0, cell indicators, ...)."""


class BaseNotCoherent(PrevisioError):
    """An extension was requested from a base assessment that is not
    W-coherent.  `witness` is a losing bet of the base."""

    def __init__(self, message: str, witness: Bet | None = None) -> None:
        super().__init__(message)
        self.witness = witness


class MalformedProgram(PrevisioError):
    """A linear program has inconsistent dimensions, or a row outside
    the one form: a positive scale and a nonnegative rhs."""


class EmptyCredalSet(PrevisioError):
    """No dominating precise prevision exists in the requested positivity regime."""


class MemberNotCoherent(PrevisioError):
    """A would-be envelope member is not a probability vector."""


class ZeroProbabilityConditioning(PrevisioError):
    """A precise prevision assigns zero probability to a conditioning event."""


class MissingValues(PrevisioError):
    """A report needs assessed values that the assessment does not contain."""


class DimensionLimitExceeded(PrevisioError):
    """Vertex enumeration was requested beyond the supported atom count."""


class SchemaError(PrevisioError):
    """A JSON document does not match the interchange schema."""
