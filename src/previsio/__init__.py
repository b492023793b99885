"""Exact consistency checking for conditional lower previsions.

The package decides, with exact rational arithmetic, the consistency
notions for (conditional) lower previsions on finite possibility
spaces, computes natural extensions and credal-set envelopes, and ships
generators for the classical counterexamples at finite truncation.
"""

from .checkers import (
    PartitionFamily,
    Verdict,
    check_aul,
    check_bi_coherence,
    check_centered_convex,
    check_coherence_unconditional,
    check_convex,
    check_df_precise_conditional,
    check_df_precise_unconditional,
    check_separate_coherence,
    check_w_coherence,
    check_walley_asl,
)
from .conglomerability import (
    check_conglomerability,
    definetti_example,
    walley_666_example,
)
from .envelopes import (
    ConvexEnvelope,
    CredalSet,
    convex_envelope,
    credal_polytope,
    lower_envelope,
)
from .extensions import (
    ExtensionResult,
    extend,
    natural_extension,
    natural_extension_prevision,
    upper_extension,
)
from .gains import (
    Bet,
    BetTerm,
    GainTable,
    against,
    gain,
    in_favour,
)
from .lp import Trace
from .model import (
    Assessment,
    ConditionalVariable,
    Entry,
    Event,
    PossibilitySpace,
    RandomVariable,
    as_rational,
    restrict,
    zero_given,
)

__all__ = [
    "Assessment",
    "Bet",
    "BetTerm",
    "ConditionalVariable",
    "ConvexEnvelope",
    "CredalSet",
    "Entry",
    "Event",
    "ExtensionResult",
    "GainTable",
    "PartitionFamily",
    "PossibilitySpace",
    "RandomVariable",
    "Trace",
    "Verdict",
    "against",
    "as_rational",
    "check_aul",
    "check_bi_coherence",
    "check_centered_convex",
    "check_coherence_unconditional",
    "check_conglomerability",
    "check_convex",
    "check_df_precise_conditional",
    "check_df_precise_unconditional",
    "check_separate_coherence",
    "check_w_coherence",
    "check_walley_asl",
    "convex_envelope",
    "credal_polytope",
    "definetti_example",
    "extend",
    "gain",
    "in_favour",
    "lower_envelope",
    "natural_extension",
    "natural_extension_prevision",
    "restrict",
    "upper_extension",
    "walley_666_example",
    "zero_given",
]

__version__ = "0.1.0"
