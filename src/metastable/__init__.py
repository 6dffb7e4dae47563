"""Exact-rational toolkit for metastable convergence.

Checks and derives metastability rates for tail-structured sequences,
evaluates positive bounded formulas under discrete and approximate
satisfaction on finite metric structures, and verifies the dominated
convergence inequality (and its metastable rate form) on finite measure
structures.
"""

import importlib

from .dct import (
    DctCheck,
    DctSearchResult,
    DirectedFamily,
    dct_inequality_check,
    family_from_json,
    family_to_json,
    integral_sequence,
    metastable_dct_search,
)
from .directed import (
    Sampling,
    affine_sampling,
    explicit_sampling,
    parse_f_expression,
    sampling_from_json,
    sampling_to_json,
)
from .errors import (
    EmptyRate,
    FormulaSyntaxError,
    IncoherentTails,
    MalformedInput,
    MetastableError,
    NonpositiveDelta,
    NonpositiveEpsilon,
    NonpositiveRadius,
    NotStrictlyIncreasing,
    PreconditionViolated,
    RateTooLarge,
    RealQuantifier,
    SamplingDomainError,
    SortMismatch,
    UVOrder,
    UnassignedVariable,
    UnknownSymbol,
    UnsupportedSampling,
)
from .measure import (
    LInfFunction,
    MeasureStructure,
    Report,
    audit_integration,
    audit_preloeb,
    check_measurability,
    integrate,
    linf_from_json,
    linf_to_json,
    measure_from_json,
    measure_to_json,
    total_variation,
)
from .netcore import (
    AuditResult,
    Constant,
    Periodic,
    RateSpec,
    SequenceSpec,
    brute_min_uniform_rate,
    check_rate,
    eps_cauchy_exact,
    metastable_witness,
    monotone_uniform_rate,
    osc_eta_exact,
    osc_segment,
    osc_total_exact,
    rate_witness,
    sequence_from_csv,
    sequence_from_json,
    sequence_to_json,
    uniform_rate_audit,
)
from .rationals import format_rational, parse_rational

__version__ = "0.1.0"


def __getattr__(name):
    """`metastable.henson`, imported on first use (PEP 562): the formula
    engine costs more to import than the rest of the package, and only the
    logic commands need it."""
    if name == "henson":
        return importlib.import_module(".henson", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
