"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
plain ``ValueError`` is reserved for malformed constructor arguments that
indicate a programming error rather than a property of the input data.
"""


class MetastableError(Exception):
    """Base class for all package-specific errors."""


# -- samplings -----------------------------------------------------------------

class NotStrictlyIncreasing(MetastableError):
    """A linear sampling kn+c with k < 1 or c < 1: F(N) > N or strict
    growth would fail."""


class SamplingDomainError(MetastableError):
    """A sampling was queried outside its domain (ℕ, or the support of an
    explicit table), or a table has an empty window or one below its
    index."""


# -- rates and oscillation -------------------------------------------------

class EmptyRate(MetastableError):
    """A rate set E must be nonempty; no sequence has an empty rate."""


class NonpositiveEpsilon(MetastableError):
    """The operation requires a strictly positive epsilon."""


class UnsupportedSampling(MetastableError):
    """The operation needs a linear sampling kn+c, to iterate F."""


class RateTooLarge(MetastableError):
    """A rate set to be built (a monotone rate, or lo..hi on the command
    line) has more than MAX_RATE_SIZE elements."""


# -- input files ------------------------------------------------------------

class MalformedInput(MetastableError):
    """An input document does not follow its file format."""


def json_object(data, what: str) -> dict:
    """data if it is a JSON object; MalformedInput if not."""
    if isinstance(data, dict):
        return data
    raise MalformedInput(
        f"a {what} is a JSON object, not a {type(data).__name__}")


def expect(value, types, field: str, what: str):
    """value if it is an instance of types (a bool is no number or label);
    MalformedInput naming the field if not: '"field" must <what>'."""
    if isinstance(value, types) and not isinstance(value, bool):
        return value
    raise MalformedInput(f'"{field}" must {what}, got {value!r}')


# -- formulas ---------------------------------------------------------------

class FormulaSyntaxError(MetastableError):
    """Concrete-syntax error; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbol(MetastableError):
    """An identifier does not resolve against the signature."""


class SortMismatch(MetastableError):
    """A term or variable is used at an incompatible sort."""


class NonpositiveRadius(MetastableError):
    """Quantifier radii must be strictly positive rationals."""


class UnassignedVariable(MetastableError):
    """Evaluation reached a free variable missing from the assignment."""


class RealQuantifier(MetastableError):
    """Quantification over the real sort is rejected (infinite balls)."""


class NonpositiveDelta(MetastableError):
    """Relaxation amounts must be strictly positive."""


# -- measures ---------------------------------------------------------------

class UVOrder(MetastableError):
    """Measurability thresholds must satisfy u < v."""


# -- dominated convergence --------------------------------------------------

class IncoherentTails(MetastableError):
    """Family slices do not share a usable tail structure."""


class PreconditionViolated(MetastableError):
    """A family in the search class fails a declared precondition."""
