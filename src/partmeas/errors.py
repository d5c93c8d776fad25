"""Exception types shared across the toolkit.

Every domain error carries a stable ``code`` string; the CLI copies it
verbatim into its machine-readable error objects, so codes are part of
the public contract and must not be renamed casually.
"""


class PartmeasError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"

    def __init__(self, detail: str = ""):
        super().__init__(detail)
        self.detail = detail


class IllPosedError(PartmeasError):
    """A sum or difference touched both +inf and -inf."""

    code = "IllPosed"


class UnknownPointError(PartmeasError):
    """A point label does not belong to the space."""

    code = "UnknownPoint"


class SpaceMismatchError(PartmeasError):
    """Two operands live on different spaces."""

    code = "SpaceMismatch"


class TooLargeError(PartmeasError):
    """An exhaustive enumeration would exceed the configured atom cap."""

    code = "TooLarge"


class NotMeasurableError(PartmeasError):
    """A point set is not a union of atoms of the algebra."""

    code = "NotMeasurable"


class MixedInfinitiesError(PartmeasError):
    """A measure may attain +inf or -inf but never both."""

    code = "MixedInfinities"


class NotPositiveError(PartmeasError):
    """A positive measure needs every atom value >= 0."""

    code = "NotPositive"


class NotTraceClosedError(PartmeasError):
    """A required trace set has no derivable value."""

    code = "NotTraceClosed"


class AdditivityViolationError(PartmeasError):
    """A supplied set value disagrees with the sum over its atoms."""

    code = "AdditivityViolation"


class MixedInfinitiesInDomainSetError(PartmeasError):
    """Atoms inside a domain set carry both +inf and -inf."""

    code = "MixedInfinitiesInDomainSet"


class EmptyDomainError(PartmeasError):
    """A partial measure needs a nonempty domain."""

    code = "EmptyDomain"


class FillConflictError(PartmeasError):
    """A fill assignment touches an atom whose value is already determined."""

    code = "FillConflict"


class NotInDomainError(PartmeasError):
    """The set has no well-posed value under this partial measure."""

    code = "NotInDomain"


class InDomainError(PartmeasError):
    """The operation requires a set outside the domain."""

    code = "InDomain"


class EmptyFamilyError(PartmeasError):
    """The operation requires at least one set."""

    code = "EmptyFamily"


class NotAbsContinuousError(PartmeasError):
    """The measure is not absolutely continuous w.r.t. the probability."""

    code = "NotAbsContinuous"


class InvalidProbabilityError(PartmeasError):
    """Atom probabilities must be nonnegative rationals summing to one."""

    code = "InvalidProbability"


class NotInAlgebraError(PartmeasError):
    """The symbolic set lies outside the modelled algebra."""

    code = "NotInAlgebra"


class InvalidConfigError(PartmeasError):
    """A run setting (fuzzing configuration, trial count) is out of range."""

    code = "InvalidConfig"


def check_int_between(value: object, lo: int, hi: int, detail: str) -> None:
    """Raise InvalidConfigError(detail) unless ``value`` is an int in lo..hi.

    A bool is an int to isinstance, but never a count or a seed, and a
    float such as 2.5 or 5.0 is refused rather than truncated.
    """
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise InvalidConfigError(detail)


class SchemaError(Exception):
    """An input file or payload does not match the expected schema.

    Deliberately not a :class:`PartmeasError`: the CLI reports schema
    problems with exit code 1, domain errors with exit code 2.
    """
