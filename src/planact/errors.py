"""Exception types shared across the package, and the integer check that raises one."""

from numbers import Integral


class PlanactError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(PlanactError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(PlanactError):
    """A computation produced or received non-finite values."""


class ContractError(PlanactError):
    """A precondition of an operation was violated by the caller."""


class PromptTooLongError(ContractError):
    """A generation request needs more rows than the language model's context holds."""


class ParseError(PlanactError):
    """Structured text (plan documents) could not be parsed."""


class IngestError(PlanactError):
    """An input data file could not be read or decoded."""


class ValidationError(PlanactError):
    """Input data was readable but violates a consistency constraint."""


class PipelineError(PlanactError):
    """The dataset pipeline reached an unrecoverable state."""


def require_int(name: str, value, least: int | None = None) -> None:
    """Raise ``ContractError`` naming ``name`` unless ``value`` is an integer
    of at least ``least`` (no lower bound when ``least`` is None).

    Python and numpy integers pass; a bool, a float or anything else does not.
    This is the one check for a count, width, seed or index a caller sets;
    upper bounds and ranges stay with the code that knows them.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ContractError(f"{name} must be at least {least}, got {value}")
