"""Exception types shared across the package, and the number checks that
raise them."""

import math
import numbers
import operator


class DtstError(Exception):
    """Base class for all package errors."""


class DimensionError(DtstError):
    """Shapes or extents incompatible with the requested operation."""


class ContractError(DtstError):
    """A caller broke an API precondition (e.g. non-scalar backward root)."""


class DomainError(DtstError):
    """A value falls outside its legal domain (e.g. unknown view label)."""


class ConfigError(DtstError):
    """An invalid configuration value."""


class NumericError(DtstError):
    """A non-finite value appeared where finiteness is required."""


class SamplingError(DtstError):
    """The dataset cannot satisfy a batch-sampling request."""


class ProtocolError(DtstError):
    """An evaluation protocol filter produced an empty query or gallery."""


class ResourceError(DtstError):
    """An artifact could not be written or an array could not be allocated."""


class ConfigParseError(DtstError):
    """A config file failed to parse; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def check_count(value, least, error, message):
    """`value` as an int, through `operator.index`, so Python and numpy
    integers pass; raises `error(message)` for anything else (1.5, 2.0,
    True) and for an integer below `least`."""
    if isinstance(value, bool):
        raise error(message)
    try:
        n = operator.index(value)
    except TypeError:
        raise error(message) from None
    if n < least:
        raise error(message)
    return n


def check_grid(value, error, message):
    """`value` as a pair of ints >= 1; else raises `error(message)`."""
    try:
        rows, cols = value
    except (TypeError, ValueError):
        raise error(message) from None
    return check_count(rows, 1, error, message), check_count(cols, 1, error, message)


def is_finite_real(value):
    """Whether `value` is a finite real number: a Python or numpy integer or
    float, not a bool, NaN or infinity."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))
