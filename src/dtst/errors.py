"""Exception types shared across the package, and the integer check that
raises them."""

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
    integers pass; raises `error(message)` for anything else (1.5, 2.0) and
    for an integer below `least`."""
    try:
        n = operator.index(value)
    except TypeError:
        raise error(message) from None
    if n < least:
        raise error(message)
    return n
