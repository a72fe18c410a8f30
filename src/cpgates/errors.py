"""Exception types, and the integer-count check, shared across the
toolkit."""

import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class TruncationError(RuntimeError):
    """Raised when a Fock-space simulation leaks too much population
    into the top truncation levels for the result to be trusted."""


def check_count(name: str, value, least: int) -> None:
    """Raise ValidationError unless ``value`` is an integer (Python or
    numpy) of at least ``least``."""
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValidationError(f"{name} must be an integer of at least {least}, got {value!r}")
