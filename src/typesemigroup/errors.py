"""Shared exception types and machine-readable error codes."""

from __future__ import annotations

from typing import Any

DIMENSION_MISMATCH = "DIMENSION_MISMATCH"
NEGATIVE_ENTRY = "NEGATIVE_ENTRY"
NON_INTEGRAL_ENTRY = "NON_INTEGRAL_ENTRY"
STEP_NOT_APPLICABLE = "STEP_NOT_APPLICABLE"
CERTIFICATE_MISMATCH = "CERTIFICATE_MISMATCH"
INVALID_PAIR = "INVALID_PAIR"
BAD_REFERENCE = "BAD_REFERENCE"
ROW_ZERO = "ROW_ZERO"
NONCOMMUTING_MATRICES = "NONCOMMUTING_MATRICES"
NOT_A_PERMUTATION = "NOT_A_PERMUTATION"
GROUP_TOO_LARGE = "GROUP_TOO_LARGE"
ZERO_TARGET = "ZERO_TARGET"
SCHEMA_VIOLATION = "SCHEMA_VIOLATION"
UNSUPPORTED_MODEL = "UNSUPPORTED_MODEL"


class InputError(ValueError):
    """Rejected input.

    `code` is one of the module-level constants; `details` holds a small
    JSON-serializable payload for diagnostics.
    """

    def __init__(self, code: str, message: str, **details: Any):
        super().__init__(message)
        self.code = code
        self.details = details


def non_integral_entry(x: Any) -> InputError:
    """The error for a vector entry that is not an `int` (a `bool` included)."""
    return InputError(NON_INTEGRAL_ENTRY, f"entry {x!r} is not an integer", entry=repr(x))


def negative_entry(x: int) -> InputError:
    """The error for a vector entry below zero."""
    return InputError(NEGATIVE_ENTRY, f"negative entry {x}", entry=x)


def require_int(name: str, value: Any, nonnegative: bool = False) -> None:
    """Reject a parameter that is not an `int` (a `bool` included) or, if
    `nonnegative`, is below zero; never coerce it."""
    if type(value) is not int:
        raise InputError(NON_INTEGRAL_ENTRY, f"{name} must be an integer, got {value!r}",
                         **{name: repr(value)})
    if nonnegative and value < 0:
        raise InputError(NEGATIVE_ENTRY, f"{name} must be nonnegative, got {value}",
                         **{name: value})


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.

    Raised when two independent computations that must agree do not; this
    always indicates a bug in the library, never a property of the input.
    """
