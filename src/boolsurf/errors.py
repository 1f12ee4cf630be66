"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so raising the right class
is part of the public contract: malformed input (2), requests beyond the
exact-enumeration capacity (3), failed verification checks (4).  Every
integer the library reads goes through one rule, `_exact_int`.
"""

import numpy as np


class BoolsurfError(Exception):
    """Base class for every error raised by this package."""


class InputError(BoolsurfError, ValueError):
    """Malformed or out-of-range input."""


class ParseError(InputError):
    """Unparseable function spec or file.  Carries an optional character position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DegenerateInputError(InputError):
    """Input that is structurally valid but numerically degenerate.

    Example: an identically zero polynomial, for which sign behaviour
    and regularity ratios are undefined.
    """


class CapacityError(BoolsurfError):
    """Request exceeds an enumeration or storage cap."""


class VerificationError(BoolsurfError):
    """A checked identity or inequality failed."""


def _exact_int(value, what: str) -> int:
    """`value` as an int when it equals one (4.0 and numpy integers do);
    bools and strings are not integers, and nothing is truncated."""
    if type(value) is int:
        return value
    try:
        if not isinstance(value, (bool, np.bool_, str, bytes)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{what} {value!r} is not an integer")
