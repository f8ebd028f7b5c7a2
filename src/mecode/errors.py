"""Exception types shared across the package."""

from __future__ import annotations


class MecodeError(Exception):
    """Base class for all mecode errors."""


class ValidationError(MecodeError, ValueError):
    """An argument or an input document is out of domain or malformed."""


class InfeasibleError(MecodeError):
    """No codebook exists under the requested size constraints."""


class DecodeError(MecodeError):
    """A bitstream does not decode under the given codebook.

    ``bit_offset`` is the position (0-based) of the first bit of the
    codeword that failed to decode.
    """

    def __init__(self, message: str, bit_offset: int):
        super().__init__(f"{message} (bit offset {bit_offset})")
        self.bit_offset = bit_offset


class SearchBudgetError(MecodeError):
    """The exact search exhausted its node budget.

    ``incumbent`` carries a feasible fallback word list, the cheapest of
    the equiprobable optimum and the fixed-length codes that meets the
    duration budget, or None if none does.
    """

    def __init__(self, message: str, incumbent=None):
        super().__init__(message)
        self.incumbent = incumbent
