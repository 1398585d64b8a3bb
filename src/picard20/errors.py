"""Shared error type.

Domain failures carry a stable machine-readable code so callers (and the
CLI, which maps them to exit status 1) can react without parsing messages.
"""

from __future__ import annotations

__all__ = ["VerificationError"]


class VerificationError(Exception):
    """A domain-level failure with a stable code string.

    Codes in use: PRECONDITION, NON_MINIMAL, COMPONENTS_NOT_RATIONAL,
    UNSUPPORTED_SHAPE, CHAIN_FAILURE, NEGATIVE, NON_INTEGRAL,
    INSUFFICIENT_DATA, NO_REPRESENTATION, UNKNOWN_MODEL.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
