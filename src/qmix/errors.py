"""Exception taxonomy shared across the package.

Everything raised on purpose derives from QmixError so callers can
distinguish our failures from genuine bugs.
"""

from __future__ import annotations


class QmixError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(QmixError, ValueError):
    """A group description string failed to parse or validate.

    Attributes
    ----------
    position:
        Character offset into the original string where the problem was
        detected, or None when the error is not tied to one spot.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class GroupFormatError(QmixError, ValueError):
    """A family model's closure is inconsistent: a product outside the
    element set, an order other than the spec's, or unreached elements."""


class SizeGuardError(QmixError, ValueError):
    """A requested construction or operation exceeds configured size caps."""


class GroupMismatchError(QmixError, ValueError):
    """Two objects built over different groups were combined."""


class PreconditionError(QmixError, ValueError):
    """An argument violates a documented mathematical precondition."""


class CertificationError(QmixError, ArithmeticError):
    """A numeric certificate failed: a residual or inequality that must
    hold up to tolerance did not."""
