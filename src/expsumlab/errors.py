"""Shared error types.

Every guard that refuses work names the violated budget or inequality in its
message, so a failing run can be diagnosed from the report alone.
"""


class CapacityError(ValueError):
    """A requested range or term count exceeds a configured budget."""


class RejectedInstanceError(ValueError):
    """An instance violates a precondition of the requested check or bound."""


class TabulationMismatchError(ValueError):
    """A function family is not tabulated over the supplied point set."""


class DegenerateFitError(ValueError):
    """Too few usable points remain for a least-squares fit."""


class UnsupportedStructureError(ValueError):
    """An expression does not reduce to the shape an exact routine handles."""
