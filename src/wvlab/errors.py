"""Exception types shared across the library."""

from __future__ import annotations


class WvlabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(WvlabError):
    """Operands live in spaces of different dimension."""


class ContractError(WvlabError):
    """A documented precondition was violated by the caller."""


class DegeneratePostselectionError(WvlabError):
    """Postselection amplitude vanished where a finite value was required."""


# Stable validation codes carried by ScenarioError.
SCHEMA = "schema"
NON_UNITARY_SEGMENT = "non-unitary-segment"
NON_PROJECTOR_SITE = "non-projector-site"
UNKNOWN_SITE = "unknown-site"
UNKNOWN_STAGE = "unknown-stage"
NON_NORMALIZED_STATE = "non-normalized-state"


class ScenarioError(ContractError):
    """A scenario definition or file was rejected.

    Raised by the type that owns the broken invariant (Timeline,
    PrePost, PointerSpec, Site, Scenario) and by the file parser.

    Attributes:
        code: one of the stable validation codes in this module.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
