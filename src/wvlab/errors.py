"""Exception types shared across the library.

A rejected scenario raises ScenarioError with a stable code; a free call
whose arguments break its precondition raises ContractError.
"""

from __future__ import annotations


class WvlabError(Exception):
    """Base class for every error raised by this package."""


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

    Raised by the type that owns the broken invariant and by the file
    parser. Timeline owns the stages (at least two, names unique,
    non-empty and printable) and its segments (one dimension, unitary);
    PrePost the pre and post states (normalized, one dimension); Site
    its projector; PointerSpec its fields; Scenario its site labels,
    references, sum rules and tolerance, and that states and projectors
    match the timeline's dimension.

    Attributes:
        code: one of the stable validation codes in this module.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
