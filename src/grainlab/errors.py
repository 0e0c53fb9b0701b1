"""Exception taxonomy shared by all grainlab modules.

The CLI maps these onto exit codes: PreconditionError -> 2,
CapExceeded -> 3.
"""


class GrainlabError(Exception):
    """Base class for all library errors."""


class PreconditionError(GrainlabError, ValueError):
    """An argument violates an operation's stated precondition."""


class CapExceeded(GrainlabError):
    """A request exceeds a configured enumeration/search cap.

    Caps exist so that desk-scale tools fail loudly instead of silently
    truncating or grinding forever; see grainlab.config.
    """
