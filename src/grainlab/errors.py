"""Exception taxonomy shared by all grainlab modules, and the two type
predicates their argument checks share.

The CLI maps these onto exit codes: PreconditionError -> 2,
CapExceeded -> 3.  Every module imports this one and it imports no
other grainlab module, so the predicates live here: the numpy-free
scalar commands read them without importing model or config.
"""

from numbers import Integral, Real


class GrainlabError(Exception):
    """Base class for all library errors."""


class PreconditionError(GrainlabError, ValueError):
    """An argument violates an operation's stated precondition."""


class CapExceeded(GrainlabError):
    """A request exceeds a configured enumeration/search cap.

    Caps exist so that desk-scale tools fail loudly instead of silently
    truncating or grinding forever; see grainlab.config.
    """


def _integer(v) -> bool:
    """Whether v is an integer: an int, tested first as the common and
    the fast case (isinstance against the ABC costs ten times more), or
    any other numbers.Integral, a numpy int say."""
    return type(v) is int or isinstance(v, Integral)


def _real(v) -> bool:
    """Whether v is a real number: a float, tested first as the common
    and the fast case, or any other numbers.Real (an int, a Fraction, a
    numpy float)."""
    return type(v) is float or isinstance(v, Real)
