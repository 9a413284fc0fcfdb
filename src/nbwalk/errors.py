"""Exception types shared across the package, and the rules for integer arguments."""

import numbers

# the exception types, which the package re-exports
__all__ = [
    "NbwalkError", "InvalidParameter", "MalformedGraph", "UnsupportedGraph", "UnsupportedStructure", "NoLegalMove",
    "InvalidState", "InvalidInput", "LimitExceeded", "InsufficientData",
]


def is_int(x) -> bool:
    """Any integer type, numpy's included, but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_degree_pair(k1, k2) -> bool:
    """Integers with k1 > k2 >= 2, the degrees of a biregular tree."""
    return is_int(k1) and is_int(k2) and k1 > k2 >= 2


class NbwalkError(Exception):
    """Base class for all package errors."""


class InvalidParameter(NbwalkError):
    """A constructor or generator argument is out of range."""


class MalformedGraph(NbwalkError):
    """Explicit adjacency input violates the simple-graph contract."""


class UnsupportedGraph(NbwalkError):
    """The operation needs a different graph representation."""


class UnsupportedStructure(NbwalkError):
    """The graph shape rules out corridor analysis."""


class NoLegalMove(NbwalkError):
    """A walk kernel has no admissible transition."""


class InvalidState(NbwalkError):
    """A walk state is inconsistent with the graph."""


class InvalidInput(NbwalkError):
    """Malformed data passed to an operation."""


class LimitExceeded(NbwalkError):
    """An exact law or a weighted-walk draw is beyond its budget."""


class InsufficientData(NbwalkError):
    """Not enough observations to form the requested estimate."""
