"""Exception hierarchy.

Two broad families matter to callers: bad input (the CLI maps these to
exit code 2) and resource caps (exit code 3).  Everything else, such as
NoBound, MultipleSolutions or a bare OrderCompletionError, signals a
broken internal invariant and should never surface in normal use; the
CLI reports it as one ``error: internal:`` line and exits 1, like a
failed check.
"""


class OrderCompletionError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(OrderCompletionError):
    """A caller-supplied value violates a documented precondition."""


class DuplicateLabel(InvalidInput):
    pass


class UnknownElement(InvalidInput):
    pass


class CycleDetected(InvalidInput):
    """Cover-pair input contains a directed cycle."""


class NotAPartialOrder(InvalidInput):
    """A full relation fails reflexivity, antisymmetry or transitivity."""


class ParentMismatch(InvalidInput):
    """Operation mixed subsets (or cuts) of two different carriers."""


class InvalidCut(InvalidInput):
    """A subset was required to be closed under the bound operators but is not."""


class SourceNotOrdered(InvalidInput):
    """An order-dependent check was asked of a map from a bare carrier set."""


class NotIncreasing(InvalidInput):
    pass


class EmptyFamily(InvalidInput):
    pass


class BadSpec(InvalidInput):
    """Generator parameters are missing, unknown or out of range."""


class UnknownSuite(InvalidInput):
    pass


class SchemaError(InvalidInput):
    """A JSON document does not match the expected file format."""


class ResourceCap(OrderCompletionError):
    """Work was refused because it would exceed a configured size cap."""


class NoBound(OrderCompletionError):
    """A bound scan found no least upper / greatest lower bound.

    Cannot happen on a complete cut lattice; raised to catch bugs.
    """


class MultipleSolutions(OrderCompletionError):
    """Exhaustive search found two solutions; the injectivity invariant broke."""
