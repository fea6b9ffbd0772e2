"""Exception types shared across the package.

Usage errors (bad orders, arities, shapes) raise plain ``ValueError``;
the classes here mark *mathematical* failures so callers can tell a
misuse apart from data that violates a smoothness or structure
precondition.
"""


class DomainError(ValueError):
    """A primitive was evaluated outside its domain (log of a negative
    base, division by zero, ...)."""


class FiberMismatchError(ValueError):
    """Two tangent points that should share a projection do not agree
    within tolerance."""


class KernelViolationError(ValueError):
    """The bracket's intermediate point failed to lie in the kernel of
    the tangent projection; the input fields are not order-consistent."""


class VerticalityError(ValueError):
    """A tangent vector expected to be vertical (zero base direction)
    has a base component above tolerance."""


class SamplerError(RuntimeError):
    """Rejection sampling exhausted its budget without producing the
    requested number of member points."""


class StructureError(ValueError):
    """A groupoid or algebroid construction failed a structural
    precondition (axiom suite failure, missing product split, ...)."""
