"""Exception hierarchy.

Everything raised on purpose derives from QresError so the CLI can map
failures to exit codes without pattern-matching on stdlib exceptions.
"""


class QresError(Exception):
    """Base class for all intentional failures."""


class NotInvertible(QresError):
    """An element required to be a unit is not one (modular or tower)."""


class DivisionByZero(QresError):
    pass


class ExtensionOverflow(QresError):
    """The extension tower degree exceeded the configured bound."""


class PolySyntaxError(QresError):
    """Input string is not a polynomial in the accepted grammar."""


class UnknownVariable(QresError):
    pass


class ZeroPolynomial(QresError):
    """The zero polynomial was supplied where a nonzero one is required."""


class DegeneratePolygon(QresError):
    """Newton polygon has no compact face with negative slope."""


class BadType(QresError):
    """Malformed quotient-singularity type data."""


class NonExactDivision(QresError):
    """An exponent division that must be exact left a remainder."""


class NotReduced(QresError):
    """The curve has a repeated component."""


class NotSemiInvariant(QresError):
    """The germ is not an eigenfunction of the group action."""


class InternalInconsistency(QresError):
    """A cross-check the algorithm guarantees failed; indicates a bug."""


class CommonComponent(QresError):
    """Two curves share a component where a finite intersection is needed."""


class NotQuasiHomogeneous(QresError):
    pass


class NotMultiple(QresError):
    """A weighted order required to be a multiple of p*q is not."""


class UnitGerm(QresError):
    """The germ does not vanish at the origin, so it defines no curve there."""


class NonDivisibleExponent(QresError):
    """Weight normalization requires x_i-exponents divisible by d_i."""


class PointNotOnCurve(QresError):
    pass


class ResolutionDepthExceeded(QresError):
    """Blow-up recursion exceeded the configured depth bound."""
