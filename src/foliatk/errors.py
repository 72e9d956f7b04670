"""Exception hierarchy shared by all toolkit modules.

``ValidationError`` covers everything a caller can trigger with bad input
(dimension or degree mismatches, non-projective forms, malformed
expressions); the CLI maps it to exit code 2.  ``EngineError`` marks
conditions that indicate a bug or a numerically unusable configuration and
maps to exit code 1.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ToolkitError):
    """Caller-supplied data violates a documented precondition."""


class DimensionMismatch(ValidationError):
    """Operands live in different ambient dimensions."""


class DegreeMismatch(ValidationError):
    """Form degrees or declared integer degrees are inconsistent."""


class InhomogeneousCoefficients(ValidationError):
    """A coefficient polynomial is not homogeneous of the required degree."""


class RadialContractionNonzero(ValidationError):
    """Contraction with the radial field did not vanish; the form does not
    descend to projective space."""


class IrrationalEigenvalues(ValidationError):
    """The linear part has eigenvalues outside the rationals; exact analysis
    stops here."""


class ExprSyntaxError(ValidationError):
    """Expression text failed to parse.

    Carries ``line``, ``col`` (both 1-based) and ``expected``, a short
    description of what the parser was looking for.
    """

    def __init__(self, message: str, line: int, col: int, expected: str):
        super().__init__(f"{message} at line {line}, col {col} (expected {expected})")
        self.line = line
        self.col = col
        self.expected = expected


class UnknownVariable(ValidationError):
    """Expression references a variable outside the declared ambient set."""

    def __init__(self, name: str, col: int):
        super().__init__(f"unknown variable '{name}' at col {col}")
        self.name = name
        self.col = col


class EngineError(ToolkitError):
    """Internal invariant failed; indicates a bug rather than bad input."""


class DenominatorNearZeroOnTorus(ToolkitError):
    """No dominant power of ``z_i`` proves a denominator ``X_i`` free of
    zeros on its face of the polydisc, so the torus integral need not sum
    the residues inside; or the torus sum came out not finite."""


class DenominatorOutOfFloatRange(ToolkitError):
    """The bound on the samples of the torus sum, on the unit torus where
    each ``X_i`` is divided by its certified largest term, may pass the
    float range."""


class NonIsolatedSuspected(ToolkitError):
    """Residue values disagreed across the radius sweep beyond tolerance,
    suggesting the common zero is not isolated (or radii are unsuitable)."""
