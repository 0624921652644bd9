"""Exception hierarchy shared across the package.

``ConfigError`` subclasses map to CLI exit code 2, ``DomainError``
subclasses to exit code 3, and ``VerificationError`` to exit code 4.
"""

__all__ = [
    "HadshockError",
    "ConfigError",
    "UnknownModel",
    "BadModuli",
    "BadParams",
    "DomainError",
    "DegenerateQuadratic",
    "NonPositiveJacobian",
    "ZeroFrequency",
    "AlphaOutOfRange",
    "WrongSignForMaterial",
    "HtripleSignChange",
    "RhoNotNegative",
    "CharacteristicSpeed",
    "ContourThroughZero",
    "NoConvergence",
    "DegenerateModuli",
    "InvalidBracket",
    "VerificationError",
]


class HadshockError(Exception):
    """Base class for all package errors."""


class ConfigError(HadshockError):
    """Malformed or inconsistent user-supplied configuration."""


class UnknownModel(ConfigError):
    """Requested material name is not in the catalog."""


class BadModuli(ConfigError):
    """Material moduli violate the positivity constraints of the model form."""


class BadParams(ConfigError):
    """Parameters of a reference determinant are outside its validity range."""


class DomainError(HadshockError):
    """Input is outside the mathematical domain of an operation."""


class DegenerateQuadratic(DomainError):
    """Leading quadratic coefficient is negligibly small."""


class NonPositiveJacobian(DomainError):
    """Deformation gradient with det U <= 0."""


class ZeroFrequency(DomainError):
    """Zero frequency vector where a nonzero one is required."""


class AlphaOutOfRange(DomainError):
    """Shock intensity outside (-inf, 0) U (0, alpha_max)."""


class WrongSignForMaterial(DomainError):
    """Intensity sign incompatible with the sign of h''' on the jump interval."""


class HtripleSignChange(DomainError):
    """h''' changes sign on the jump interval; unsupported regime."""


class RhoNotNegative(DomainError):
    """Operation requires a shock with negative stability parameter."""


class CharacteristicSpeed(DomainError):
    """Shock speed coincides with a characteristic speed."""


class ContourThroughZero(DomainError):
    """Winding contour passes through (or too close to) a zero."""


class NoConvergence(DomainError):
    """Iterative eigenvalue computation failed to converge, or a random draw ran out of tries."""


class DegenerateModuli(DomainError):
    """Closed form undefined for these moduli (e.g. kappa == mu)."""


class InvalidBracket(DomainError):
    """Bisection bracket endpoints are not both valid shocks."""


class VerificationError(HadshockError):
    """An oracle identity check failed."""
