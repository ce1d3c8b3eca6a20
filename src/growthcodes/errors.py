"""Exception types shared across the package."""


class GrowthCodesError(Exception):
    """Base class for all package-specific errors."""


class CompositeModulusError(GrowthCodesError, ValueError):
    """Requested field modulus is not prime."""


class FieldMismatchError(GrowthCodesError, ValueError):
    """Operands belong to different fields."""


class DivisionByZeroError(GrowthCodesError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class LengthMismatchError(GrowthCodesError, ValueError):
    """Vector lengths disagree."""


class NotSquareError(GrowthCodesError, ValueError):
    """Square matrix required."""


class ShapeMismatchError(GrowthCodesError, ValueError):
    """Block or matrix dimensions do not conform."""


class DependentBasisError(GrowthCodesError, ValueError):
    """Generator rows are linearly dependent."""


class GeneratorFormatError(GrowthCodesError, ValueError):
    """Generator-matrix text is malformed."""


class RangeViolationError(GrowthCodesError, ValueError):
    """Index outside the range for which the family is defined."""


class UnknownFamilyError(GrowthCodesError, ValueError):
    """Unrecognized code-family tag."""


class FieldTooLargeError(GrowthCodesError, ValueError):
    """The field is too large for an exact answer: int64 arrays need
    p < 2**16, and primality is certified only below psi_13 (see field)."""


class VerificationError(GrowthCodesError):
    """A search result contradicts a bound or formula it must satisfy.

    Raised in place of a silent wrong answer: a distance that breaks the
    Singleton bound, exceeds a basis weight or disagrees with a proven value.
    """


class BudgetExceededError(GrowthCodesError):
    """Requested computation exceeds the configured budget.

    ``required`` carries the count (codewords, coordinates, ...) the
    computation would need, so callers can fall back to formula-level checks.
    """

    def __init__(self, message: str, *, required: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.required = required
        self.budget = budget
