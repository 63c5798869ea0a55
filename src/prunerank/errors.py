"""Exception types shared across the package.

Every class derives from PrunerankError, itself a ValueError, and no module
raises a bare ValueError or ZeroDivisionError, so the CLI maps the whole
family to `config error:` and exit 2. The specific classes pin the failure
mode. Array inputs are checked in one place (linalg.as_vector and its matrix
twin), which raises DimensionMismatchError for the wrong number of dimensions,
EmptyInputError when there are no entries and NonFiniteError for NaN or inf.
"""


class PrunerankError(ValueError):
    """Base of every error the package raises on bad input."""


class ZeroNormError(PrunerankError):
    """A vector or matrix row has (near-)zero Euclidean norm."""


class DimensionMismatchError(PrunerankError):
    """Operands have incompatible shapes or lengths."""


class EmptyInputError(PrunerankError):
    """An operation received an empty matrix or sequence."""


class NonFiniteError(PrunerankError):
    """An input contains NaN or infinite entries."""


class InvalidRatioError(PrunerankError):
    """A keep ratio is not a real number in (0, 1]."""


class KOutOfRangeError(PrunerankError):
    """A selection size k is outside its valid range."""


class InvalidPermutationError(PrunerankError):
    """An index sequence is not a bijection on {0, ..., n-1}."""


class InvalidGammaError(PrunerankError):
    """A geometric decay factor is not a real number in (0, 1)."""


class InvalidProbabilityError(PrunerankError):
    """A probability lies outside (0, 1]."""


class AllMassPrunedError(PrunerankError):
    """Pruning removed (almost) all attention mass; renormalization undefined."""


class EmptyRelevantSetError(PrunerankError):
    """A query judgment has no relevant items."""


class EmptySubsetError(PrunerankError):
    """An aggregation subset contains no values."""


class DegenerateConstantError(PrunerankError):
    """A constant sequence has no defined rank correlation."""


class ConfigError(PrunerankError):
    """A configuration object violates its documented schema."""
