"""Every rule on one scalar input, written once, and the constants cli's leaf
tables read. The array modules, cli and the FLOPs model all import them from
here, so this module imports no numpy: cost-model, and any config that
cli._merge refuses, run without it.
"""

from __future__ import annotations

import math
import numbers
import operator
import string
from decimal import Decimal
from fractions import Fraction

from .errors import EmptyInputError, InvalidRatioError, KOutOfRangeError

# Candidates' single-symbol identifiers; their count caps n_images (cli._MAXIMUMS).
IDENTIFIER_ALPHABET = string.ascii_uppercase

# The proven coefficient in the pruning-error bound. The verify-bounds self-test scores
# the same trials against a weakened one in [0, ERROR_BOUND_CONSTANT) (cli._BELOW).
ERROR_BOUND_CONSTANT = 2.0


def _as_index(value, name: str) -> int:
    """The one integer rule for a k, position, index, count or seed: an int or
    numpy integer (operator.index) as an int; anything else raises KOutOfRangeError."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise KOutOfRangeError(f"{name} must be an integer, got {value!r}") from exc


def _is_real(value) -> bool:
    """The one real-number rule for a ratio or a decay factor: numbers.Real,
    a Decimal that is not NaN, or a numpy scalar or 0-d array whose item is
    one (bool included)."""
    # float first: an isinstance check against the numbers.Real ABC is slow on a float.
    if isinstance(value, (float, numbers.Real)):
        return True
    if isinstance(value, Decimal):  # a Decimal NaN signals when compared
        return not value.is_nan()
    return getattr(value, "ndim", None) == 0 and _is_real(value.item())


def _as_seed(value) -> int:
    """The one seed rule: an integer (_as_index) of at least 0, else KOutOfRangeError."""
    if (seed := _as_index(value, "seed")) < 0:
        raise KOutOfRangeError(f"seed must be >= 0, got {seed}")
    return seed


def as_keep_ratio(rho) -> float:
    """rho as a float; the one check that a keep ratio is a real number in
    (0, 1] whose float is too (a positive value may round to 0.0)."""
    if not (_is_real(rho) and 0.0 < rho <= 1.0 and 0.0 < (ratio := float(rho))):
        raise InvalidRatioError(f"keep ratio must be in (0, 1], got {rho!s}")
    return ratio


def _as_count(value, name: str) -> int:
    """value as an int (_as_index) that must be at least 1, else EmptyInputError."""
    count = _as_index(value, name)
    if count < 1:
        raise EmptyInputError(f"{name} must be >= 1, got {count}")
    return count


def _round_product(value: float, count: int) -> int:
    """The one rounding rule for value * count, value >= 0: half away from zero
    on the decimal value of value as typed (its shortest repr). Only a product
    within 1e-9 (relative, above 1) of a .5 boundary takes the exact Fraction
    path, and every product above 5e8 does, so a large product rounds exactly.
    """
    product = value * count
    if abs(product - math.floor(product) - 0.5) <= 1e-9 * max(1.0, product):
        return math.floor(Fraction(repr(value)) * count + Fraction(1, 2))
    return math.floor(product + 0.5)


def keep_count(rho: float, n_tokens: int) -> int:
    """Tokens to keep per image: max(1, round(rho * n_tokens)), never above n_tokens.

    The rounding is _round_product's, so keep_count(0.009, 1500) is 14 although
    the float product is 13.4999....
    """
    rho = as_keep_ratio(rho)
    n_tokens = _as_count(n_tokens, "n_tokens")
    return min(n_tokens, max(1, _round_product(rho, n_tokens)))
