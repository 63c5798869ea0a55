"""Single-pass listwise scoring.

Candidates get single-symbol identifiers from rules.IDENTIFIER_ALPHABET;
after one forward pass the identifier logits are argsorted descending into a
permutation of the candidate list. No tokenizer or prompt rendering lives
here; logits arrive as plain numbers.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatchError, InvalidPermutationError
from .linalg import as_vector


def rank_from_logits(logits) -> np.ndarray:
    """Descending argsort of identifier logits.

    Ties keep the earlier candidate first, preserving the upstream
    retriever-provided ordering among equals.
    """
    return (-as_vector(logits, "logits")).argsort(kind="stable")


@functools.lru_cache(maxsize=64)
def _identity(n: int) -> tuple[np.ndarray, bytes]:
    """Read-only arange(n), the sorted form of every permutation of length n, and its bytes."""
    identity = np.arange(n, dtype=np.int64)
    identity.flags.writeable = False
    return identity, identity.tobytes()


def validate_permutation(order) -> np.ndarray:
    """Check that order is a bijection on {0, ..., n-1} and return it as ints.

    The rule: the sorted entries equal 0, ..., n-1. Entries that are not
    integers are compared as floats, so a fraction, NaN or a value too large
    for an int64 fails the bijection test and is never cast; complex, str
    and bytes entries are refused before any cast. Integers are
    cast to int64 first: a uint64 entry past the int64 range wraps to a
    negative value, which fails the same test. The check sorts a copy of its
    own in place, so the caller's sequence is never written, and the result
    is always a fresh int64 array.
    """
    arr = np.asarray(order)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidPermutationError(f"permutation must be a nonempty 1-D sequence, got shape {arr.shape}")
    kind = arr.dtype.kind
    # Complex, str and bytes entries: a cast to float64 would drop an
    # imaginary part or parse text, so none of them counts as a number.
    if kind in ("c", "U", "S"):
        raise InvalidPermutationError(f"permutation entries must be real numbers, got {arr.dtype}")
    identity, identity_bytes = _identity(arr.size)
    if kind in "iu":
        result = arr.astype(np.int64)
        ordered = result.copy()
        ordered.sort()
        # Two int64 arrays are equal exactly when their bytes are.
        if ordered.tobytes() == identity_bytes:
            return result
    else:
        try:
            arr = np.asarray(arr, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidPermutationError("permutation entries must be numbers") from exc
        ordered = arr.copy()
        ordered.sort()
        if np.count_nonzero(ordered == identity) == arr.size:
            return arr.astype(np.int64)
    raise InvalidPermutationError(f"not a bijection on 0..{arr.size - 1}: {arr.tolist()}")


def apply_permutation(items, order) -> list:
    """Reorder items so position p holds items[order[p]]."""
    seq = list(items)
    arr = validate_permutation(order)
    if len(seq) != arr.size:
        raise DimensionMismatchError(f"{len(seq)} items vs permutation of length {arr.size}")
    return [seq[i] for i in arr.tolist()]
