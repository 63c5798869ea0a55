"""Single-pass listwise scoring.

Candidates get single-symbol identifiers; after one forward pass the
identifier logits are argsorted descending into a permutation of the
candidate list. No tokenizer or prompt rendering lives here; logits arrive
as plain numbers.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidPermutationError,
    TooManyCandidatesError,
)
from .linalg import as_vector

IDENTIFIER_ALPHABET = string.ascii_uppercase


def assign_identifiers(k: int) -> list[str]:
    """First k single-symbol candidate labels, A through Z."""
    if k < 1:
        raise EmptyInputError(f"need at least one candidate, got k={k}")
    if k > len(IDENTIFIER_ALPHABET):
        raise TooManyCandidatesError(
            f"at most {len(IDENTIFIER_ALPHABET)} single-symbol identifiers, got k={k}"
        )
    return list(IDENTIFIER_ALPHABET[:k])


@dataclass(frozen=True)
class CandidateList:
    """Retriever-ordered candidates paired with their identifier tokens."""

    ids: tuple
    identifier_tokens: tuple[str, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.identifier_tokens):
            raise DimensionMismatchError(
                f"{len(self.ids)} ids vs {len(self.identifier_tokens)} identifiers"
            )
        if not 1 <= len(self.ids) <= len(IDENTIFIER_ALPHABET):
            raise TooManyCandidatesError(
                f"candidate count must be in [1, {len(IDENTIFIER_ALPHABET)}], got {len(self.ids)}"
            )
        if len(set(self.identifier_tokens)) != len(self.identifier_tokens):
            raise InvalidPermutationError("identifier tokens must be distinct")

    @property
    def k(self) -> int:
        return len(self.ids)

    @classmethod
    def from_ids(cls, ids) -> "CandidateList":
        ids = tuple(ids)
        return cls(ids=ids, identifier_tokens=tuple(assign_identifiers(len(ids))))


def rank_from_logits(logits) -> np.ndarray:
    """Descending argsort of identifier logits.

    Ties keep the earlier candidate first, preserving the upstream
    retriever-provided ordering among equals.
    """
    return np.argsort(-as_vector(logits, "logits"), kind="stable")


def validate_permutation(order) -> np.ndarray:
    """Check that order is a bijection on {0, ..., n-1} and return it as ints."""
    arr = np.asarray(order)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidPermutationError(f"permutation must be a nonempty 1-D sequence, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        idx = np.asarray(arr, dtype=np.float64)
        if not np.all(np.isfinite(idx)) or np.any(idx != np.round(idx)):
            raise InvalidPermutationError("permutation entries must be integers")
        arr = idx.astype(np.int64)
    else:
        arr = arr.astype(np.int64)
    if not np.array_equal(np.sort(arr), np.arange(arr.size)):
        raise InvalidPermutationError(
            f"not a bijection on 0..{arr.size - 1}: {arr.tolist()}"
        )
    return arr


def apply_permutation(items, order) -> list:
    """Reorder items so position p holds items[order[p]]."""
    seq = list(items)
    arr = validate_permutation(order)
    if len(seq) != arr.size:
        raise DimensionMismatchError(f"{len(seq)} items vs permutation of length {arr.size}")
    return [seq[i] for i in arr]
