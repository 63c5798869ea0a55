"""A single softmax-attention pooling used as a brute-force oracle.

The pooling is deliberately one layer with no cache or positional machinery:
it computes exactly the quantities the pruning error analysis is stated on,
so bound checks exercise the claim and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllMassPrunedError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidProbabilityError,
    KOutOfRangeError,
)
from .linalg import as_embedding, as_finite_array, as_vector

# Absolute slack applied to every inequality check to absorb float rounding.
BOUND_SLACK = 1e-9

# Renormalizing by a kept mass below this would blow up; treat it as all pruned.
ALL_MASS_EPS = 1e-12


def softmax(scores) -> np.ndarray:
    """Max-shifted stable softmax over the last axis of a finite 1-D or 2-D array.

    Each row of a 2-D array comes out bit for bit as the 1-D call on that row.
    """
    arr = as_finite_array(scores, (1, 2), "softmax input")
    shifted = np.exp(arr - arr.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def as_attention_weights(alpha) -> np.ndarray:
    """Validate nonnegative weights summing to 1 (within 1e-9)."""
    arr = as_vector(alpha, "attention weights")
    if np.any(arr < -BOUND_SLACK):
        raise InvalidProbabilityError("attention weights must be nonnegative")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise InvalidProbabilityError(f"attention weights must sum to 1, got {float(arr.sum())!r}")
    return np.clip(arr, 0.0, None)


def attention_output(alpha, V) -> np.ndarray:
    """Weighted sum of value rows: the exact pooled output."""
    weights = as_attention_weights(alpha)
    values = as_embedding(V, "V")
    if weights.size != values.shape[0]:
        raise DimensionMismatchError(
            f"{weights.size} weights for {values.shape[0]} value rows"
        )
    return weights @ values


def _as_kept(kept, n: int) -> np.ndarray:
    idx = np.unique(np.asarray(list(kept), dtype=np.int64))
    if idx.size < 1:
        raise EmptyInputError("kept index set must be nonempty")
    if idx[0] < 0 or idx[-1] >= n:
        raise KOutOfRangeError(f"kept indices must lie in [0, {n - 1}]")
    return idx


def pruned_attention_output(alpha, V, kept) -> tuple[np.ndarray, float]:
    """Pooled output over the kept rows only, renormalized by the kept mass.

    Returns (c_prime, tail_mass) where tail_mass is the total weight removed.
    """
    weights = as_attention_weights(alpha)
    values = as_embedding(V, "V")
    if weights.size != values.shape[0]:
        raise DimensionMismatchError(
            f"{weights.size} weights for {values.shape[0]} value rows"
        )
    idx = _as_kept(kept, weights.size)
    mask = np.zeros(weights.size, dtype=bool)
    mask[idx] = True
    tail_mass = float(np.clip(weights[~mask].sum(), 0.0, None))
    if tail_mass >= 1.0 - ALL_MASS_EPS:
        raise AllMassPrunedError(
            f"kept mass {1.0 - tail_mass:.3e} is too small to renormalize"
        )
    c_prime = (weights[idx] / (1.0 - tail_mass)) @ values[idx]
    return c_prime, tail_mass


@dataclass(frozen=True)
class PruneErrorReport:
    """Exact-vs-pruned pooling gap against its tail-mass bound."""

    error_norm: float
    tail_mass: float
    v_max: float
    bound: float
    holds: bool


def check_pruning_error_bound(alpha, V, kept) -> PruneErrorReport:
    """Verify that pruning moves the pooled output by at most 2 * tail_mass * v_max.

    v_max is the maximum value-row norm. The inequality holds for every valid
    input; a False report indicates an implementation bug.
    """
    c = attention_output(alpha, V)
    c_prime, tail_mass = pruned_attention_output(alpha, V, kept)
    v_max = float(np.linalg.norm(np.asarray(V, dtype=np.float64), axis=1).max())
    error_norm = float(np.linalg.norm(c - c_prime))
    bound = 2.0 * tail_mass * v_max
    return PruneErrorReport(
        error_norm=error_norm,
        tail_mass=tail_mass,
        v_max=v_max,
        bound=bound,
        holds=error_norm <= bound + BOUND_SLACK,
    )


@dataclass(frozen=True)
class TailGapReport:
    """Softmax tail mass outside the top-k against its gap-decay bound."""

    epsilon: float
    delta: float
    bound: float
    holds: bool


def tail_gap_bound_check(g_scores, k: int) -> TailGapReport:
    """Check epsilon <= ((n - k) / k) * exp(-delta) for softmax top-k tail mass.

    delta is the sorted-score gap between positions k and k+1; the removed mass
    decays exponentially in that boundary gap.
    """
    g = as_vector(g_scores, "scores")
    n = g.size
    if not 1 <= k < n:
        raise KOutOfRangeError(f"k must be in [1, {n - 1}], got {k}")
    weights = softmax(g)
    order = np.argsort(-g, kind="stable")
    epsilon = float(np.clip(1.0 - weights[order[:k]].sum(), 0.0, None))
    ordered = g[order]
    delta = float(ordered[k - 1] - ordered[k])
    bound = (n - k) / k * math.exp(-delta)
    return TailGapReport(
        epsilon=epsilon,
        delta=delta,
        bound=float(bound),
        holds=epsilon <= bound + BOUND_SLACK,
    )


def attention_mass_per_token(per_head_attention, position: int) -> np.ndarray:
    """Head-averaged attention row at the scoring position.

    per_head_attention is a stack (or list) of equally shaped 2-D matrices,
    one per head; the result is the mean over heads of row `position`.
    """
    try:
        stacked = np.asarray(per_head_attention, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatchError("head matrices must all have the same shape") from exc
    if stacked.ndim != 3 or stacked.shape[0] < 1:
        raise DimensionMismatchError(
            f"expected a nonempty stack of 2-D head matrices, got shape {stacked.shape}"
        )
    if not 0 <= position < stacked.shape[1]:
        raise KOutOfRangeError(
            f"position must be in [0, {stacked.shape[1] - 1}], got {position}"
        )
    return stacked[:, position, :].mean(axis=0)
