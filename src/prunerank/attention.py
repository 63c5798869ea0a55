"""Softmax attention pooling and the two bounds on pruning it.

Each bound, pruning error and softmax tail gap, is one private row kernel
over a padded chunk of finite trials that holds its value rules, inequality
and constant; verify-bounds calls it per chunk, each public check on one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllMassPrunedError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidProbabilityError,
    KOutOfRangeError,
)
from .linalg import _as_index, as_embedding, as_finite_array, as_vector
from .pruning import _top_k

# Absolute slack applied to every inequality check to absorb float rounding.
BOUND_SLACK = 1e-9

# The proven coefficient in the pruning-error bound. The verify-bounds self-test
# scores the same trials against a weakened one in [0, ERROR_BOUND_CONSTANT)
# (1.9 by default) to confirm the check reports violations.
ERROR_BOUND_CONSTANT = 2.0

# Renormalizing by a kept mass below this would blow up; treat it as all pruned.
ALL_MASS_EPS = 1e-12


def softmax(scores) -> np.ndarray:
    """Max-shifted stable softmax over the last axis of a finite 1-D, 2-D or
    3-D array: one distribution, rows of them, or a stack of such rows.

    Each row comes out bit for bit as the 1-D call on that row, and the array
    is checked once.
    """
    return _softmax(as_finite_array(scores, (1, 2, 3), "softmax input"))


def _softmax(arr: np.ndarray) -> np.ndarray:
    """softmax without the input check; a -inf entry of a row with a finite one gets weight 0."""
    shifted = np.exp(arr - arr.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _weight_rows(alpha: np.ndarray) -> np.ndarray:
    """Rows of nonnegative weights each summing to 1 (within 1e-9), clipped at 0."""
    if (alpha < -BOUND_SLACK).any():
        raise InvalidProbabilityError("attention weights must be nonnegative")
    sums = alpha.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if bad.size:
        raise InvalidProbabilityError(f"attention weights must sum to 1, got {float(sums[bad[0]])!r}")
    return np.clip(alpha, 0.0, None)


def as_attention_weights(alpha) -> np.ndarray:
    """Validate a vector of nonnegative weights summing to 1 (within 1e-9)."""
    return _weight_rows(as_vector(alpha, "attention weights")[None])[0]


def _pruning_error_rows(alpha, values, kept, constants) -> tuple[np.ndarray, ...]:
    """Per row of finite zero-padded weights (rows, width), value rows (rows,
    width, dim) and kept mask: (error_norm, tail_mass, v_max, bound, holds).

    Pooling only the kept rows, renormalized, moves the output by error_norm;
    the bound is constant * tail_mass * v_max, with the removed weight and the
    largest value-row norm. Zero padding adds nothing to any of them, so no
    row widths are needed. bound and holds have shape (len(constants), rows).
    At ERROR_BOUND_CONSTANT the bound holds for every valid input and the
    antipodal case attains it.
    """
    weights = _weight_rows(alpha)
    # The bound assumes weights that sum to 1 exactly; _weight_rows admits sums within 1e-9 of 1.
    weights /= weights.sum(axis=1, keepdims=True)
    if not kept.any(axis=1).all():
        raise EmptyInputError("kept index set must be nonempty")
    tail_mass = np.where(kept, 0.0, weights).sum(axis=1)
    bad = np.flatnonzero(tail_mass >= 1.0 - ALL_MASS_EPS)
    if bad.size:
        raise AllMassPrunedError(f"kept mass {1.0 - tail_mass[bad[0]]:.3e} is too small to renormalize")
    exact = np.einsum("tn,tnd->td", weights, values)
    renormalized = np.where(kept, weights, 0.0) / (1.0 - tail_mass)[:, None]
    pruned = np.einsum("tn,tnd->td", renormalized, values)
    v_max = np.sqrt(np.einsum("tnd,tnd->tn", values, values).max(axis=1))
    error_norm = np.sqrt(np.einsum("td,td->t", exact - pruned, exact - pruned))
    bound = np.multiply.outer(constants, tail_mass) * v_max
    return error_norm, tail_mass, v_max, bound, error_norm <= bound + BOUND_SLACK


@dataclass(frozen=True)
class PruneErrorReport:
    """Exact-vs-pruned pooling gap against its tail-mass bound."""

    error_norm: float
    tail_mass: float
    v_max: float
    bound: float
    holds: bool


def check_pruning_error_bound(alpha, V, kept) -> PruneErrorReport:
    """Whether keeping only the indices in kept moves the pooled output by at most
    2 * tail_mass * v_max: one row of _pruning_error_rows. False means a bug."""
    weights = as_vector(alpha, "attention weights")
    values = as_embedding(V, "V")
    n = weights.size
    if n != values.shape[0]:
        raise DimensionMismatchError(f"{n} weights for {values.shape[0]} value rows")
    # An integral float entry such as 1.0 names its index.
    idx = [int(i) if isinstance(i, (float, np.floating)) and float(i).is_integer() else i for i in kept]
    idx = [_as_index(i, "kept index") for i in idx]
    if not all(0 <= i < n for i in idx):
        raise KOutOfRangeError(f"kept indices must lie in [0, {n - 1}]")
    mask = np.zeros((1, n), dtype=bool)
    mask[0, idx] = True
    rows = _pruning_error_rows(weights[None], values[None], mask, (ERROR_BOUND_CONSTANT,))
    return PruneErrorReport(*(field.item() for field in rows))


def _tail_gap_rows(scores, ks, widths) -> tuple[np.ndarray, ...]:
    """Per row of -inf-padded finite scores: (epsilon, delta, bound, holds).

    epsilon is the softmax mass outside the top ks[row] and delta the score
    gap at k; the removed mass decays as bound = ((n - k) / k) * exp(-delta).
    """
    in_top, delta = _top_k(scores, ks, widths)
    epsilon = np.clip(1.0 - np.where(in_top, _softmax(scores), 0.0).sum(axis=1), 0.0, None)
    bound = (widths - ks) / ks * np.exp(-delta)
    return epsilon, delta, bound, epsilon <= bound + BOUND_SLACK


@dataclass(frozen=True)
class TailGapReport:
    """Softmax tail mass outside the top-k against its gap-decay bound."""

    epsilon: float
    delta: float
    bound: float
    holds: bool


def tail_gap_bound_check(g_scores, k: int) -> TailGapReport:
    """Check epsilon <= ((n - k) / k) * exp(-delta): one row of _tail_gap_rows."""
    g = as_vector(g_scores, "scores")
    rows = _tail_gap_rows(g[None], np.array([_as_index(k, "k")]), np.array([g.size]))
    return TailGapReport(*(field.item() for field in rows))


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
    if not 0 <= (position := _as_index(position, "position")) < stacked.shape[1]:
        raise KOutOfRangeError(
            f"position must be in [0, {stacked.shape[1] - 1}], got {position}"
        )
    return stacked[:, position, :].mean(axis=0)
