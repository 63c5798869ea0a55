"""The bound checks written out for one trial at a time: the oracle for the row kernels.

Each function scores one trial with plain per-trial numpy: the 1-D weight
rule, the exact and the pruned pooled outputs, a sort of the scores, Python
sets of the top-k indices, chosen by library_oracles.lexsort_top_k. They share
no code with attention._pruning_error_rows, attention._tail_gap_rows,
pruning._topk_stability_rows or the keep rule they rank by (pruning._ranks), so
the tallies and the public one-row checks are compared against an independent
reference.
"""

import math
import numbers

import numpy as np

from prunerank.attention import (
    ALL_MASS_EPS,
    BOUND_SLACK,
    PruneErrorReport,
    TailGapReport,
    softmax,
)
from prunerank.errors import (
    AllMassPrunedError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidProbabilityError,
    KOutOfRangeError,
)
from prunerank.linalg import as_embedding, as_vector
from prunerank.pruning import StabilityReport
from library_oracles import lexsort_top_k


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


def _require_integer(k) -> None:
    if not isinstance(k, numbers.Integral):
        raise KOutOfRangeError(f"k must be an integer, got {k!r}")


def _as_kept(kept, n: int) -> np.ndarray:
    entries = list(kept)
    if not entries:
        raise EmptyInputError("kept index set must be nonempty")
    for i in entries:
        integral = isinstance(i, numbers.Integral) or (isinstance(i, numbers.Real) and float(i).is_integer())
        if not integral or not 0 <= i < n:
            raise KOutOfRangeError(f"kept indices must be integers in [0, {n - 1}], got {i!r}")
    return np.unique(np.asarray(entries, dtype=np.int64))


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


def tail_gap_bound_check(g_scores, k: int) -> TailGapReport:
    """Check epsilon <= ((n - k) / k) * exp(-delta) for softmax top-k tail mass.

    delta is the sorted-score gap between positions k and k+1; the removed mass
    decays exponentially in that boundary gap.
    """
    g = as_vector(g_scores, "scores")
    n = g.size
    _require_integer(k)
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


def topk_stability_check(max_sim, lse, k: int, n_query: int) -> StabilityReport:
    """Check whether the hard-max and smooth-pooling top-k token sets agree.

    gap is the sorted-score margin between positions k and k+1 of the hard-max
    scores. When gap > log(n_query), the smooth scores cannot reorder across
    the boundary (they exceed the hard max by at most log(n_query)), so set
    equality is guaranteed.
    """
    a = as_vector(max_sim, "max_sim")
    g = as_vector(lse, "lse")
    if a.size != g.size:
        raise DimensionMismatchError(f"length mismatch: {a.size} vs {g.size}")
    _require_integer(k)
    if not 1 <= k < a.size:
        raise KOutOfRangeError(f"k must be in [1, {a.size - 1}], got {k}")
    if n_query < 1:
        raise EmptyInputError(f"n_query must be >= 1, got {n_query}")
    ordered = np.sort(a)[::-1]
    gap = float(ordered[k - 1] - ordered[k])
    guaranteed = gap > math.log(n_query)
    top_hard = set(lexsort_top_k(a, k).tolist())
    top_smooth = set(lexsort_top_k(g, k).tolist())
    return StabilityReport(gap=gap, guaranteed_stable=guaranteed, sets_equal=top_hard == top_smooth)
