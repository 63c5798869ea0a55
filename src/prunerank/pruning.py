"""Query-aware visual-token pruning.

Each token gets a relevance score (its maximum cosine similarity to any query
row); per image the top max(1, round(rho * n_tokens)) tokens are kept, with the
surviving indices reported in their original order so positional structure is
preserved. A seeded uniform-random baseline and a margin-based stability
diagnostic round out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidRatioError,
    KOutOfRangeError,
)
from .linalg import _as_matrix, as_vector, cosine_to_unit, unit_rows


def round_half_away_from_zero(x: float) -> int:
    """round() with .5 ties moving away from zero (builtin round is half-even)."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


def as_keep_ratio(rho) -> float:
    """rho as a float; the one check that a keep ratio lies in (0, 1]."""
    if not 0.0 < rho <= 1.0:
        raise InvalidRatioError(f"keep ratio must be in (0, 1], got {rho}")
    return float(rho)


def maxsim_scores(s) -> np.ndarray:
    """Per-token relevance: the columnwise maximum over query rows."""
    return _as_matrix(s, "similarity matrix").max(axis=0)


def lse_scores(s) -> np.ndarray:
    """Per-token log-sum-exp pooling over query rows, max-shifted for stability."""
    return _pool(_as_matrix(s, "similarity matrix"))[1]


def _pool(sims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max and log-sum-exp pooling over axis -2 of a (..., rows, cols) array.

    -inf padding adds exactly 0 to a column's in-order row sum, so a padded
    column pools bit for bit as unpadded, and an all-padding column to -inf.
    """
    hard = np.maximum.reduce(sims, axis=-2)
    shift, real = hard, True
    if np.minimum.reduce(hard, axis=None) == -np.inf:
        # Shift an all-padding column by 0 and keep its zero sum out of the log.
        real = hard > -np.inf
        shift = np.where(real, hard, 0.0)
    shifted = sims - shift[..., None, :]
    total = np.add.reduce(np.exp(shifted, out=shifted), axis=-2)
    return hard, np.add(hard, np.log(total, out=total, where=real), out=total)


def keep_count(rho: float, n_tokens: int) -> int:
    """Tokens to keep per image: max(1, round(rho * n_tokens)), never above n_tokens.

    The rounding is half away from zero on the decimal value of rho as typed
    (its shortest repr), so keep_count(0.009, 1500) is 14 although the float
    product is 13.4999.... Only a product within 1e-9 (relative, above 1) of a
    .5 boundary takes the exact Fraction path.
    """
    rho = as_keep_ratio(rho)
    if n_tokens < 1:
        raise EmptyInputError(f"n_tokens must be >= 1, got {n_tokens}")
    product = rho * n_tokens
    if abs(product - math.floor(product) - 0.5) <= 1e-9 * max(1.0, product):
        rounded = math.floor(Fraction(repr(rho)) * int(n_tokens) + Fraction(1, 2))
    else:
        rounded = round_half_away_from_zero(product)
    return min(n_tokens, max(1, rounded))


def select_topk_preserve_order(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, returned in ascending (original) order.

    Ties break toward the lower original index so selection is deterministic.
    """
    arr = as_vector(scores, "scores")
    if not 1 <= k <= arr.size:
        raise KOutOfRangeError(f"k must be in [1, {arr.size}], got {k}")
    top = np.argsort(-arr, kind="stable")[:k]
    return np.sort(top)


def random_prune(n_tokens: int, k: int, seed: int) -> np.ndarray:
    """k distinct token indices sampled uniformly without replacement, ascending.

    Uses numpy's seeded PCG64 generator so results reproduce across platforms.
    """
    if n_tokens < 1:
        raise EmptyInputError(f"n_tokens must be >= 1, got {n_tokens}")
    if not 1 <= k <= n_tokens:
        raise KOutOfRangeError(f"k must be in [1, {n_tokens}], got {k}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n_tokens, size=k, replace=False))


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the top-k stability margin diagnostic."""

    gap: float
    guaranteed_stable: bool
    sets_equal: bool


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
    if not 1 <= k < a.size:
        raise KOutOfRangeError(f"k must be in [1, {a.size - 1}], got {k}")
    if n_query < 1:
        raise EmptyInputError(f"n_query must be >= 1, got {n_query}")
    ordered = np.sort(a)[::-1]
    gap = float(ordered[k - 1] - ordered[k])
    guaranteed = gap > math.log(n_query)
    top_hard = set(select_topk_preserve_order(a, k).tolist())
    top_smooth = set(select_topk_preserve_order(g, k).tolist())
    return StabilityReport(gap=gap, guaranteed_stable=guaranteed, sets_equal=top_hard == top_smooth)


@dataclass(frozen=True)
class PruneResult:
    """Kept token indices (original order) plus selection diagnostics."""

    kept_indices: tuple[int, ...]
    keep_count: int
    keep_ratio: float
    margin: float | None


def prune_by_scores(scores, rho: float) -> PruneResult:
    """Select the top keep_count(rho, n) tokens of one image by score."""
    arr = as_vector(scores, "scores")
    n = arr.size
    kept = keep_count(rho, n)
    indices = select_topk_preserve_order(arr, kept)
    if kept == n:
        margin = None
    else:
        ordered = np.sort(arr)[::-1]
        margin = float(ordered[kept - 1] - ordered[kept])
    return PruneResult(
        kept_indices=tuple(int(i) for i in indices),
        keep_count=kept,
        keep_ratio=float(rho),
        margin=margin,
    )


def prune_images(H, images, rho: float) -> list[PruneResult]:
    """Prune every image independently against the same query rows H.

    H is checked and scaled to unit rows once; each image then costs one norm
    pass and one GEMM (linalg.cosine_to_unit) and is never copied. The result
    for image i depends only on H, images[i] and rho, so per-image work can
    run in parallel without changing the output.
    """
    query = unit_rows(H)
    return [
        prune_by_scores(maxsim_scores(cosine_to_unit(query, image, f"images[{i}]")), rho)
        for i, image in enumerate(images)
    ]
