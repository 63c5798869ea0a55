"""Query-aware visual-token pruning.

Each token gets a relevance score (its maximum cosine similarity to any query
row, _token_scores); per image the top max(1, round(rho * n_tokens)) tokens are
kept, with the surviving indices reported in their original order so
positional structure is preserved. The keep rule, a stable descending order
with the lower index first on ties, is written once (_ranks) and read by
prune_by_scores, select_topk_preserve_order, the row kernels' _top_k and the
simulate drivers. A seeded uniform-random baseline (_random_keep, numpy's
choice; synthetic replays it on arrays for simulate) and the top-k stability
rule (_topk_stability_rows, one private row kernel shared by the verify-bounds
tally and the public per-trial check) round out the module.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidRatioError,
    KOutOfRangeError,
)
from .linalg import _as_index, _as_matrix, _as_seed, _checked_tokens, _is_real, _unit_cosines
from .linalg import as_vector, cosine_to_unit, unit_rows


def as_keep_ratio(rho) -> float:
    """rho as a float; the one check that a keep ratio is a real number in
    (0, 1] whose float is too (a positive value may round to 0.0)."""
    if not (_is_real(rho) and 0.0 < rho <= 1.0 and 0.0 < (ratio := float(rho))):
        raise InvalidRatioError(f"keep ratio must be in (0, 1], got {rho!s}")
    return ratio


def maxsim_scores(s) -> np.ndarray:
    """Per-token relevance: the columnwise maximum over query rows."""
    return _as_matrix(s, "similarity matrix").max(axis=0)


def _token_scores(query, tokens, name: str = "V", stack: bool = False) -> np.ndarray:
    """Each token's relevance, its best cosine to a row of query (unit_rows(H)):
    (n,) for a (n, d) matrix, or with stack (k, n) for a (k, n, d) stack."""
    return cosine_to_unit(query, tokens, name, stack).max(axis=-2)


def _ranks(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keep rule over the last axis: (order, ranks), the stable descending
    order (the lower index first on ties) and each entry's place in it. The top
    k entries are those with ranks < k."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(scores.shape[-1]), axis=-1)
    return order, ranks


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


def _as_count(value, name: str) -> int:
    """value as an int (linalg._as_index) that must be at least 1, else EmptyInputError."""
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


def select_topk_preserve_order(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, returned in ascending (original) order.

    Ties break toward the lower original index so selection is deterministic.
    """
    arr = as_vector(scores, "scores")
    if not 1 <= (k := _as_index(k, "k")) <= arr.size:
        raise KOutOfRangeError(f"k must be in [1, {arr.size}], got {k}")
    return np.flatnonzero(_ranks(arr)[1] < k)


def random_prune(n_tokens: int, k: int, seed: int) -> np.ndarray:
    """k distinct token indices sampled uniformly without replacement, ascending:
    _random_keep drawing from np.random.default_rng(seed)."""
    n_tokens = _as_count(n_tokens, "n_tokens")
    if not 1 <= (k := _as_index(k, "k")) <= n_tokens:
        raise KOutOfRangeError(f"k must be in [1, {n_tokens}], got {k}")
    return _random_keep(np.random.default_rng(_as_seed(seed)), n_tokens, k)


def _random_keep(rng: np.random.Generator, n_tokens: int, k: int) -> np.ndarray:
    """The random keep rule: k of range(n_tokens) drawn by rng without replacement, ascending."""
    kept = rng.choice(n_tokens, size=k, replace=False)
    kept.sort()
    return kept


def _top_k(scores: np.ndarray, ks: np.ndarray, widths: np.ndarray):
    """Per row of a -inf-padded (rows, width) score array: the mask of its top k
    columns and the gap between its k-th and (k+1)-th largest scores.

    Row t holds widths[t] finite scores and needs 1 <= ks[t] < widths[t], so
    the top-k set leaves a boundary. The mask and the gap both come from
    _ranks, so ties go to the lower index; the padding sorts last.
    """
    bad = np.flatnonzero((ks < 1) | (ks >= widths))
    if bad.size:
        i = int(bad[0])
        raise KOutOfRangeError(f"k must be in [1, {int(widths[i]) - 1}], got {int(ks[i])}")
    order, ranks = _ranks(scores)
    rows = np.arange(len(ks))
    gap = scores[rows, order[rows, ks - 1]] - scores[rows, order[rows, ks]]
    return ranks < ks[:, None], gap


def _topk_stability_rows(hard, smooth, ks, widths, log_nq) -> tuple[np.ndarray, ...]:
    """Per row of -inf-padded max and log-sum-exp scores: (gap, guaranteed, sets_equal).

    gap is the hard-max margin at ks[row]. The smooth scores exceed the hard
    max by at most log(n_query), so when gap > log_nq[row] they cannot reorder
    across the boundary and the two top-k sets are guaranteed equal.
    """
    in_hard, gap = _top_k(hard, ks, widths)
    in_smooth, _ = _top_k(smooth, ks, widths)
    return gap, gap > log_nq, (in_hard == in_smooth).all(axis=1)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the top-k stability margin diagnostic."""

    gap: float
    guaranteed_stable: bool
    sets_equal: bool


def topk_stability_check(max_sim, lse, k: int, n_query: int) -> StabilityReport:
    """Whether the hard-max and smooth-pooling top-k token sets agree: one row of
    _topk_stability_rows."""
    a = as_vector(max_sim, "max_sim")
    g = as_vector(lse, "lse")
    if a.size != g.size:
        raise DimensionMismatchError(f"length mismatch: {a.size} vs {g.size}")
    n_query = _as_count(n_query, "n_query")
    ks = np.array([_as_index(k, "k")])
    rows = _topk_stability_rows(a[None], g[None], ks, np.array([a.size]), math.log(n_query))
    return StabilityReport(*(field.item() for field in rows))


@dataclass(frozen=True)
class PruneResult:
    """Kept token indices (original order) plus selection diagnostics."""

    kept_indices: tuple[int, ...]
    keep_count: int
    keep_ratio: float
    margin: float | None


def prune_by_scores(scores, rho: float) -> PruneResult:
    """Select the top keep_count(rho, n) tokens of one image by score.

    One _ranks call gives both the kept set, the tokens ranked below the
    budget in ascending index order, and the margin, read from its order.
    """
    arr = as_vector(scores, "scores")
    kept = keep_count(rho, arr.size)
    order, ranks = _ranks(arr)
    margin = None if kept == arr.size else float(arr[order[kept - 1]] - arr[order[kept]])
    return PruneResult(
        kept_indices=tuple(np.flatnonzero(ranks < kept).tolist()),
        keep_count=kept,
        keep_ratio=float(rho),
        margin=margin,
    )


def prune_images(H, images, rho: float) -> list[PruneResult]:
    """Prune every image independently against the same query rows H.

    H is checked and scaled to unit rows once, then rho is checked, before any
    image is read. images is read once, in order, and each is held as float64
    (copied only if it is not) until the call returns. Every image's checks
    and row norms run in a thread pool, one worker per CPU this process may
    use; then each image's GEMM and keep rule run in the calling thread, in
    order, so BLAS threads the GEMM as before. The results and errors are
    those of one image at a time. H and each image must be 2-D.
    """
    from concurrent.futures import ThreadPoolExecutor

    query = unit_rows(H)
    as_keep_ratio(rho)
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(workers) as pool:
        checked = list(pool.map(lambda i, image: _checked_tokens(query, image, f"images[{i}]"), count(), images))
    return [prune_by_scores(_unit_cosines(query[0], *pair).max(axis=0), rho) for pair in checked]
