"""Ranking-quality evaluation.

Recall@k with micro/macro aggregation across subsets, precision@1,
binary-gain nDCG@k, mean best rank, a four-way failure taxonomy (success /
near miss / moderate miss / catastrophic miss), and Spearman rank correlation
with average-rank tie handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateConstantError,
    DimensionMismatchError,
    EmptyInputError,
    EmptyRelevantSetError,
    EmptySubsetError,
    KOutOfRangeError,
    NonFiniteError,
)
from .linalg import _as_index, as_vector

SUCCESS = "success"
NEAR_MISS = "near_miss"
MODERATE_MISS = "moderate_miss"
CATASTROPHIC_MISS = "catastrophic_miss"
FAILURE_LABELS = (SUCCESS, NEAR_MISS, MODERATE_MISS, CATASTROPHIC_MISS)
# The deepest best rank of each label but the last: 1, then 2-3, then 4-5.
_FAILURE_DEPTHS = (1, 3, 5)


@dataclass(frozen=True, slots=True)
class QueryJudgment:
    """Ground-truth relevant items plus the system's ranked candidate list.

    A relevant set that is already a frozenset, and a ranked list that is
    already a tuple, are kept as given; anything else is converted.
    """

    relevant: frozenset
    ranked: tuple

    def __post_init__(self):
        if not isinstance(self.relevant, frozenset):
            object.__setattr__(self, "relevant", frozenset(self.relevant))
        if not isinstance(self.ranked, tuple):
            object.__setattr__(self, "ranked", tuple(self.ranked))
        if not self.relevant:
            raise EmptyRelevantSetError("a judgment needs at least one relevant item")
        if len(set(self.ranked)) != len(self.ranked):
            raise DimensionMismatchError("ranked list entries must be distinct")


def finite_mean(values) -> float:
    """np.mean of values as a float; a mean that overflows or is NaN raises NonFiniteError."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            mean = float(np.mean(values))
        except OverflowError as exc:  # an int too large for a float
            raise NonFiniteError(f"mean does not fit a float: {exc}") from exc
    if not math.isfinite(mean):
        raise NonFiniteError(f"mean is {mean}: a value is NaN or infinite, or the sum overflows")
    return mean


def aggregate(values_by_subset: Mapping[str, Sequence[float]]) -> dict:
    """Micro (pooled over all queries) and macro (mean of subset means) averages.

    Each mean is finite_mean's, so an overflowing one raises NonFiniteError.
    """
    if not values_by_subset:
        raise EmptySubsetError("need at least one subset")
    pooled: list[float] = []
    subset_means: list[float] = []
    for name, values in values_by_subset.items():
        values = list(values)
        if not values:
            raise EmptySubsetError(f"subset {name!r} has no values")
        pooled.extend(values)
        subset_means.append(finite_mean(values))
    return {"micro": finite_mean(pooled), "macro": finite_mean(subset_means)}


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks over the last axis, smallest first; tied values share the
    mean of their positions.

    One stable sort per row puts each run of equal values together; a run over
    sorted positions i..j gets the rank 0.5 * (i + j) + 1. No run crosses a
    row, so the runs are found on the rows end to end.
    """
    rows = x.reshape(-1, x.shape[-1])
    n = rows.shape[1]
    order = np.argsort(rows, axis=1, kind="stable")
    ordered = np.take_along_axis(rows, order, axis=1)
    first = np.ones(rows.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], first.size) - 1
    ranks = np.empty(rows.shape, dtype=np.float64)
    sorted_ranks = np.repeat(0.5 * (starts % n + ends % n) + 1.0, ends - starts + 1)
    ranks[np.arange(len(rows))[:, None], order] = sorted_ranks.reshape(rows.shape)
    return ranks.reshape(x.shape)


def _spearman_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """spearman of each pair of rows of two equal-shape float64 arrays, as
    spearman raises and computes it for that row alone: np.vecdot takes each
    row's products with np.dot's inner loop."""
    n = x.shape[-1]
    if n < 2:
        raise EmptyInputError(f"need at least two observations, got {n}")
    if any((np.minimum.reduce(v, axis=-1) == np.maximum.reduce(v, axis=-1)).any() for v in (x, y)):
        raise DegenerateConstantError("rank correlation undefined for constant input")
    ranks = _average_ranks(np.stack([x, y]))
    ranks -= np.add.reduce(ranks, axis=-1, keepdims=True) / n
    ra, rb = ranks
    return np.clip(np.vecdot(ra, rb) / np.sqrt(np.vecdot(ra, ra) * np.vecdot(rb, rb)), -1.0, 1.0)


def spearman(x, y) -> float:
    """Spearman rank correlation, Pearson correlation of average ranks: _spearman_rows on one row."""
    a, b = as_vector(x, "x"), as_vector(y, "y")
    if a.size != b.size:
        raise DimensionMismatchError(f"need equal-length inputs, got {a.size} and {b.size}")
    return float(_spearman_rows(a, b))


def evaluate_judgments(
    judgments_by_subset: Mapping[str, Sequence[QueryJudgment]],
    k_values: Sequence[int] = (1, 3, 5),
) -> dict:
    """Full metric table over subsets: per-subset means plus micro/macro rows.

    mean_rank and the failure taxonomy only cover queries whose ground truth
    appears in the ranked list; the unranked remainder is counted separately.

    Every metric comes from the 1-based positions of each judgment's relevant
    items. recall@k is the share of relevant items in the top k (all of the
    list when k exceeds it); ndcg@k sums 1 / log2(p + 1) over the relevant
    positions p <= k and divides by the same sum over positions
    1..min(k, |relevant|); p@1 is 1.0 when position 1 is relevant; mean_rank
    averages each query's best relevant position, which also buckets it in the
    taxonomy. Each k is given once: a repeated k raises KOutOfRangeError.

    One Python pass over the judgments tests each ranked item for membership
    and lists every hit's position. The rest is array work on the hits, whose
    number is the memory it takes: per k, one bincount counts each judgment's
    hits in the top k and another adds their discounts in position order
    from 0.0, as a Python sum does; the first hits give p@1, mean_rank and,
    by searchsorted and bincount, the taxonomy; and every mean is np.mean
    over one contiguous float64 run of values in judgment order, so the
    floats equal those of a mean over per-judgment lists.
    """
    if not judgments_by_subset:
        raise EmptySubsetError("need at least one subset")
    ks = [_as_index(k, "k") for k in k_values]
    if any(k < 1 for k in ks):
        raise KOutOfRangeError(f"k must be >= 1, got {list(k_values)}")
    if len(set(ks)) < len(ks):
        raise KOutOfRangeError(f"each k must be given once, got {list(k_values)}")
    subsets = {subset: list(judgments) for subset, judgments in judgments_by_subset.items()}
    for subset, judgments in subsets.items():
        if not judgments:
            raise EmptySubsetError(f"subset {subset!r} has no judgments")
    judgments = [j for subset_judgments in subsets.values() for j in subset_judgments]
    positions: list[int] = []
    n_hits: list[int] = []
    for j in judgments:
        relevant, ranked = j.relevant, j.ranked
        if not ranked:
            raise EmptyInputError("ranked list is empty")
        hits = [p for p, item in enumerate(ranked) if item in relevant]
        positions += hits
        n_hits.append(len(hits))
    # Every hit's 0-based position and judgment, judgment by judgment in
    # position order, and each ranked judgment's 1-based best rank.
    position = np.array(positions, dtype=np.int64)
    counts = np.array(n_hits, dtype=np.int64)
    owner = np.repeat(np.arange(len(judgments)), counts)
    is_ranked = counts > 0
    best = position[(np.cumsum(counts) - counts)[is_ranked]] + 1
    n_relevant = np.array([len(j.relevant) for j in judgments], dtype=np.int64)

    # DCG discounts by 0-based position, as far as any top-k reaches, and per
    # relevant-set size the ideal DCG at each k, summed in position order.
    depth = min(max(ks, default=0), max(len(j.ranked) for j in judgments))
    discount = np.array([1.0 / math.log2(p + 2) for p in range(depth)])
    sizes, size_of = np.unique(n_relevant, return_inverse=True)
    ideal = np.array(
        [
            [sum(1.0 / math.log2(p + 1) for p in range(1, min(k, size) + 1)) for k in ks]
            for size in sizes.tolist()
        ]
    ).reshape(sizes.size, len(ks))
    # Per metric, each judgment's value.
    columns: dict[str, np.ndarray] = {}
    for i, k in enumerate(ks):
        in_top = position < k
        top_owner = owner[in_top]
        found = np.bincount(top_owner, minlength=len(judgments))
        # bincount adds each judgment's weights in input order, from 0.0.
        dcg = np.bincount(top_owner, weights=discount[position[in_top]], minlength=len(judgments))
        columns[f"recall@{k}"] = found / n_relevant
        columns[f"ndcg@{k}"] = dcg / ideal[size_of, i]
    first = np.zeros(len(judgments), dtype=np.int64)
    first[is_ranked] = best
    columns["p@1"] = (first == 1).astype(np.float64)
    ranks = best.astype(np.float64)
    labels = np.searchsorted(_FAILURE_DEPTHS, best)
    ranked_before = np.concatenate(([0], np.cumsum(is_ranked))).tolist()

    per_subset: dict[str, dict] = {}
    ends = list(accumulate(map(len, subsets.values())))
    for subset, start, end in zip(subsets, [0, *ends], ends):
        low, high = ranked_before[start], ranked_before[end]
        label_counts = np.bincount(labels[low:high], minlength=len(FAILURE_LABELS)).tolist()
        summary = {
            "n_queries": end - start,
            "failure_counts": dict(zip(FAILURE_LABELS, label_counts)),
            "n_unranked": end - start - (high - low),
        }
        for metric, values in columns.items():
            summary[metric] = float(np.mean(values[start:end]))
        summary["mean_rank"] = float(np.mean(ranks[low:high])) if high > low else None
        per_subset[subset] = summary

    if ranks.size:
        columns["mean_rank"] = ranks
    overall = {
        metric: {
            "micro": finite_mean(values),
            "macro": finite_mean(
                [summary[metric] for summary in per_subset.values() if summary[metric] is not None]
            ),
        }
        for metric, values in columns.items()
    }
    failure_counts = dict(
        zip(FAILURE_LABELS, np.bincount(labels, minlength=len(FAILURE_LABELS)).tolist())
    )
    n_classified = ranks.size
    taxonomy = {
        label: (failure_counts[label] / n_classified if n_classified else None)
        for label in FAILURE_LABELS
    }
    return {
        "per_subset": per_subset,
        "overall": overall,
        "failure_taxonomy": {
            "counts": failure_counts,
            "fractions": taxonomy,
            "n_unranked": len(judgments) - n_classified,
        },
    }
