"""Ranking-quality evaluation.

Recall@k with micro/macro aggregation across subsets, precision@1,
binary-gain nDCG@k, mean best rank, a four-way failure taxonomy (success /
near miss / moderate miss / catastrophic miss), and Spearman rank correlation
with average-rank tie handling.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class QueryJudgment:
    """Ground-truth relevant items plus the system's ranked candidate list."""

    relevant: frozenset
    ranked: tuple

    def __post_init__(self):
        object.__setattr__(self, "relevant", frozenset(self.relevant))
        object.__setattr__(self, "ranked", tuple(self.ranked))
        if not self.relevant:
            raise EmptyRelevantSetError("a judgment needs at least one relevant item")
        if len(set(self.ranked)) != len(self.ranked):
            raise DimensionMismatchError("ranked list entries must be distinct")


def _failure_label(rank: int) -> str:
    if rank == 1:
        return SUCCESS
    if rank <= 3:
        return NEAR_MISS
    if rank <= 5:
        return MODERATE_MISS
    return CATASTROPHIC_MISS


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
    """1-based ranks, smallest first; tied values share the mean of their positions.

    One stable sort puts each run of equal values together; a run over sorted
    positions i..j gets the rank 0.5 * (i + j) + 1.
    """
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], x.size) - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    a = as_vector(x, "x")
    b = as_vector(y, "y")
    if a.size != b.size:
        raise DimensionMismatchError(f"need equal-length inputs, got {a.size} and {b.size}")
    if a.size < 2:
        raise EmptyInputError(f"need at least two observations, got {a.size}")
    if np.minimum.reduce(a) == np.maximum.reduce(a) or np.minimum.reduce(b) == np.maximum.reduce(b):
        raise DegenerateConstantError("rank correlation undefined for constant input")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    ra -= np.add.reduce(ra) / ra.size
    rb -= np.add.reduce(rb) / rb.size
    denom = math.sqrt(float(np.dot(ra, ra)) * float(np.dot(rb, rb)))
    if denom == 0.0:
        raise DegenerateConstantError("rank correlation undefined: zero rank variance")
    return float(np.clip(float(np.dot(ra, rb)) / denom, -1.0, 1.0))


def evaluate_judgments(
    judgments_by_subset: Mapping[str, Sequence[QueryJudgment]],
    k_values: Sequence[int] = (1, 3, 5),
) -> dict:
    """Full metric table over subsets: per-subset means plus micro/macro rows.

    mean_rank and the failure taxonomy only cover queries whose ground truth
    appears in the ranked list; the unranked remainder is counted separately.

    One pass per judgment: every metric comes from the 1-based positions of
    its relevant items. recall@k is the share of relevant items in the top k
    (all of the list when k exceeds it); ndcg@k sums 1 / log2(p + 1) over the
    relevant positions p <= k and divides by the same sum over positions
    1..min(k, |relevant|); p@1 is 1.0 when position 1 is relevant; mean_rank
    averages each query's best relevant position, and _failure_label buckets it.
    """
    if not judgments_by_subset:
        raise EmptySubsetError("need at least one subset")
    if any(_as_index(k, "k") < 1 for k in k_values):
        raise KOutOfRangeError(f"k must be >= 1, got {list(k_values)}")
    subsets = {subset: list(judgments) for subset, judgments in judgments_by_subset.items()}
    for subset, judgments in subsets.items():
        if not judgments:
            raise EmptySubsetError(f"subset {subset!r} has no judgments")
    # DCG discounts by 1-based position, as far as any top-k reaches, and per
    # relevant-set size the ideal DCG at each k, summed in position order.
    depth = min(
        max(k_values, default=0),
        max(len(j.ranked) for judgments in subsets.values() for j in judgments),
    )
    discount = [0.0] + [1.0 / math.log2(p + 1) for p in range(1, depth + 1)]
    ideal_by_size: dict[int, list[float]] = {}
    recall_names = [f"recall@{k}" for k in k_values]
    ndcg_names = [f"ndcg@{k}" for k in k_values]

    metric_values: dict[str, dict[str, list[float]]] = {}
    per_subset: dict[str, dict] = {}
    failure_counts = {label: 0 for label in FAILURE_LABELS}
    unranked = 0
    for subset, judgments in subsets.items():
        # One list per metric name; a repeated k appends to its list twice.
        values = {name: [] for pair in zip(recall_names, ndcg_names) for name in pair}
        recall_lists = [values[name] for name in recall_names]
        ndcg_lists = [values[name] for name in ndcg_names]
        p_at_1 = values["p@1"] = []
        ranks: list[float] = []
        subset_failures = {label: 0 for label in FAILURE_LABELS}
        for j in judgments:
            relevant = j.relevant
            if not j.ranked:
                raise EmptyInputError("ranked list is empty")
            hits = [p for p, item in enumerate(j.ranked, start=1) if item in relevant]
            n_relevant = len(relevant)
            ideals = ideal_by_size.get(n_relevant)
            if ideals is None:
                ideals = ideal_by_size[n_relevant] = [
                    sum(1.0 / math.log2(p + 1) for p in range(1, min(k, n_relevant) + 1))
                    for k in k_values
                ]
            for k, ideal, recall_list, ndcg_list in zip(k_values, ideals, recall_lists, ndcg_lists):
                top = bisect.bisect_right(hits, k)
                recall_list.append(top / n_relevant)
                ndcg_list.append(sum(map(discount.__getitem__, hits[:top])) / ideal)
            if hits:
                p_at_1.append(1.0 if hits[0] == 1 else 0.0)
                ranks.append(float(hits[0]))
                subset_failures[_failure_label(hits[0])] += 1
            else:
                p_at_1.append(0.0)
        if ranks:
            values["mean_rank"] = ranks
        summary = {
            "n_queries": len(judgments),
            "failure_counts": subset_failures,
            "n_unranked": len(judgments) - len(ranks),
        }
        for metric, metric_list in values.items():
            summary[metric] = float(np.mean(metric_list))
            metric_values.setdefault(metric, {})[subset] = metric_list
        summary.setdefault("mean_rank", None)
        per_subset[subset] = summary
        for label in FAILURE_LABELS:
            failure_counts[label] += subset_failures[label]
        unranked += summary["n_unranked"]

    overall = {
        metric: aggregate(by_subset) for metric, by_subset in metric_values.items()
    }
    n_classified = sum(failure_counts.values())
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
            "n_unranked": unranked,
        },
    }
