"""Ranking-quality evaluation.

Recall@k with micro/macro aggregation across subsets, precision@1,
binary-gain nDCG@k, mean best rank, a four-way failure taxonomy (success /
near miss / moderate miss / catastrophic miss), and Spearman rank correlation
with average-rank tie handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateConstantError,
    DimensionMismatchError,
    EmptyInputError,
    EmptyRelevantSetError,
    EmptySubsetError,
    GroundTruthNotRankedError,
    KOutOfRangeError,
)
from .linalg import as_vector

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


def recall_at_k(judgment: QueryJudgment, k: int) -> float:
    """Fraction of relevant items appearing in the top-k of the ranked list.

    k beyond the ranked length is treated as the full ranked list.
    """
    if k < 1:
        raise KOutOfRangeError(f"k must be >= 1, got {k}")
    top = set(judgment.ranked[:k])
    return len(judgment.relevant & top) / len(judgment.relevant)


def precision_at_1(judgment: QueryJudgment) -> float:
    """1.0 if the top-ranked item is relevant, else 0.0."""
    if not judgment.ranked:
        raise EmptyInputError("ranked list is empty")
    return 1.0 if judgment.ranked[0] in judgment.relevant else 0.0


def ndcg_at_k(judgment: QueryJudgment, k: int) -> float:
    """Binary-gain nDCG with 1 / log2(p + 1) discounting at 1-based position p.

    The ideal DCG places relevant items in the first min(k, |relevant|)
    positions, so the result lies in [0, 1].
    """
    if k < 1:
        raise KOutOfRangeError(f"k must be >= 1, got {k}")
    dcg = sum(
        1.0 / math.log2(p + 1)
        for p, item in enumerate(judgment.ranked[:k], start=1)
        if item in judgment.relevant
    )
    ideal = sum(1.0 / math.log2(p + 1) for p in range(1, min(k, len(judgment.relevant)) + 1))
    return dcg / ideal


def best_relevant_rank(judgment: QueryJudgment) -> int:
    """1-based position of the best-ranked relevant item."""
    for p, item in enumerate(judgment.ranked, start=1):
        if item in judgment.relevant:
            return p
    raise GroundTruthNotRankedError("no relevant item appears in the ranked list")


def mean_rank(judgments: Iterable[QueryJudgment]) -> float:
    """Mean over queries of the best (smallest) rank of any relevant item."""
    ranks = [best_relevant_rank(j) for j in judgments]
    if not ranks:
        raise EmptyInputError("need at least one judgment")
    return float(np.mean(ranks))


@dataclass(frozen=True)
class FailureClass:
    """Failure bucket for one query, keyed by the best ground-truth rank."""

    label: str
    gt_best_rank: int


def classify_failure(gt_best_rank: int) -> FailureClass:
    """Bucket a query by where its best relevant item landed.

    Rank 1 is a success; 2-3 a near miss; 4-5 a moderate miss; anything deeper
    a catastrophic miss. The four buckets partition all outcomes.
    """
    if gt_best_rank < 1:
        raise KOutOfRangeError(f"rank must be >= 1, got {gt_best_rank}")
    if gt_best_rank == 1:
        label = SUCCESS
    elif gt_best_rank <= 3:
        label = NEAR_MISS
    elif gt_best_rank <= 5:
        label = MODERATE_MISS
    else:
        label = CATASTROPHIC_MISS
    return FailureClass(label=label, gt_best_rank=int(gt_best_rank))


def aggregate(values_by_subset: Mapping[str, Sequence[float]]) -> dict:
    """Micro (pooled over all queries) and macro (mean of subset means) averages."""
    if not values_by_subset:
        raise EmptySubsetError("need at least one subset")
    pooled: list[float] = []
    subset_means: list[float] = []
    for name, values in values_by_subset.items():
        values = list(values)
        if not values:
            raise EmptySubsetError(f"subset {name!r} has no values")
        pooled.extend(values)
        subset_means.append(float(np.mean(values)))
    return {"micro": float(np.mean(pooled)), "macro": float(np.mean(subset_means))}


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, smallest first; tied values share the mean of their positions."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    a = as_vector(x, "x")
    b = as_vector(y, "y")
    if a.size != b.size:
        raise DimensionMismatchError(f"need equal-length inputs, got {a.size} and {b.size}")
    if a.size < 2:
        raise EmptyInputError(f"need at least two observations, got {a.size}")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DegenerateConstantError("rank correlation undefined for constant input")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
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
    """
    if not judgments_by_subset:
        raise EmptySubsetError("need at least one subset")
    metric_values: dict[str, dict[str, list[float]]] = {}
    per_subset: dict[str, dict] = {}
    failure_counts = {label: 0 for label in FAILURE_LABELS}
    unranked = 0

    def record(metric: str, subset: str, value: float) -> None:
        metric_values.setdefault(metric, {}).setdefault(subset, []).append(value)

    for subset, judgments in judgments_by_subset.items():
        judgments = list(judgments)
        if not judgments:
            raise EmptySubsetError(f"subset {subset!r} has no judgments")
        subset_failures = {label: 0 for label in FAILURE_LABELS}
        subset_unranked = 0
        best_ranks: list[int] = []
        for j in judgments:
            for k in k_values:
                record(f"recall@{k}", subset, recall_at_k(j, k))
                record(f"ndcg@{k}", subset, ndcg_at_k(j, k))
            record("p@1", subset, precision_at_1(j))
            try:
                rank = best_relevant_rank(j)
            except GroundTruthNotRankedError:
                subset_unranked += 1
                continue
            best_ranks.append(rank)
            record("mean_rank", subset, float(rank))
            subset_failures[classify_failure(rank).label] += 1
        summary = {
            "n_queries": len(judgments),
            "failure_counts": subset_failures,
            "n_unranked": subset_unranked,
        }
        for metric, by_subset in metric_values.items():
            if subset in by_subset:
                summary[metric] = float(np.mean(by_subset[subset]))
        if not best_ranks:
            summary["mean_rank"] = None
        per_subset[subset] = summary
        for label in FAILURE_LABELS:
            failure_counts[label] += subset_failures[label]
        unranked += subset_unranked

    overall = {
        metric: aggregate(by_subset) for metric, by_subset in metric_values.items()
    }
    n_classified = sum(failure_counts.values())
    taxonomy = {
        label: (failure_counts[label] / n_classified if n_classified else None)
        for label in FAILURE_LABELS
    }
    return {
        "k_values": list(k_values),
        "per_subset": per_subset,
        "overall": overall,
        "failure_taxonomy": {
            "counts": failure_counts,
            "fractions": taxonomy,
            "n_unranked": unranked,
        },
    }
