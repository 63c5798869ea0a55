"""Per-item reference functions that the tests compare the package against.

The package computes these rules in bulk: similarity_matrix for the cosine,
metrics.evaluate_judgments for every ranking metric in one pass, the losses
by their analytic gradients. Here each rule is written out for one item at a
time, and the tests check the bulk results against them. assign_identifiers,
the labels of test_scoring's CandidateList, lives here too: no package path
labels candidates, and cli._merge holds the 26-image cap it once applied.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from prunerank.errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    GroundTruthNotRankedError,
    KOutOfRangeError,
    TooManyCandidatesError,
    ZeroNormError,
)
from prunerank.linalg import ZERO_NORM_EPS, as_vector
from prunerank.losses import LossValue
from prunerank.metrics import QueryJudgment, _failure_label
from prunerank.scoring import IDENTIFIER_ALPHABET


def cosine_similarity(h, v) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]."""
    a = as_vector(h, "h")
    b = as_vector(v, "v")
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        raise ZeroNormError("cosine undefined for (near-)zero-norm vectors")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def finite_difference_gradcheck(
    loss: Callable[[np.ndarray], LossValue], s, epsilon: float = 1e-6
) -> float:
    """Max relative error between an analytic gradient and central differences.

    Relative error per coordinate is |analytic - numeric| / max(1, |numeric|);
    epsilon must lie in [1e-8, 1e-3] so the difference quotient is meaningful.
    """
    if not 1e-8 <= epsilon <= 1e-3:
        raise ConfigError(f"epsilon must be in [1e-8, 1e-3], got {epsilon}")
    point = np.asarray(s, dtype=np.float64).copy()
    analytic = np.asarray(loss(point).gradient, dtype=np.float64)
    worst = 0.0
    for i in range(point.size):
        bumped_up = point.copy()
        bumped_up[i] += epsilon
        bumped_down = point.copy()
        bumped_down[i] -= epsilon
        numeric = (loss(bumped_up).value - loss(bumped_down).value) / (2.0 * epsilon)
        err = abs(float(analytic[i]) - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst


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
    return FailureClass(label=_failure_label(gt_best_rank), gt_best_rank=int(gt_best_rank))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, smallest first; tied values share the mean of their positions.

    The run-by-run loop that metrics._average_ranks computes with one sort.
    """
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


def assign_identifiers(k: int) -> list[str]:
    """First k single-symbol candidate labels, A through Z."""
    if k < 1:
        raise EmptyInputError(f"need at least one candidate, got k={k}")
    if k > len(IDENTIFIER_ALPHABET):
        raise TooManyCandidatesError(
            f"at most {len(IDENTIFIER_ALPHABET)} single-symbol identifiers, got k={k}"
        )
    return list(IDENTIFIER_ALPHABET[:k])
