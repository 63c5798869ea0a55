"""Per-item reference functions that the tests compare the package against.

The package computes these rules in bulk: similarity_matrix for the cosine,
metrics.evaluate_judgments for every ranking metric in one pass, the losses
by their analytic gradients. Here each rule is written out for one item at a
time, and the tests check the bulk results against them. assign_identifiers,
the labels of test_scoring's CandidateList, lives here too: no package path
labels candidates, and cli._merge holds the 26-image cap it once applied.
allocating_ranknet_loss and allocating_soft_rank_loss compute the two losses
with a fresh array for each step; the package makes the same float
operations in the same order in arrays it already holds, so it must match
them bit for bit.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from prunerank.errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidPermutationError,
    KOutOfRangeError,
    PrunerankError,
    ZeroNormError,
)
from prunerank.linalg import ZERO_NORM_EPS, as_vector, unit_rows
from prunerank.losses import LossValue, SoftTarget, _as_distribution, _pairs
from prunerank.metrics import (
    CATASTROPHIC_MISS,
    MODERATE_MISS,
    NEAR_MISS,
    SUCCESS,
    QueryJudgment,
)
from prunerank.pruning import _token_scores, prune_by_scores
from prunerank.scoring import IDENTIFIER_ALPHABET, validate_permutation


# The errors only these references raise; prunerank.errors holds the ones the
# package raises.
class TooManyCandidatesError(PrunerankError):
    """More candidates than available single-symbol identifiers."""


class GroundTruthNotRankedError(PrunerankError):
    """No relevant item appears in the ranked list."""


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


def allocating_ranknet_loss(s, ranks) -> LossValue:
    """losses.weighted_ranknet_loss with a fresh array for each step."""
    logits = as_vector(s, "logits")
    m = logits.size
    if m < 2:
        raise EmptyInputError(f"need at least two candidates, got {m}")
    r = np.asarray(ranks)
    if r.ndim != 1 or r.size != m:
        raise DimensionMismatchError(f"{r.size} ranks for {m} logits")
    try:
        positions = validate_permutation(r - 1)
    except (TypeError, InvalidPermutationError) as exc:
        raise InvalidPermutationError(
            f"ranks must be a permutation of 1..{m}, got {r.tolist()}"
        ) from exc

    t = np.empty(m)
    t[positions] = logits
    a, b, w = _pairs(m)
    diffs = t[b] - t[a]
    softplus = np.logaddexp(0.0, diffs)
    pull = w * np.exp(diffs - softplus)
    by_rank = np.bincount(b, pull, m) - np.bincount(a, pull, m)
    return LossValue(value=float(w @ softplus), gradient=by_rank[positions])


def allocating_soft_rank_loss(s, target) -> LossValue:
    """losses.soft_rank_loss with a fresh array for each step."""
    logits = as_vector(s, "logits")
    q = target.q if isinstance(target, SoftTarget) else _as_distribution(target)
    if q.size != logits.size:
        raise DimensionMismatchError(f"{q.size} target entries for {logits.size} logits")
    shift = np.maximum.reduce(logits)
    e = np.exp(logits - shift)
    total = np.add.reduce(e)
    value = float(shift + np.log(total) - q @ logits)
    return LossValue(value=value, gradient=e / total - q)


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
    if gt_best_rank == 1:
        label = SUCCESS
    elif gt_best_rank <= 3:
        label = NEAR_MISS
    elif gt_best_rank <= 5:
        label = MODERATE_MISS
    else:
        label = CATASTROPHIC_MISS
    return FailureClass(label=label, gt_best_rank=int(gt_best_rank))


def lexsort_top_k(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, ascending, the lower index first on
    equal scores (-0.0 equals 0.0).

    One lexsort by descending score, then by index: the rule perfbench's
    brute-force prune oracle uses, sharing no code with pruning._ranks.
    """
    arr = np.asarray(scores, dtype=np.float64)
    return np.sort(np.lexsort((np.arange(arr.size), -arr))[:k])


def sequential_prune_images(H, images, rho) -> list:
    """pruning.prune_images one image at a time: each image's checks, row
    norms, GEMM and keep rule run before the next image is read. The package
    checks and norms every image in a thread pool before the first GEMM."""
    query = unit_rows(H)
    return [prune_by_scores(_token_scores(query, image, f"images[{i}]"), rho) for i, image in enumerate(images)]


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
