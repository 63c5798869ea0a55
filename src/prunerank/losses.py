"""Ranking objectives over identifier logits, with analytic gradients.

Two ranking losses are provided: a weighted pairwise logistic loss whose
1/(r_i + r_j) weights emphasize pairs involving top-ranked items, and a
listwise cross-entropy against a geometrically decaying soft target. Both
differentiate with respect to the logits only; propagating further into a
model is out of scope at desk scale. A generic stepwise negative
log-likelihood and a central-difference gradient checker complete the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidGammaError,
    InvalidPermutationError,
    InvalidProbabilityError,
)
from .linalg import as_vector
from .scoring import validate_permutation


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + exp(x)) as x + log1p(exp(-x)) for positive x; logaddexp does both branches.
    return np.logaddexp(0.0, x)


@dataclass(frozen=True)
class LossValue:
    """A scalar loss together with its gradient w.r.t. the logits."""

    value: float
    gradient: np.ndarray


def weighted_ranknet_loss(s, ranks) -> LossValue:
    """Weighted pairwise logistic ranking loss.

    For every ordered pair with r_i < r_j the term is
    log(1 + exp(s_j - s_i)) / (r_i + r_j); rank 1 is the most relevant item.
    The per-pair gradient is antisymmetric, so the total gradient sums to zero.
    """
    logits = as_vector(s, "logits")
    m = logits.size
    if m < 2:
        raise EmptyInputError(f"need at least two candidates, got {m}")
    r = np.asarray(ranks)
    if r.ndim != 1 or r.size != m:
        raise DimensionMismatchError(f"{r.size} ranks for {m} logits")
    r = r.astype(np.int64)
    if not np.array_equal(np.sort(r), np.arange(1, m + 1)):
        raise InvalidPermutationError(f"ranks must be a permutation of 1..{m}, got {r.tolist()}")

    diffs = logits[None, :] - logits[:, None]  # diffs[i, j] = s_j - s_i
    weights = 1.0 / (r[:, None] + r[None, :]).astype(np.float64)
    active = r[:, None] < r[None, :]
    value = float(np.sum(weights[active] * _softplus(diffs[active])))
    pair_grad = weights * _sigmoid(diffs) * active
    gradient = pair_grad.sum(axis=0) - pair_grad.sum(axis=1)
    return LossValue(value=value, gradient=gradient)


def _as_distribution(q) -> np.ndarray:
    arr = as_vector(q, "soft target")
    if np.any(arr <= 0.0):
        raise InvalidProbabilityError("soft target entries must be positive")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise InvalidProbabilityError(f"soft target must sum to 1, got {float(arr.sum())!r}")
    return arr


@dataclass(frozen=True)
class SoftTarget:
    """A target distribution decaying geometrically down a teacher ordering."""

    q: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "q", _as_distribution(self.q))


def geometric_target(teacher_order, gamma: float) -> SoftTarget:
    """Mass proportional to gamma**p for the candidate at teacher position p.

    teacher_order[p] is the candidate index placed at position p (position 0
    being the teacher's most relevant pick).
    """
    if not 0.0 < gamma < 1.0:
        raise InvalidGammaError(f"gamma must be in (0, 1), got {gamma}")
    order = validate_permutation(teacher_order)
    raw = gamma ** np.arange(order.size, dtype=np.float64)
    raw /= raw.sum()
    q = np.empty_like(raw)
    q[order] = raw
    return SoftTarget(q=q, gamma=float(gamma))


def soft_rank_loss(s, target) -> LossValue:
    """Cross-entropy between softmax(s) and a soft target distribution.

    The gradient is softmax(s) - q, and the value is bounded below by the
    target's entropy, with equality exactly when softmax(s) = q.
    """
    logits = as_vector(s, "logits")
    q = target.q if isinstance(target, SoftTarget) else _as_distribution(target)
    if q.size != logits.size:
        raise DimensionMismatchError(f"{q.size} target entries for {logits.size} logits")
    shift = logits.max()
    log_norm = shift + np.log(np.exp(logits - shift).sum())
    value = float(log_norm - np.dot(q, logits))
    p = np.exp(logits - log_norm)
    return LossValue(value=value, gradient=p - q)


def nll_loss(step_probs) -> float:
    """Total negative log-likelihood of a sequence of per-step probabilities."""
    p = as_vector(step_probs, "step probabilities")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise InvalidProbabilityError("step probabilities must lie in (0, 1]")
    return float(-np.log(p).sum())


def stage_loss(base: float, aux: LossValue, lam: float) -> float:
    """Combined objective: likelihood term plus lam times the ranking term.

    lam is assumed nonnegative.
    """
    return float(base + lam * aux.value)


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
