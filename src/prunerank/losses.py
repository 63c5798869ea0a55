"""Ranking objectives over identifier logits, with analytic gradients.

Two ranking losses are provided: a weighted pairwise logistic loss whose
1/(r_i + r_j) weights emphasize pairs involving top-ranked items, and a
listwise cross-entropy against a geometrically decaying soft target. Both
differentiate with respect to the logits only; propagating further into a
model is out of scope at desk scale. A generic stepwise negative
log-likelihood and the stage combination complete the module.

Lists are short (tens of candidates), so a call's cost is its count of numpy
calls, and each loss makes a few whole-array ones. The pairwise loss puts the
logits in rank order first: every active pair then lies in the strict upper
triangle, and its weight depends only on the two positions. So one pass over
the m(m-1)/2 pairs of that triangle, each with its fixed weight, covers every
pair: the value is one dot product and the gradient two bincount scatters.
The pair positions and weights depend only on m and the normalized geometric
decay only on gamma and m, so each comes from a small cache. The cached
arrays are read-only, and a caller only ever receives fresh arrays computed
from them. Each loss computes in the array it returns or in one it already
holds, and takes each dot product by the array's dot method (the BLAS dot of
@ without matmul's ufunc dispatch): the same float operations in the same
order as with fresh arrays, so every result is the same bit for bit.

Each input is checked once. The public SoftTarget constructor checks its
distribution and keeps a read-only copy, so the invariant holds for as long as
the target lives. geometric_target needs neither step: the decay cache's fill
checks the distribution rule once per (gamma, m), and the target's q is a
fresh scatter of that decay by the checked teacher order, frozen in place.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidGammaError,
    InvalidPermutationError,
    InvalidProbabilityError,
)
from .linalg import as_vector
from .rules import _is_real
from .scoring import validate_permutation

# Distinct list lengths (and gammas) whose tables stay cached.
_TABLE_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (a, b, w) over the strict upper triangle: a < b and w = 1/(a + b + 2).

    Positions a and b are zero-based, so a + b + 2 is the pair's rank sum.
    """
    a, b = np.triu_indices(m, 1)
    w = 1.0 / (a + b + 2.0)
    for arr in (a, b, w):
        arr.flags.writeable = False
    return a, b, w


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _geometric_decay(gamma: float, m: int) -> np.ndarray:
    """Read-only gamma**p / sum for teacher positions p = 0..m-1, checked as a distribution once."""
    decay = gamma ** np.arange(m, dtype=np.float64)
    if decay[-1] == 0.0:
        raise InvalidGammaError(f"gamma {gamma} underflows over {m} positions: gamma**{m - 1} is 0")
    decay /= decay.sum()
    _check_distribution(decay)
    decay.flags.writeable = False
    return decay


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
    try:
        positions = validate_permutation(r - 1)
    except (TypeError, InvalidPermutationError) as exc:
        # TypeError: r - 1 has no numeric meaning (strings, None).
        raise InvalidPermutationError(
            f"ranks must be a permutation of 1..{m}, got {r.tolist()}"
        ) from exc

    t = np.empty(m)
    t[positions] = logits  # t[a] is the logit of the item ranked a + 1
    a, b, w = _pairs(m)
    diffs = t[b]
    diffs -= t[a]
    softplus = np.logaddexp(0.0, diffs)
    value = float(w.dot(softplus))
    # diffs becomes each pair's pull w * sigmoid(d) = w * exp(d - softplus(d)), which never overflows.
    diffs -= softplus
    np.exp(diffs, out=diffs)
    diffs *= w
    by_rank = np.bincount(b, diffs, m)
    by_rank -= np.bincount(a, diffs, m)
    return LossValue(value, by_rank[positions])


def _check_distribution(arr: np.ndarray) -> None:
    """The distribution rule on a float64 vector: positive entries summing to 1 within 1e-9.

    The rule also implies finiteness: a NaN fails the minimum and an infinity
    the sum.
    """
    if not np.minimum.reduce(arr) > 0.0:
        raise InvalidProbabilityError("soft target entries must be positive")
    total = float(np.add.reduce(arr))
    if abs(total - 1.0) > 1e-9:
        raise InvalidProbabilityError(f"soft target must sum to 1, got {total!r}")


def _as_distribution(q) -> np.ndarray:
    arr = as_vector(q, "soft target")
    _check_distribution(arr)
    return arr


@dataclass(frozen=True)
class SoftTarget:
    """A target distribution decaying geometrically down a teacher ordering.

    The public constructor checks q and keeps a read-only copy of it, so
    soft_rank_loss can trust it without checking it again. geometric_target
    builds its q from the decay its cache fill checked once, and hands the
    fresh array over through _from_checked without a second check or copy.
    """

    q: np.ndarray
    gamma: float

    def __post_init__(self):
        q = np.array(_as_distribution(self.q))
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    @classmethod
    def _from_checked(cls, q: np.ndarray, gamma: float) -> SoftTarget:
        """A target over q, a fresh float64 array of a checked distribution that no one else holds.

        q is frozen in place, neither checked nor copied again.
        """
        q.flags.writeable = False
        target = object.__new__(cls)
        object.__setattr__(target, "q", q)
        object.__setattr__(target, "gamma", gamma)
        return target


def geometric_target(teacher_order, gamma: float) -> SoftTarget:
    """Mass proportional to gamma**p for the candidate at teacher position p.

    teacher_order[p] is the candidate index placed at position p (position 0
    being the teacher's most relevant pick).
    """
    # Both gamma and its float must lie in (0, 1): a value inside may round to 0.0 or 1.0.
    if not (_is_real(gamma) and 0.0 < gamma < 1.0 and 0.0 < (decay := float(gamma)) < 1.0):
        raise InvalidGammaError(f"gamma must be in (0, 1), got {gamma!s}")
    order = validate_permutation(teacher_order)
    q = np.empty(order.size)
    q[order] = _geometric_decay(decay, order.size)
    return SoftTarget._from_checked(q, decay)


def soft_rank_loss(s, target) -> LossValue:
    """Cross-entropy between softmax(s) and a soft target distribution.

    The gradient is softmax(s) - q, and the value is bounded below by the
    target's entropy, with equality exactly when softmax(s) = q.
    """
    logits = as_vector(s, "logits")
    q = target.q if isinstance(target, SoftTarget) else _as_distribution(target)
    if q.size != logits.size:
        raise DimensionMismatchError(f"{q.size} target entries for {logits.size} logits")
    shift = np.maximum.reduce(logits)
    e = logits - shift
    np.exp(e, out=e)
    total = np.add.reduce(e)
    value = float(shift + np.log(total) - q.dot(logits))
    e /= total
    e -= q
    return LossValue(value, e)


def nll_loss(step_probs) -> float:
    """Total negative log-likelihood of a sequence of per-step probabilities."""
    p = as_vector(step_probs, "step probabilities")
    if not (np.minimum.reduce(p) > 0.0 and np.maximum.reduce(p) <= 1.0):
        raise InvalidProbabilityError("step probabilities must lie in (0, 1]")
    return float(-np.add.reduce(np.log(p)))


def stage_loss(base: float, aux: LossValue, lam: float) -> float:
    """Combined objective: likelihood term plus lam times the ranking term.

    lam is assumed nonnegative.
    """
    return float(base + lam * aux.value)
