"""The bound checks written out for one trial at a time: the oracle for the row
kernels; and the tallies' draws as numpy's own calls make them.

Each check function scores one trial with plain per-trial numpy: the 1-D
weight rule, the exact and the pruned pooled outputs, a sort of the scores,
Python sets of the top-k indices, chosen by library_oracles.lexsort_top_k.
They share no code with attention._pruning_error_rows, attention._tail_gap_rows,
pruning._topk_stability_rows or the keep rule they rank by (pruning._ranks), so
the tallies and the public one-row checks are compared against an independent
reference.

The four *_tally functions are the experiments tallies as they were before
synthetic._uniform: every scalar uniform from rng.uniform, the antipodal
direction normalized by np.linalg.norm, the zero-mass guard on the full sum.
They call the same row kernels as the tallies, looked up in this module, so a
test can replace each kernel here and in experiments with a recorder and
compare every array the two sides pass it.
"""

import math
import numbers

import numpy as np

from prunerank.attention import (
    ALL_MASS_EPS,
    BOUND_SLACK,
    ERROR_BOUND_CONSTANT,
    PruneErrorReport,
    TailGapReport,
    _pruning_error_rows,
    _tail_gap_rows,
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
from prunerank.experiments import _chunk_sizes
from prunerank.pruning import StabilityReport, _pool, _topk_stability_rows
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


def sandwich_tally(rng: np.random.Generator, trials: int) -> dict:
    failures = 0
    equality_checks = 0
    for size in _chunk_sizes(trials):
        # Zero padding satisfies every comparison below and is never constant.
        hard = np.zeros((size, 256))
        smooth = np.zeros((size, 256))
        constant_cols = np.zeros((size, 256), dtype=bool)
        log_nq = np.empty(size)
        for t in range(size):
            n_query = int(rng.integers(1, 33))
            n_tokens = int(rng.integers(1, 257))
            sims = rng.uniform(-1.0, 1.0, size=(n_query, n_tokens))
            if rng.random() < 0.5:
                n_const = int(rng.integers(1, n_tokens + 1))
                cols = rng.choice(n_tokens, size=n_const, replace=False)
                sims[:, cols] = rng.uniform(-1.0, 1.0, size=n_const)[None, :]
                constant_cols[t, cols] = True
            hard[t, :n_tokens], smooth[t, :n_tokens] = _pool(sims)
            log_nq[t] = math.log(n_query)
        ceiling = hard + log_nq[:, None]
        ok = (hard <= smooth + BOUND_SLACK).all(axis=1)
        ok &= (smooth <= ceiling + BOUND_SLACK).all(axis=1)
        ok &= (~constant_cols | (np.abs(smooth - ceiling) <= BOUND_SLACK)).all(axis=1)
        equality_checks += int(np.count_nonzero(constant_cols.any(axis=1)))
        failures += int(np.count_nonzero(~ok))
    return {"trials": trials, "failures": failures, "equality_checks": equality_checks}


def stability_tally(rng: np.random.Generator, trials: int) -> dict:
    failures = 0
    premise_count = 0
    for size in _chunk_sizes(trials):
        # -inf padding: nothing past a trial's query rows, -inf (last) past its tokens.
        sims = np.full((size, 6, 64), -np.inf)
        widths = np.empty(size, dtype=np.int64)
        ks = np.empty(size, dtype=np.int64)
        log_nq = np.empty(size)
        for t in range(size):
            n_query = int(rng.integers(1, 7))
            n_tokens = int(rng.integers(2, 65))
            trial = sims[t, :n_query, :n_tokens]
            if rng.random() < 0.5:
                trial[:] = rng.uniform(-1.0, 1.0, size=(n_query, n_tokens))
                k = int(rng.integers(1, n_tokens))
            else:
                # Planted margin: k high-similarity columns against a low block,
                # so the gap premise actually fires on a healthy share of trials.
                k = int(rng.integers(1, n_tokens))
                trial[:] = rng.uniform(-1.0, -0.93, size=(n_query, n_tokens))
                trial[:, :k] = rng.uniform(0.93, 1.0, size=(n_query, k))
            widths[t], ks[t], log_nq[t] = n_tokens, k, math.log(n_query)
        _, guaranteed, sets_equal = _topk_stability_rows(*_pool(sims), ks, widths, log_nq)
        premise_count += int(np.count_nonzero(guaranteed))
        failures += int(np.count_nonzero(guaranteed & ~sets_equal))
    return {"trials": trials, "failures": failures, "premise_count": premise_count}


def pruning_error_tally(
    rng: np.random.Generator, trials: int, constant: float, selftest_trials: int = 0,
    selftest_constant: float = ERROR_BOUND_CONSTANT,
) -> dict:
    """Bound failures at constant among the first `trials` trials and at
    selftest_constant among the first `selftest_trials`, drawing the larger count once."""
    failures = selftest_failures = start = 0
    for size in _chunk_sizes(max(trials, selftest_trials)):
        alpha = np.zeros((size, 64))
        values = np.zeros((size, 64, 16))
        kept = np.zeros((size, 64), dtype=bool)
        for t in range(size):
            if rng.random() < 0.2:
                # Antipodal worst case: removed mass points one way, kept mass the
                # other, which attains the bound with equality.
                tail = float(rng.uniform(0.1, 0.5))
                scale = float(rng.uniform(0.5, 2.0))
                dim = int(rng.integers(1, 9))
                direction = rng.standard_normal(dim)
                direction /= np.linalg.norm(direction)
                values[t, 0, :dim] = scale * direction
                values[t, 1, :dim] = -scale * direction
                alpha[t, :2] = (tail, 1.0 - tail)
                kept[t, 1] = True
            else:
                n_tokens = int(rng.integers(2, 65))
                dim = int(rng.integers(1, 17))
                weights = rng.dirichlet(np.full(n_tokens, float(rng.uniform(0.2, 2.0))))
                values[t, :n_tokens, :dim] = rng.standard_normal((n_tokens, dim)) * float(
                    rng.uniform(0.1, 3.0)
                )
                size_kept = int(rng.integers(1, n_tokens + 1))
                chosen = rng.choice(n_tokens, size=size_kept, replace=False)
                if weights[chosen].sum() < 1e-9:
                    chosen = np.append(chosen, int(np.argmax(weights)))
                alpha[t, :n_tokens] = weights
                kept[t, chosen] = True
        *_, holds = _pruning_error_rows(alpha, values, kept, (constant, selftest_constant))
        main, selftest = max(trials - start, 0), max(selftest_trials - start, 0)
        failures += int(np.count_nonzero(~holds[0, :main]))
        selftest_failures += int(np.count_nonzero(~holds[1, :selftest]))
        start += size
    return {
        "trials": trials,
        "failures": failures,
        "constant": constant,
        "selftest_failures": selftest_failures,
    }


def tail_gap_tally(rng: np.random.Generator, trials: int) -> dict:
    failures = 0
    for size in _chunk_sizes(trials):
        scores = np.full((size, 128), -np.inf)
        widths = np.empty(size, dtype=np.int64)
        ks = np.empty(size, dtype=np.int64)
        for t in range(size):
            n_scores = int(rng.integers(2, 129))
            draw = rng.random()
            if draw < 0.15:
                scores[t, :n_scores] = float(rng.uniform(-3.0, 3.0))
            elif draw < 0.3:
                row = rng.normal(0.0, 1.0, size=n_scores)
                boosted = int(rng.integers(1, n_scores))
                row[:boosted] += float(rng.uniform(2.0, 6.0))
                scores[t, :n_scores] = row
            else:
                scores[t, :n_scores] = rng.normal(0.0, float(rng.uniform(0.3, 3.0)), size=n_scores)
            widths[t], ks[t] = n_scores, int(rng.integers(1, n_scores))
        *_, holds = _tail_gap_rows(scores, ks, widths)
        failures += int(np.count_nonzero(~holds))
    return {"trials": trials, "failures": failures}
