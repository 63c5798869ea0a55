"""Guided search for violations of the four bounds verify-bounds samples.

verify-bounds samples its trials, and its self-test at a weakened constant
catches violations only through the planted antipodal family, so a bug that
broke the bound off that family could go unseen. Here deterministic numpy
hill-climbs, after targeted property-based testing (Löscher and Sagonas,
ISSTA 2017), climb toward each bound's worst case from random starts and plant
no case.

The pruning-error climb raises error / (tail_mass * v_max) from random 3-token
inputs in 2 dimensions with token 0 removed. It scores every input through
attention._pruning_error_rows, the row kernel the tally calls. Every input it
visits must hold at ERROR_BOUND_CONSTANT, and each climb must find one that
breaks the bound at the self-test's weakened constant 1.9.

The tail-gap climb raises epsilon / (r / (1 + r)), with r = ((n - k) / k) *
exp(-delta) the stated bound, over short score rows, through
attention._tail_gap_rows. The top k tied and the rest tied delta below them
attain r / (1 + r), so every input it visits must hold at the stated bound and
at the attained form, and each climb must come within 0.1% of the attained form.

The sandwich climbs move (smooth - hard) / log(n_query) of every column of a
random similarity matrix down toward 0 and up toward 1, through pruning._pool:
one dominant row attains the lower side, a constant column the upper. Every
input they visit must hold both sides as the sandwich tally checks them, the
downward climbs must close the lower slack, and the upward ones must break the
upper side with log(n_query) scaled by 0.999.

The stability climbs raise gap / log(n_query) over inputs whose hard and
smooth top-k sets differ, through pruning._topk_stability_rows. The premise
gap > log(n_query) proves the sets equal, so no input they visit may meet it
with sets that differ, and each seed's climbs must find such an input once
log(n_query) is scaled by 0.999.
"""

import math

import numpy as np
import pytest

from prunerank.attention import BOUND_SLACK, ERROR_BOUND_CONSTANT, _pruning_error_rows, _tail_gap_rows, softmax
from prunerank.pruning import _pool, _topk_stability_rows

WEAKENED_CONSTANT = 1.9
STEPS = 400
PROPOSALS = 8
# A step that shrank without a floor stalled seed 3 at 1.979; at 0.01 seeds
# 0-7 each reach 1.99 or more.
MIN_STEP = 0.01
# Token 0 is removed; clipped logits keep its weight below 1 - ALL_MASS_EPS.
KEPT = np.array([False, True, True])
LOGIT_RANGE = 5.0


def score(logits: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each input's error / (tail_mass * v_max) and its holds rows at the
    proven and the weakened constant, from one kernel call over the batch."""
    kept = np.broadcast_to(KEPT, logits.shape)
    error, tail, v_max, _, holds = _pruning_error_rows(
        softmax(logits), values, kept, (ERROR_BOUND_CONSTANT, WEAKENED_CONSTANT)
    )
    return error / (tail * v_max), holds


def climb(seed: int) -> tuple[float, np.ndarray]:
    """The best ratio a climb from a random start reaches, and the holds rows
    of every input it visits. Each step scores PROPOSALS Gaussian moves of
    the current input and takes the best if it climbs; the step widens on a
    climb and narrows otherwise, down to MIN_STEP."""
    rng = np.random.default_rng(seed)
    logits, values = rng.uniform(-1.0, 1.0, (1, 3)), rng.standard_normal((1, 3, 2))
    ratios, holds = score(logits, values)
    best, visited, step = ratios[0], [holds], 0.5
    for _ in range(STEPS):
        moved_logits = np.clip(logits + step * rng.standard_normal((PROPOSALS, 3)), -LOGIT_RANGE, LOGIT_RANGE)
        moved_values = values + step * rng.standard_normal((PROPOSALS, 3, 2))
        ratios, holds = score(moved_logits, moved_values)
        visited.append(holds)
        i = int(np.argmax(ratios))
        if ratios[i] > best:
            best, logits, values, step = ratios[i], moved_logits[i : i + 1], moved_values[i : i + 1], step * 1.5
        else:
            step = max(step * 0.8, MIN_STEP)
    return float(best), np.concatenate(visited, axis=1)


@pytest.mark.parametrize("seed", range(4))
def test_the_climb_holds_at_the_proven_constant_and_breaks_the_weakened_one(seed):
    best, holds = climb(seed)
    assert holds[0].all()
    assert not holds[1].all(), f"the climb reached only {best} of the proven 2.0"


# Every (n, k) with 1 <= k < n <= TAIL_WIDTH, one climb each; a row's scores
# past its n are -inf padding.
TAIL_WIDTH = 8
TAIL_PAIRS = np.array([(n, k) for n in range(2, TAIL_WIDTH + 1) for k in range(1, n)])
TAIL_STEPS = 200
TAIL_MIN_STEP = 1e-3
# Scores lie in [-2, 2], so delta <= 4 and the tail mass stays far above the
# rounding of 1 - (the top k's mass).
SCORE_RANGE = 2.0
# The attained form may be exceeded by rounding alone, never by more.
ROUNDING = 1e-9


def tail_score(scores: np.ndarray, n: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's epsilon / (r / (1 + r)) and its holds at the stated bound r,
    from one kernel call over the (rows, TAIL_WIDTH) -inf-padded scores."""
    padded = np.where(np.arange(TAIL_WIDTH) < n[:, None], scores, -np.inf)
    epsilon, _, bound, holds = _tail_gap_rows(padded, k, n)
    return epsilon / (bound / (1.0 + bound)), holds


def tail_climb(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best ratio each (n, k) climb reaches, and the ratios and holds of
    every input they visit. Each step scores one Gaussian move of each score
    of the current row and takes the best if it climbs: moving every score at
    once breaks the ties the worst case needs faster than it closes the gaps.
    The step widens on a climb and narrows otherwise, down to TAIL_MIN_STEP."""
    rng = np.random.default_rng(seed)
    n, k = TAIL_PAIRS.T
    rows, moves = len(TAIL_PAIRS), np.eye(TAIL_WIDTH)
    scores = rng.uniform(-SCORE_RANGE, SCORE_RANGE, (rows, TAIL_WIDTH))
    best, holds = tail_score(scores, n, k)
    visited, visited_holds, step = [best], [holds], np.full(rows, 0.5)
    for _ in range(TAIL_STEPS):
        shifts = step[:, None, None] * rng.standard_normal((rows, TAIL_WIDTH, 1)) * moves
        moved = np.clip(scores[:, None, :] + shifts, -SCORE_RANGE, SCORE_RANGE)
        ratios, holds = tail_score(moved.reshape(-1, TAIL_WIDTH), n.repeat(TAIL_WIDTH), k.repeat(TAIL_WIDTH))
        visited.append(ratios)
        visited_holds.append(holds)
        ratios = ratios.reshape(rows, TAIL_WIDTH)
        i = ratios.argmax(axis=1)
        top = ratios[np.arange(rows), i]
        climbed = top > best
        scores[climbed] = moved[np.arange(rows), i][climbed]
        best = np.where(climbed, top, best)
        step = np.where(climbed, step * 1.5, np.maximum(step * 0.8, TAIL_MIN_STEP))
    return best, np.concatenate(visited), np.concatenate(visited_holds)


@pytest.mark.parametrize("seed", range(4))
def test_the_tail_gap_climb_holds_at_the_attained_form_and_reaches_it(seed):
    best, ratios, holds = tail_climb(seed)
    assert holds.all()
    assert ratios.max() <= 1.0 + ROUNDING
    # So every climb finds an input that breaks the attained form scaled by 0.99.
    assert best.min() >= 0.999


# log(n_query) scaled by this is a premise constant too weak for the climbs.
MUTATED_LOG = 0.999
SANDWICH_QUERIES = (2, 3, 5, 8)
SANDWICH_COLUMNS = 8
SANDWICH_STEPS = 250
CLIMB_MIN_STEP = 1e-4
# Wide enough that one row can dominate a column: exp(-60) vanishes beside 1.
SIM_RANGE = 30.0


def sandwich_climb(seed: int, n_query: int, sign: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column's best sign * (smooth - hard) / log(n_query), and the hard
    and smooth scores of every input visited. Each column of an (n_query,
    SANDWICH_COLUMNS) matrix is its own climb; a step scores one Gaussian move
    of each of its entries, all columns in one _pool call, and takes the best
    if it climbs. The step widens on a climb and narrows otherwise."""
    rng = np.random.default_rng(seed)
    log_nq, columns = math.log(n_query), np.arange(SANDWICH_COLUMNS)
    sims = rng.uniform(-1.0, 1.0, (n_query, SANDWICH_COLUMNS))
    hard, smooth = _pool(sims)
    best, visited, step = sign * (smooth - hard) / log_nq, [(hard[None], smooth[None])], np.full(SANDWICH_COLUMNS, 0.5)
    moves = np.eye(n_query)[:, :, None]
    for _ in range(SANDWICH_STEPS):
        shifts = step * rng.standard_normal((n_query, 1, SANDWICH_COLUMNS)) * moves
        moved = np.clip(sims + shifts, -SIM_RANGE, SIM_RANGE)
        hard, smooth = _pool(moved)
        visited.append((hard, smooth))
        ratios = sign * (smooth - hard) / log_nq
        i = ratios.argmax(axis=0)
        top = ratios[i, columns]
        climbed = top > best
        sims[:, climbed] = moved[i, :, columns].T[:, climbed]
        best = np.where(climbed, top, best)
        step = np.where(climbed, step * 1.5, np.maximum(step * 0.8, CLIMB_MIN_STEP))
    hard, smooth = (np.concatenate(side) for side in zip(*visited))
    return best, hard, smooth


@pytest.mark.parametrize("seed", range(4))
def test_the_sandwich_climbs_hold_both_sides_and_reach_each(seed):
    for n_query in SANDWICH_QUERIES:
        log_nq = math.log(n_query)
        for sign in (-1, 1):
            best, hard, smooth = sandwich_climb(seed, n_query, sign)
            assert (hard <= smooth + BOUND_SLACK).all()
            assert (smooth <= hard + log_nq + BOUND_SLACK).all()
            if sign < 0:
                assert (-best * log_nq <= BOUND_SLACK).all()
            else:
                # Every column breaks the upper side at the mutated constant.
                assert (best * log_nq > MUTATED_LOG * log_nq + BOUND_SLACK).all(), best.min()


# (n_query, n_tokens, k) of each stability climb, -inf-padded to one stack.
STABILITY_CASES = np.array([(q, n, k) for q in (2, 3, 5) for n in (2, 3, 4) for k in range(1, n)])
STABILITY_SHAPE = (5, 4)
STABILITY_STEPS = 400
# Weight of the boundary pair's pooling excesses beside the gap: it leads a
# climb through inputs where the gap alone cannot rise without making the
# sets equal.
EXCESS_WEIGHT = 0.01


def stability_score(sims, q, n, k):
    """Each input's climb objective, gap / log(n_query), and the verdict rows
    guaranteed and sets_equal, from one _pool and one _topk_stability_rows call
    over the -inf-padded stack. The objective is gap / log(n_query) plus
    EXCESS_WEIGHT times how much more the (k+1)-th hard-max token's smooth
    score exceeds its hard one than the k-th's does, and -inf where the sets
    are equal."""
    rows, cols = STABILITY_SHAPE
    real = (np.arange(rows)[:, None] < q[:, None, None]) & (np.arange(cols) < n[:, None, None])
    hard, smooth = _pool(np.where(real, sims, -np.inf))
    log_nq = np.log(q)
    gap, guaranteed, sets_equal = _topk_stability_rows(hard, smooth, k, n, log_nq)
    order, index = np.argsort(-hard, axis=1, kind="stable"), np.arange(len(k))
    inner, outer = order[index, k - 1], order[index, k]
    excess = smooth[index, outer] - hard[index, outer] - (smooth[index, inner] - hard[index, inner])
    ratio = gap / log_nq
    return np.where(sets_equal, -np.inf, ratio + EXCESS_WEIGHT * excess / log_nq), ratio, guaranteed, sets_equal


def stability_climb(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each case's best gap / log(n_query) over inputs with differing sets, and
    the ratio, guaranteed and sets_equal rows of every input visited. Each
    case starts from uniform draws in [-1, 1], redrawn until its sets differ,
    and a step scores one Gaussian move of each entry of every case's input in
    one kernel call, taking the best if it climbs."""
    rng = np.random.default_rng(seed)
    q, n, k = STABILITY_CASES.T
    cases, shape = len(STABILITY_CASES), STABILITY_SHAPE
    sims = np.empty((cases, *shape))
    redraw = np.ones(cases, dtype=bool)
    while redraw.any():
        sims[redraw] = rng.uniform(-1.0, 1.0, (int(redraw.sum()), *shape))
        redraw = stability_score(sims, q, n, k)[3]
    best, *rows = stability_score(sims, q, n, k)
    visited, step = [rows], np.full(cases, 0.5)
    proposals = shape[0] * shape[1]
    moves = np.eye(proposals).reshape(proposals, *shape)
    for _ in range(STABILITY_STEPS):
        shifts = step[:, None, None, None] * rng.standard_normal((cases, proposals, 1, 1)) * moves
        moved = np.clip(sims[:, None] + shifts, -SIM_RANGE, SIM_RANGE)
        objective, *rows = stability_score(
            moved.reshape(-1, *shape), q.repeat(proposals), n.repeat(proposals), k.repeat(proposals)
        )
        visited.append(rows)
        objective = objective.reshape(cases, proposals)
        i = objective.argmax(axis=1)
        top = objective[np.arange(cases), i]
        climbed = top > best
        sims[climbed] = moved[np.arange(cases), i][climbed]
        best = np.where(climbed, top, best)
        step = np.where(climbed, step * 1.5, np.maximum(step * 0.8, CLIMB_MIN_STEP))
    reached = stability_score(sims, q, n, k)[1]
    return (reached, *(np.concatenate(column) for column in zip(*visited)))


@pytest.mark.parametrize("seed", range(4))
def test_the_stability_climb_never_meets_the_premise_with_differing_sets(seed):
    reached, ratios, guaranteed, sets_equal = stability_climb(seed)
    assert not (guaranteed & ~sets_equal).any()
    assert reached.min() >= 0.99
    # With log(n_query) scaled by 0.999 the premise is met by differing sets.
    assert ((ratios > MUTATED_LOG) & ~sets_equal).any()
