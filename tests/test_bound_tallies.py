"""The bound tallies against a trial-by-trial loop over the public checks.

Each reference below draws its trials in the order the tallies do and scores
every trial with the public per-trial check, one call at a time. The tallies
must report the same counts and leave their generator in the same state, for
trial counts on both sides of a chunk boundary.
"""

import itertools
import math

import numpy as np
import pytest

from prunerank import experiments
from prunerank.attention import BOUND_SLACK, check_pruning_error_bound, tail_gap_bound_check
from prunerank.pruning import lse_scores, maxsim_scores, topk_stability_check

SEEDS = (0, 1, 2)
TRIAL_COUNTS = (1, 300, 531)


def reference_sandwich(rng, trials):
    failures = 0
    equality_checks = 0
    for _ in range(trials):
        n_query = int(rng.integers(1, 33))
        n_tokens = int(rng.integers(1, 257))
        sims = rng.uniform(-1.0, 1.0, size=(n_query, n_tokens))
        constant_cols = np.zeros(n_tokens, dtype=bool)
        if rng.random() < 0.5:
            n_const = int(rng.integers(1, n_tokens + 1))
            cols = rng.choice(n_tokens, size=n_const, replace=False)
            sims[:, cols] = rng.uniform(-1.0, 1.0, size=n_const)[None, :]
            constant_cols[cols] = True
        hard = maxsim_scores(sims)
        smooth = lse_scores(sims)
        log_nq = math.log(n_query)
        ok = np.all(hard <= smooth + BOUND_SLACK) and np.all(smooth <= hard + log_nq + BOUND_SLACK)
        if constant_cols.any():
            equality_checks += 1
            gap = np.abs(smooth[constant_cols] - (hard[constant_cols] + log_nq))
            ok = ok and bool(np.all(gap <= BOUND_SLACK))
        failures += not ok
    return {"failures": failures, "equality_checks": equality_checks}


def reference_stability(rng, trials):
    failures = 0
    premise_count = 0
    for _ in range(trials):
        n_query = int(rng.integers(1, 7))
        n_tokens = int(rng.integers(2, 65))
        if rng.random() < 0.5:
            sims = rng.uniform(-1.0, 1.0, size=(n_query, n_tokens))
            k = int(rng.integers(1, n_tokens))
        else:
            k = int(rng.integers(1, n_tokens))
            sims = rng.uniform(-1.0, -0.93, size=(n_query, n_tokens))
            sims[:, :k] = rng.uniform(0.93, 1.0, size=(n_query, k))
        report = topk_stability_check(maxsim_scores(sims), lse_scores(sims), k, n_query)
        premise_count += report.guaranteed_stable
        failures += report.guaranteed_stable and not report.sets_equal
    return {"failures": failures, "premise_count": premise_count}


def reference_pruning_error(rng, trials, constant):
    failures = 0
    for _ in range(trials):
        if rng.random() < 0.2:
            tail = float(rng.uniform(0.1, 0.5))
            scale = float(rng.uniform(0.5, 2.0))
            dim = int(rng.integers(1, 9))
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)
            values = np.stack([scale * direction, -scale * direction])
            alpha = np.array([tail, 1.0 - tail])
            kept = np.array([1])
        else:
            n_tokens = int(rng.integers(2, 65))
            dim = int(rng.integers(1, 17))
            alpha = rng.dirichlet(np.full(n_tokens, float(rng.uniform(0.2, 2.0))))
            values = rng.standard_normal((n_tokens, dim)) * float(rng.uniform(0.1, 3.0))
            size = int(rng.integers(1, n_tokens + 1))
            kept = rng.choice(n_tokens, size=size, replace=False)
            if alpha[kept].sum() < 1e-9:
                kept = np.unique(np.append(kept, int(np.argmax(alpha))))
        report = check_pruning_error_bound(alpha, values, kept)
        failures += report.error_norm > constant * report.tail_mass * report.v_max + BOUND_SLACK
    return {"failures": failures}


def reference_tail_gap(rng, trials):
    failures = 0
    for _ in range(trials):
        n_scores = int(rng.integers(2, 129))
        draw = rng.random()
        if draw < 0.15:
            scores = np.full(n_scores, float(rng.uniform(-3.0, 3.0)))
        elif draw < 0.3:
            scores = rng.normal(0.0, 1.0, size=n_scores)
            boosted = int(rng.integers(1, n_scores))
            scores[:boosted] += float(rng.uniform(2.0, 6.0))
        else:
            scores = rng.normal(0.0, float(rng.uniform(0.3, 3.0)), size=n_scores)
        k = int(rng.integers(1, n_scores))
        failures += not tail_gap_bound_check(scores, k).holds
    return {"failures": failures}


CASES = {
    "sandwich": (experiments._sandwich_tally, reference_sandwich, ()),
    "stability": (experiments._stability_tally, reference_stability, ()),
    "pruning-error-2.0": (experiments._pruning_error_tally, reference_pruning_error, (2.0,)),
    "pruning-error-1.9": (experiments._pruning_error_tally, reference_pruning_error, (1.9,)),
    "tail-gap": (experiments._tail_gap_tally, reference_tail_gap, ()),
}


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_tally_matches_trial_by_trial_reference(case, seed, trials):
    tally, reference, extra = CASES[case]
    tally_rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    got = tally(tally_rng, trials, *extra)
    want = reference(reference_rng, trials, *extra)
    assert got["trials"] == trials
    assert {key: got[key] for key in want} == want
    assert tally_rng.bit_generator.state == reference_rng.bit_generator.state


def test_weakened_constant_fails_in_the_reference_too():
    # The 1.9 cases above compare nonzero counts, not two zeros.
    assert reference_pruning_error(np.random.default_rng(0), 300, 1.9)["failures"] > 0


def test_chunk_sizes_are_made_lazily():
    chunk = experiments.TALLY_CHUNK
    # A list of every size would take gigabytes at this trial count.
    assert list(itertools.islice(experiments._chunk_sizes(10**18), 3)) == [chunk] * 3
    assert list(experiments._chunk_sizes(2 * chunk + 5)) == [chunk, chunk, 5]
