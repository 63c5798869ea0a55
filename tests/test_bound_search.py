"""Guided search for violations of the pruning-error bound.

verify-bounds samples its trials, and its self-test at a weakened constant
catches violations only through the planted antipodal family, so a bug that
broke the bound off that family could go unseen. Here a deterministic numpy
hill-climb, after targeted property-based testing (Löscher and Sagonas,
ISSTA 2017), climbs error / (tail_mass * v_max) from random 3-token inputs in
2 dimensions with token 0 removed, and plants no case. It scores every input
through attention._pruning_error_rows, the row kernel the tally calls. Every
input it visits must hold at ERROR_BOUND_CONSTANT, and each climb must find
one that breaks the bound at the self-test's weakened constant 1.9.
"""

import numpy as np
import pytest

from prunerank.attention import ERROR_BOUND_CONSTANT, _pruning_error_rows, softmax

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
