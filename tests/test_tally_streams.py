"""The bound tallies draw and score bit for bit as before synthetic._uniform.

Each tally runs beside its earlier body, kept in bound_reference, from equal
generators, with every row kernel (pruning._pool, pruning._topk_stability_rows,
attention._pruning_error_rows, attention._tail_gap_rows) replaced on both sides
by a recorder. The kernels must see equal arrays in the same order, the tallies
must return equal dicts, and the generators must end in equal states, at trial
counts on both sides of a chunk boundary and with a self-test longer than the
main run.
"""

import numpy as np
import pytest

import bound_reference
from prunerank import experiments

KERNELS = ("_pool", "_topk_stability_rows", "_pruning_error_rows", "_tail_gap_rows")
SEEDS = (0, 1, 2)
TRIAL_COUNTS = (1, 64, 65, 531)


def record_kernel_calls(monkeypatch, module) -> list:
    """Replace each kernel in module by a recorder; return the list it fills
    with (kernel name, copies of its arguments), in call order."""
    calls = []
    for name in KERNELS:

        def recorder(*args, _name=name, _kernel=getattr(module, name)):
            calls.append((_name, [np.array(arg, copy=True) for arg in args]))
            return _kernel(*args)

        monkeypatch.setattr(module, name, recorder)
    return calls


def assert_same_calls(got: list, want: list) -> None:
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, got_args), (_, want_args) in zip(got, want):
        assert len(got_args) == len(want_args), name
        for got_arg, want_arg in zip(got_args, want_args):
            assert got_arg.dtype == want_arg.dtype, name
            assert np.array_equal(got_arg, want_arg), name


CASES = {
    "sandwich": (experiments._sandwich_tally, bound_reference.sandwich_tally, lambda trials: ()),
    "stability": (experiments._stability_tally, bound_reference.stability_tally, lambda trials: ()),
    "pruning-error": (
        experiments._pruning_error_tally, bound_reference.pruning_error_tally, lambda trials: (2.0,)
    ),
    "pruning-error-with-selftest": (
        experiments._pruning_error_tally,
        bound_reference.pruning_error_tally,
        lambda trials: (2.0, 2 * trials + 7, 1.9),
    ),
    "tail-gap": (experiments._tail_gap_tally, bound_reference.tail_gap_tally, lambda trials: ()),
}


def assert_same_run(monkeypatch, case: str, seed: int, trials: int) -> list:
    """Run a tally and its earlier body from seed; assert equal kernel calls,
    tallies and final generator states; return the tally's kernel calls."""
    tally, earlier, extra = CASES[case]
    got_calls = record_kernel_calls(monkeypatch, experiments)
    want_calls = record_kernel_calls(monkeypatch, bound_reference)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = tally(got_rng, trials, *extra(trials))
    want = earlier(want_rng, trials, *extra(trials))
    assert got_calls, "the recorders saw no kernel call"
    assert_same_calls(got_calls, want_calls)
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return got_calls


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_tally_passes_its_kernels_what_the_earlier_body_did(monkeypatch, case, seed, trials):
    assert_same_run(monkeypatch, case, seed, trials)


# Seed 35 is the first seed whose first 531 pruning-error trials reach every
# branch of the zero-mass guard: trials 218 and 301 keep a set whose first
# weight is below 1e-9 and whose sum is not, and trial 507 one whose sum is
# below it too, so the guard adds the heaviest token.
GUARD_SEED, GUARD_TRIAL = 35, 507


def test_the_zero_mass_guard_decides_as_the_full_sum(monkeypatch):
    calls = assert_same_run(monkeypatch, "pruning-error", GUARD_SEED, 531)
    chunk, row = divmod(GUARD_TRIAL, experiments.TALLY_CHUNK)
    _, (alpha, _, kept, _) = calls[chunk]
    weights, chosen = alpha[row], kept[row]
    heaviest = int(weights.argmax())
    assert chosen[heaviest]
    assert weights[chosen].sum() - weights[heaviest] < 1e-9


def test_the_selftest_case_finds_violations():
    # So the self-test case compares nonzero counts, not two zeros.
    got = experiments._pruning_error_tally(np.random.default_rng(0), 65, 2.0, 137, 1.9)
    assert got["selftest_failures"] > 0
