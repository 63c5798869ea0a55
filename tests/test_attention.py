import math

import numpy as np
import pytest

from bound_reference import attention_output, pruned_attention_output
from prunerank.attention import (
    attention_mass_per_token,
    check_pruning_error_bound,
    softmax,
    tail_gap_bound_check,
)
from prunerank.errors import (
    AllMassPrunedError,
    DimensionMismatchError,
    EmptyInputError,
    KOutOfRangeError,
    NonFiniteError,
)

EXAMPLE_ALPHA = [0.5, 0.3, 0.2]
EXAMPLE_V = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_no_overflow_for_huge_scores(self):
        out = softmax([1000.0, 0.0])
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_derived_pair(self):
        np.testing.assert_allclose(
            softmax([1.0, 0.0]), [0.7310585786300049, 0.2689414213699951], atol=1e-12
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(9)
        np.testing.assert_allclose(softmax(scores), softmax(scores + 123.456), atol=1e-12)

    def test_simplex_output(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            out = softmax(rng.standard_normal(rng.integers(1, 20)) * 10)
            assert np.all(out >= 0)
            assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            softmax([])

    def test_rows_equal_one_dimensional_calls_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for n_rows, n in ((1, 1), (3, 7), (4, 20), (7, 129)):
            scores = rng.standard_normal((n_rows, n)) * 5
            out = softmax(scores)
            assert out.shape == (n_rows, n)
            for row, want in zip(out, scores):
                assert np.array_equal(row, softmax(want))

    def test_stacked_rows_equal_row_wise_calls_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for stack, n_rows, n in ((1, 1, 1), (2, 3, 7), (400, 4, 20), (5, 7, 129)):
            scores = rng.standard_normal((stack, n_rows, n)) * 5
            out = softmax(scores)
            assert out.shape == scores.shape
            for rows, want in zip(out, scores):
                assert np.array_equal(rows, softmax(want))

    # A stack is 3-D, so a 4-D input is the wrong number of dimensions.
    @pytest.mark.parametrize("scores", [[[[[1.0]]]], 1.0, [[1.0, 2.0], [3.0]]])
    def test_other_shapes_rejected(self, scores):
        with pytest.raises(DimensionMismatchError):
            softmax(scores)

    def test_non_finite_row_rejected(self):
        with pytest.raises(NonFiniteError):
            softmax([[0.0, 1.0], [np.nan, 0.0]])

    def test_non_finite_row_of_a_stack_rejected(self):
        with pytest.raises(NonFiniteError):
            softmax([[[0.0, 1.0]], [[0.0, np.inf]]])


class TestAttentionOutput:
    def test_one_hot_selects_row(self):
        np.testing.assert_allclose(attention_output([1.0, 0.0], [[3.0, 4.0], [5.0, 6.0]]), [3.0, 4.0])

    def test_uniform_over_identical_rows(self):
        row = [2.0, -1.0, 0.5]
        np.testing.assert_allclose(attention_output([0.25] * 4, [row] * 4), row, atol=1e-15)

    def test_hand_weighted_sum(self):
        np.testing.assert_allclose(
            attention_output(EXAMPLE_ALPHA, EXAMPLE_V), [0.7, 0.5], atol=1e-15
        )

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            attention_output([0.5, 0.5], [[1.0, 0.0]])

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            attention_output([0.6, 0.6], [[1.0], [1.0]])


class TestPrunedAttentionOutput:
    def test_keep_all_is_identity(self):
        c = attention_output(EXAMPLE_ALPHA, EXAMPLE_V)
        c_prime, tail = pruned_attention_output(EXAMPLE_ALPHA, EXAMPLE_V, [0, 1, 2])
        np.testing.assert_allclose(c_prime, c, atol=1e-12)
        assert tail == 0.0

    def test_hand_renormalization(self):
        c_prime, tail = pruned_attention_output(EXAMPLE_ALPHA, EXAMPLE_V, [0, 1])
        assert tail == pytest.approx(0.2, abs=1e-12)
        np.testing.assert_allclose(c_prime, [0.625, 0.375], atol=1e-12)

    def test_singleton_argmax_returns_row(self):
        c_prime, _ = pruned_attention_output(EXAMPLE_ALPHA, EXAMPLE_V, [0])
        np.testing.assert_allclose(c_prime, EXAMPLE_V[0], atol=1e-12)

    def test_all_mass_pruned(self):
        with pytest.raises(AllMassPrunedError):
            pruned_attention_output([1.0, 0.0], [[1.0], [2.0]], [1])

    def test_empty_kept_set(self):
        with pytest.raises(EmptyInputError):
            pruned_attention_output(EXAMPLE_ALPHA, EXAMPLE_V, [])

    def test_kept_index_out_of_range(self):
        with pytest.raises(KOutOfRangeError):
            pruned_attention_output(EXAMPLE_ALPHA, EXAMPLE_V, [0, 3])


class TestPruningErrorBound:
    def test_hand_example(self):
        report = check_pruning_error_bound(EXAMPLE_ALPHA, EXAMPLE_V, [0, 1])
        assert report.error_norm == pytest.approx(math.sqrt(0.02125), abs=1e-12)
        assert report.error_norm == pytest.approx(0.14577, abs=5e-6)
        assert report.v_max == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert report.bound == pytest.approx(0.4 * math.sqrt(2.0), abs=1e-12)
        assert report.bound == pytest.approx(0.56569, abs=5e-6)
        assert report.holds

    def test_keep_all_zero_error_zero_bound(self):
        report = check_pruning_error_bound(EXAMPLE_ALPHA, EXAMPLE_V, [0, 1, 2])
        assert report.error_norm == pytest.approx(0.0, abs=1e-12)
        assert report.bound == pytest.approx(0.0, abs=1e-12)
        assert report.holds

    def test_monte_carlo_always_holds(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 10))
            alpha = rng.dirichlet(np.ones(n))
            values = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
            kept = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            if alpha[kept].sum() < 1e-9:
                kept = np.unique(np.append(kept, int(np.argmax(alpha))))
            assert check_pruning_error_bound(alpha, values, kept).holds

    def test_antipodal_case_attains_bound(self):
        # Removed mass pulls one way, kept mass the other: error equals the bound.
        report = check_pruning_error_bound(
            [0.3, 0.7], [[2.0, 0.0], [-2.0, 0.0]], [1]
        )
        assert report.error_norm == pytest.approx(report.bound, abs=1e-12)
        assert report.holds

    def test_holds_on_valid_weights_that_sum_just_above_one(self):
        # Accepted as weights (|sum - 1| <= 1e-9). Unless the weights are divided
        # by their sum, the error 1000.0000009 exceeds the bound 2 * 0.5 * 1000,
        # and the absolute BOUND_SLACK cannot cover that at v_max 1000.
        report = check_pruning_error_bound([0.5, 0.5 + 9e-10], [[1000.0], [-1000.0]], [1])
        assert report.holds


class TestTailGapBound:
    def test_hand_example(self):
        report = tail_gap_bound_check([3.0, 3.0, 0.0], k=2)
        assert report.epsilon == pytest.approx(1.0 / (2.0 * math.e**3 + 1.0), abs=1e-12)
        assert report.delta == 3.0
        assert report.bound == pytest.approx(0.5 * math.exp(-3.0), abs=1e-15)
        assert report.epsilon <= report.bound
        assert report.holds

    def test_all_equal_scores(self):
        report = tail_gap_bound_check([1.5, 1.5], k=1)
        assert report.delta == 0.0
        assert report.epsilon == pytest.approx(0.5, abs=1e-12)
        assert report.bound == pytest.approx(1.0)
        assert report.holds

    def test_monte_carlo_always_holds(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            n = int(rng.integers(2, 60))
            g = rng.normal(0.0, rng.uniform(0.3, 3.0), size=n)
            k = int(rng.integers(1, n))
            assert tail_gap_bound_check(g, k).holds

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRangeError):
            tail_gap_bound_check([1.0, 2.0], k=2)


class TestAttentionMassPerToken:
    def test_single_head_identity(self):
        head = [[0.2, 0.8], [0.6, 0.4]]
        np.testing.assert_allclose(attention_mass_per_token([head], position=1), [0.6, 0.4])

    def test_two_heads_average(self):
        heads = [[[1.0, 0.0]], [[0.0, 1.0]]]
        np.testing.assert_allclose(attention_mass_per_token(heads, position=0), [0.5, 0.5])

    def test_preserves_row_normalization(self):
        rng = np.random.default_rng(4)
        heads = [softmax(rng.standard_normal(6))[None, :] for _ in range(5)]
        mass = attention_mass_per_token(np.stack(heads), position=0)
        assert mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ragged_heads_rejected(self):
        with pytest.raises(DimensionMismatchError):
            attention_mass_per_token([[[1.0, 0.0]], [[1.0, 0.0, 0.0]]], position=0)

    def test_position_out_of_range(self):
        with pytest.raises(KOutOfRangeError):
            attention_mass_per_token([[[1.0, 0.0]]], position=1)
