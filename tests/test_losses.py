import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from library_oracles import finite_difference_gradcheck
from prunerank.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidGammaError,
    InvalidPermutationError,
    InvalidProbabilityError,
    NonFiniteError,
)
from prunerank.losses import (
    LossValue,
    geometric_target,
    nll_loss,
    soft_rank_loss,
    stage_loss,
    weighted_ranknet_loss,
)


def _softplus(x: float) -> float:
    return x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def ranknet_oracle(s, ranks):
    """The weighted pairwise loss and its gradient by a double loop over pairs."""
    m = len(s)
    terms = []
    grad_terms = [[] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if ranks[i] < ranks[j]:
                weight = 1.0 / (ranks[i] + ranks[j])
                d = s[j] - s[i]
                terms.append(weight * _softplus(d))
                pull = weight * _sigmoid(d)
                grad_terms[j].append(pull)
                grad_terms[i].append(-pull)
    return math.fsum(terms), [math.fsum(g) for g in grad_terms]


@st.composite
def logits_and_ranks(draw):
    m = draw(st.integers(2, 26))
    # A few shared values make tied logits common.
    value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-1.0, 0.0, 1.0]))
    s = draw(st.lists(value, min_size=m, max_size=m))
    ranks = draw(st.permutations(range(1, m + 1)))
    return s, ranks


class TestWeightedRanknetLoss:
    @given(logits_and_ranks())
    @settings(max_examples=200, deadline=None)
    def test_matches_double_loop_oracle(self, case):
        s, ranks = case
        want_value, want_grad = ranknet_oracle(s, ranks)
        result = weighted_ranknet_loss(s, ranks)
        assert result.value == pytest.approx(want_value, rel=1e-12, abs=0)
        np.testing.assert_allclose(result.gradient, want_grad, rtol=0, atol=1e-12)
        assert abs(math.fsum(result.gradient)) < 1e-9

    def test_hand_value_correct_order(self):
        result = weighted_ranknet_loss([2.0, 1.0], [1, 2])
        assert result.value == pytest.approx(math.log(1 + math.e**-1) / 3, abs=1e-12)
        assert result.value == pytest.approx(0.10442, abs=5e-6)

    def test_hand_value_symmetric_logits(self):
        result = weighted_ranknet_loss([0.0, 0.0], [1, 2])
        assert result.value == pytest.approx(math.log(2) / 3, abs=1e-12)

    def test_loss_vanishes_as_margin_grows(self):
        values = [weighted_ranknet_loss([s, 0.0], [1, 2]).value for s in (0.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(math.log(1 + math.e**-10) / 3, abs=1e-15)
        assert values[-1] < 2e-5

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(2, 12))
            result = weighted_ranknet_loss(rng.standard_normal(m), rng.permutation(m) + 1)
            assert abs(result.gradient.sum()) < 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(6)
        ranks = rng.permutation(6) + 1
        a = weighted_ranknet_loss(s, ranks)
        b = weighted_ranknet_loss(s + 42.0, ranks)
        assert a.value == pytest.approx(b.value, rel=1e-12)
        np.testing.assert_allclose(a.gradient, b.gradient, atol=1e-12)

    def test_overflow_guard(self):
        result = weighted_ranknet_loss([-1000.0, 1000.0], [1, 2])
        assert np.isfinite(result.value)
        assert result.value == pytest.approx(2000.0 / 3, rel=1e-12)

    def test_needs_two_candidates(self):
        with pytest.raises(EmptyInputError):
            weighted_ranknet_loss([1.0], [1])

    def test_rank_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            weighted_ranknet_loss([1.0, 2.0], [1, 2, 3])

    def test_nan_logits_rejected_as_non_finite(self):
        with pytest.raises(NonFiniteError):
            weighted_ranknet_loss([1.0, float("nan")], [1, 2])

    def test_ranks_must_be_permutation(self):
        with pytest.raises(ValueError):
            weighted_ranknet_loss([1.0, 2.0], [1, 3])

    @pytest.mark.parametrize("ranks", [[1.9, 2.0], [1.5, 2.5], ["a", "b"], [1, float("nan")]])
    def test_ranks_are_checked_as_a_permutation(self, ranks):
        # Casting ranks to ints once truncated the first two, let numpy's bare
        # ValueError out for strings and warned while casting NaN.
        with pytest.raises(InvalidPermutationError):
            weighted_ranknet_loss([1.0, 2.0], ranks)

    def test_caller_writes_do_not_reach_the_next_call(self):
        s, ranks = [0.3, -1.2, 2.0], [2, 3, 1]
        first = weighted_ranknet_loss(s, ranks)
        want = first.gradient.copy()
        first.gradient[:] = 7.0
        again = weighted_ranknet_loss(s, ranks)
        assert again.value == first.value
        np.testing.assert_array_equal(again.gradient, want)


class TestGeometricTarget:
    def test_forced_by_formula_m3(self):
        target = geometric_target([0, 1, 2], gamma=0.5)
        np.testing.assert_allclose(target.q, [4 / 7, 2 / 7, 1 / 7], atol=1e-12)

    def test_single_candidate(self):
        np.testing.assert_allclose(geometric_target([0], gamma=0.3).q, [1.0], atol=0)

    def test_hand_value_m2(self):
        target = geometric_target([0, 1], gamma=0.9)
        np.testing.assert_allclose(target.q, [10 / 19, 9 / 19], atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(InvalidGammaError):
            geometric_target([0, 1], gamma=gamma)

    @pytest.mark.parametrize("gamma,m", [(1e-20, 30), (1e-200, 3)])
    def test_underflowing_gamma_is_named_with_the_list_length(self, gamma, m):
        # gamma**(m - 1) is 0 in float64; the target would otherwise be blamed.
        with pytest.raises(InvalidGammaError, match=f"gamma {gamma} .* {m} positions"):
            geometric_target(range(m), gamma)

    def test_small_gamma_that_does_not_underflow_is_accepted(self):
        assert geometric_target(range(16), 1e-20).q[-1] > 0

    def test_caller_writes_do_not_reach_the_next_call(self):
        geometric_target([2, 0, 1], gamma=0.5).q[:] = 0.0
        geometric_target([0, 1, 2], gamma=0.5).q[:] = 0.0
        np.testing.assert_allclose(geometric_target([2, 0, 1], 0.5).q, [2 / 7, 1 / 7, 4 / 7], atol=1e-12)
        np.testing.assert_allclose(geometric_target([0, 1, 2], 0.5).q, [4 / 7, 2 / 7, 1 / 7], atol=1e-12)

    def test_mass_follows_teacher_positions(self):
        # Candidate 2 is the teacher's top pick, so it gets the largest mass.
        target = geometric_target([2, 0, 1], gamma=0.5)
        np.testing.assert_allclose(target.q, [2 / 7, 1 / 7, 4 / 7], atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.floats(0.05, 0.95))
    @settings(max_examples=150, deadline=None)
    def test_sums_to_one_and_equivariant(self, seed, m, gamma):
        rng = np.random.default_rng(seed)
        order = rng.permutation(m)
        target = geometric_target(order, gamma)
        assert target.q.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(target.q > 0)
        # Equivariance: the mass a candidate receives depends only on its position.
        identity = geometric_target(np.arange(m), gamma)
        np.testing.assert_allclose(target.q[order], identity.q, atol=1e-15)


class TestSoftRankLoss:
    def test_uniform_logits_give_log_m(self):
        target = geometric_target([0, 1, 2], gamma=0.5)
        result = soft_rank_loss([0.0, 0.0, 0.0], target)
        assert result.value == pytest.approx(math.log(3), abs=1e-12)

    def test_gradient_is_softmax_minus_target(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(5)
        target = geometric_target(rng.permutation(5), gamma=0.7)
        result = soft_rank_loss(s, target)
        p = np.exp(s) / np.exp(s).sum()
        np.testing.assert_allclose(result.gradient, p - target.q, atol=1e-12)
        assert abs(result.gradient.sum()) < 1e-12

    def test_minimum_is_target_entropy(self):
        q = np.array([2 / 3, 1 / 3])
        entropy = -float(np.dot(q, np.log(q)))
        assert entropy == pytest.approx(0.63651, abs=5e-6)
        # Loss at the minimizing logits (log q up to a constant) equals the entropy.
        result = soft_rank_loss(np.log(q) + 5.0, q)
        assert result.value == pytest.approx(entropy, abs=1e-12)

    def test_concentrated_target_on_dominant_logit(self):
        # Nearly all target mass on the argmax logit leaves only a small loss.
        q = np.array([0.998, 0.001, 0.001])
        result = soft_rank_loss([10.0, 0.0, 0.0], q)
        assert 0.0 < result.value < 0.05
        p = np.exp([10.0, 0.0, 0.0]) / np.exp([10.0, 0.0, 0.0]).sum()
        assert result.gradient[0] == pytest.approx(p[0] - q[0], abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=100, deadline=None)
    def test_gibbs_inequality(self, seed, m):
        rng = np.random.default_rng(seed)
        target = geometric_target(rng.permutation(m), gamma=float(rng.uniform(0.2, 0.9)))
        entropy = -float(np.dot(target.q, np.log(target.q)))
        value = soft_rank_loss(rng.standard_normal(m) * 3, target).value
        assert value >= entropy - 1e-9

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            soft_rank_loss([0.0, 0.0], geometric_target([0, 1, 2], 0.5))


class TestNllLoss:
    def test_perfect_predictions(self):
        assert nll_loss([1.0, 1.0, 1.0]) == 0.0

    def test_single_half(self):
        assert nll_loss([0.5]) == pytest.approx(math.log(2), abs=1e-15)

    def test_two_steps(self):
        assert nll_loss([0.5, 0.25]) == pytest.approx(math.log(2) + math.log(4), abs=1e-12)

    @pytest.mark.parametrize("bad", [[0.0], [-0.1], [1.1], [0.5, 2.0]])
    def test_invalid_probabilities(self, bad):
        with pytest.raises(InvalidProbabilityError):
            nll_loss(bad)


class TestStageLoss:
    def test_zero_weight_returns_base(self):
        aux = LossValue(value=0.5, gradient=np.zeros(2))
        assert stage_loss(1.0, aux, lam=0.0) == 1.0

    def test_stage_one_weight(self):
        aux = LossValue(value=0.5, gradient=np.zeros(2))
        assert stage_loss(1.0, aux, lam=10.0) == 6.0

    def test_stage_two_weight(self):
        aux = LossValue(value=0.5, gradient=np.zeros(2))
        assert stage_loss(1.0, aux, lam=1.0) == 1.5


class TestFiniteDifferenceGradcheck:
    def test_ranknet_gradient_matches(self):
        rng = np.random.default_rng(3)
        ranks = rng.permutation(5) + 1
        err = finite_difference_gradcheck(
            lambda s: weighted_ranknet_loss(s, ranks), rng.standard_normal(5)
        )
        assert err < 1e-5

    def test_soft_rank_gradient_matches(self):
        rng = np.random.default_rng(4)
        target = geometric_target(rng.permutation(20), gamma=0.6)
        err = finite_difference_gradcheck(
            lambda s: soft_rank_loss(s, target), rng.standard_normal(20)
        )
        assert err < 1e-5

    def test_constant_loss_has_zero_error(self):
        constant = lambda s: LossValue(value=3.0, gradient=np.zeros(len(s)))
        assert finite_difference_gradcheck(constant, np.ones(4)) == 0.0

    @pytest.mark.parametrize("eps", [1e-9, 1e-2])
    def test_epsilon_range_enforced(self, eps):
        constant = lambda s: LossValue(value=3.0, gradient=np.zeros(len(s)))
        with pytest.raises(ValueError):
            finite_difference_gradcheck(constant, np.ones(2), epsilon=eps)
