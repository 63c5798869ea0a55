import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from prunerank.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidRatioError,
    KOutOfRangeError,
    NonFiniteError,
    ZeroNormError,
)
from prunerank import linalg, pruning
from prunerank.errors import PrunerankError
from prunerank.linalg import similarity_matrix
from prunerank.cost_model import WorkloadSpec
from prunerank.pruning import (
    _ranks,
    _top_k,
    keep_count,
    lse_scores,
    maxsim_scores,
    prune_by_scores,
    prune_images,
    random_prune,
    select_topk_preserve_order,
    topk_stability_check,
)
from prunerank.rules import _round_product
from library_oracles import lexsort_top_k, sequential_prune_images
from peak_memory import traced_peak


class TestMaxsimScores:
    def test_columnwise_max(self):
        np.testing.assert_allclose(
            maxsim_scores([[0.1, 0.8, 0.3], [0.4, 0.2, 0.9]]), [0.4, 0.8, 0.9]
        )

    def test_single_row_identity(self):
        row = [0.2, -0.5, 0.9]
        np.testing.assert_allclose(maxsim_scores([row]), row)

    def test_all_zeros(self):
        np.testing.assert_allclose(maxsim_scores(np.zeros((2, 3))), [0.0, 0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            maxsim_scores(np.zeros((0, 3)))
        with pytest.raises(EmptyInputError):
            maxsim_scores(np.zeros((2, 0)))


class TestLseScores:
    def test_equal_scores_add_log_count(self):
        np.testing.assert_allclose(lse_scores([[0.0], [0.0]]), [math.log(2.0)], atol=1e-12)

    def test_single_row_is_identity(self):
        np.testing.assert_allclose(lse_scores([[5.0]]), [5.0], atol=0)

    def test_derived_log_e_plus_one(self):
        np.testing.assert_allclose(
            lse_scores([[1.0], [0.0]]), [math.log(math.e + 1.0)], atol=1e-12
        )

    def test_matches_scipy_logsumexp(self):
        rng = np.random.default_rng(0)
        sims = rng.uniform(-1, 1, size=(7, 13))
        np.testing.assert_allclose(lse_scores(sims), logsumexp(sims, axis=0), atol=1e-12)

    def test_no_overflow_on_large_scores(self):
        out = lse_scores([[1000.0], [999.0]])
        assert np.isfinite(out).all()


class TestSandwichProperty:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_max_le_lse_le_max_plus_log(self, seed, n_query, n_tokens):
        rng = np.random.default_rng(seed)
        sims = rng.uniform(-1, 1, size=(n_query, n_tokens))
        hard, smooth = maxsim_scores(sims), lse_scores(sims)
        assert np.all(hard <= smooth + 1e-9)
        assert np.all(smooth <= hard + math.log(n_query) + 1e-9)

    def test_upper_bound_tight_iff_column_constant(self):
        sims = np.array([[0.4, 0.1], [0.4, 0.8]])
        hard, smooth = maxsim_scores(sims), lse_scores(sims)
        assert smooth[0] == pytest.approx(hard[0] + math.log(2), abs=1e-12)
        assert smooth[1] < hard[1] + math.log(2) - 1e-6


def decimal_keep_count(rho, n):
    """max(1, round-half-away(rho * n)) on the decimal value of rho, capped at n."""
    return min(n, max(1, math.floor(Fraction(repr(rho)) * n + Fraction(1, 2))))


class TestKeepCount:
    @pytest.mark.parametrize(
        "rho,n,expected",
        [
            (0.1, 3, 1),
            (0.5, 4, 2),
            (0.5, 7, 4),
            (1.0, 9, 9),
            (0.01, 50, 1),
            (0.25, 10, 3),
            (0.009, 1500, 14),  # the float product is 13.4999...
        ],
    )
    def test_examples(self, rho, n, expected):
        assert keep_count(rho, n) == expected

    def test_half_ties_round_away_from_zero(self):
        # round(3.5) -> 4, unlike banker's rounding, in the keep count and in u_base.
        assert keep_count(0.5, 7) == 4
        assert keep_count(0.5, 5) == 3
        spec = dict(n_text=0, n_query=1, beta=0.5, u_reason=0, rho=1.0)
        assert WorkloadSpec(image_sizes=((1, 7),), **spec).u_base == 4
        assert WorkloadSpec(image_sizes=((1, 5),), **spec).u_base == 3

    @given(st.integers(0, 10**10), st.integers(1, 2**63))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_round_product_matches_the_exact_decimal_rule(self, tenthousandths, n):
        # Every decimal with up to 4 places up to beta's bound of 10**6, as typed.
        value = tenthousandths / 10**4
        assert _round_product(value, n) == math.floor(Fraction(repr(value)) * n + Fraction(1, 2))

    @pytest.mark.parametrize("rho", [0.0, -0.1, 1.2])
    def test_invalid_ratio(self, rho):
        with pytest.raises(InvalidRatioError):
            keep_count(rho, 5)

    def test_bad_token_count(self):
        with pytest.raises(EmptyInputError):
            keep_count(0.5, 0)

    @given(st.floats(0.001, 1.0), st.integers(1, 500))
    @settings(max_examples=200, deadline=None)
    def test_always_in_range(self, rho, n):
        k = keep_count(rho, n)
        assert 1 <= k <= n

    def test_every_half_boundary_on_a_0_001_grid(self):
        # The only pairs where rounding the float product can disagree with
        # the decimal rule: rho = i / 1000, n <= 2048 and i * n = 500 mod 1000.
        i, n = np.nonzero(np.arange(1, 1001)[:, None] * np.arange(1, 2049) % 1000 == 500)
        wrong = [
            (a / 1000, b)
            for a, b in zip((i + 1).tolist(), (n + 1).tolist())
            if keep_count(a / 1000, b) != (a * b + 500) // 1000
        ]
        assert i.size > 10_000 and wrong == []

    @given(
        st.one_of(st.integers(1, 1000).map(lambda i: i / 1000), st.floats(1e-6, 1.0)),
        st.integers(1, 4096),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_exact_decimal_rule(self, rho, n):
        assert keep_count(rho, n) == decimal_keep_count(rho, n)


class TestSelectTopK:
    def test_basic(self):
        np.testing.assert_array_equal(
            select_topk_preserve_order([0.9, 0.1, 0.8, 0.2], 2), [0, 2]
        )

    def test_full_selection_is_identity(self):
        np.testing.assert_array_equal(select_topk_preserve_order([0.3, 0.1, 0.2], 3), [0, 1, 2])

    def test_tie_breaks_to_lower_index(self):
        np.testing.assert_array_equal(select_topk_preserve_order([0.5, 0.5, 0.1], 1), [0])

    def test_output_ascending(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(30)
        kept = select_topk_preserve_order(scores, 11)
        assert np.all(np.diff(kept) > 0)

    def test_kept_dominate_dropped(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scores = rng.standard_normal(20)
            kept = select_topk_preserve_order(scores, 7)
            dropped = np.setdiff1d(np.arange(20), kept)
            assert scores[kept].min() >= scores[dropped].max()

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(KOutOfRangeError):
            select_topk_preserve_order([1.0, 2.0, 3.0], k)


class TestRandomPrune:
    def test_keep_all(self):
        np.testing.assert_array_equal(random_prune(5, 5, seed=123), [0, 1, 2, 3, 4])

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(random_prune(5, 1, seed=7), random_prune(5, 1, seed=7))

    def test_distinct_ascending(self):
        kept = random_prune(50, 20, seed=9)
        assert np.all(np.diff(kept) > 0)
        assert kept.min() >= 0 and kept.max() < 50

    def test_uniform_marginals(self):
        counts = np.zeros(100)
        trials = 10000
        for seed in range(trials):
            counts[random_prune(100, 50, seed=seed)] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.5) < 0.02)

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRangeError):
            random_prune(5, 6, seed=0)


class TestTopKStability:
    def test_big_gap_guarantees_equality(self):
        max_sim = [3.0, 3.0, 0.0]
        lse = [3.0 + math.log(2), 3.0 + math.log(2), math.log(2)]
        report = topk_stability_check(max_sim, lse, k=2, n_query=2)
        assert report.gap == pytest.approx(3.0)
        assert report.guaranteed_stable
        assert report.sets_equal

    def test_zero_gap_not_guaranteed(self):
        report = topk_stability_check([1.0, 1.0, 1.0], [1.5, 1.5, 1.5], k=2, n_query=2)
        assert report.gap == 0.0
        assert not report.guaranteed_stable

    def test_k_must_leave_a_boundary(self):
        with pytest.raises(KOutOfRangeError):
            topk_stability_check([1.0, 2.0], [1.0, 2.0], k=2, n_query=1)

    def test_monte_carlo_guarantee_never_violated(self):
        rng = np.random.default_rng(10)
        premise_fired = 0
        for _ in range(2000):
            n_query = int(rng.integers(1, 6))
            n_tokens = int(rng.integers(2, 40))
            k = int(rng.integers(1, n_tokens))
            if rng.random() < 0.5:
                sims = rng.uniform(-1, 1, size=(n_query, n_tokens))
            else:
                sims = rng.uniform(-1.0, -0.95, size=(n_query, n_tokens))
                sims[:, :k] = rng.uniform(0.95, 1.0, size=(n_query, k))
            report = topk_stability_check(maxsim_scores(sims), lse_scores(sims), k, n_query)
            if report.guaranteed_stable:
                premise_fired += 1
                assert report.sets_equal
        assert premise_fired > 100


class TestPruneImages:
    def test_keep_all_at_unit_ratio(self):
        rng = np.random.default_rng(11)
        query = rng.standard_normal((3, 8))
        images = [rng.standard_normal((n, 8)) for n in (5, 9, 2)]
        for result, image in zip(prune_images(query, images, rho=1.0), images):
            assert result.kept_indices == tuple(range(image.shape[0]))
            assert result.margin is None

    def test_planted_token_always_kept(self):
        rng = np.random.default_rng(12)
        query = rng.standard_normal((4, 16))
        image = rng.standard_normal((30, 16))
        image[17] = query[2]  # exact copy scores cosine 1.0, the global max
        for rho in (0.05, 0.1, 0.3, 0.7):
            (result,) = prune_images(query, [image], rho)
            assert 17 in result.kept_indices

    def test_identical_images_get_identical_results(self):
        rng = np.random.default_rng(13)
        query = rng.standard_normal((2, 6))
        image = rng.standard_normal((12, 6))
        first, second = prune_images(query, [image, image.copy()], rho=0.4)
        assert first == second

    def test_keep_count_rule_and_margin(self):
        rng = np.random.default_rng(14)
        query = rng.standard_normal((2, 6))
        image = rng.standard_normal((10, 6))
        (result,) = prune_images(query, [image], rho=0.25)
        assert result.keep_count == 3 == len(result.kept_indices)
        scores = np.sort(maxsim_scores(similarity_matrix(query, image)))[::-1]
        assert result.margin == pytest.approx(scores[2] - scores[3])

    def test_fortran_ordered_images_keep_the_same_indices(self):
        rng = np.random.default_rng(16)
        query = rng.standard_normal((4, 32))
        images = [np.asfortranarray(rng.standard_normal((n, 32))) for n in (7, 40, 129)]
        contiguous = [np.ascontiguousarray(image) for image in images]
        for image, copy in zip(images, contiguous):
            assert not image.flags.c_contiguous
            # Tie-free draws: a last-bit difference between a strided and a
            # contiguous norm cannot reorder two tokens.
            scores = np.sort(maxsim_scores(similarity_matrix(query, copy)))
            assert np.diff(scores).min() > 1e-9
        for rho in (0.1, 0.5, 0.9):
            for got, want in zip(prune_images(query, images, rho), prune_images(query, contiguous, rho)):
                assert (got.kept_indices, got.keep_count) == (want.kept_indices, want.keep_count)

    def test_query_scaling_leaves_results_unchanged(self):
        rng = np.random.default_rng(15)
        query = rng.standard_normal((3, 7))
        images = [rng.standard_normal((15, 7)) for _ in range(3)]
        baseline = prune_images(query, images, rho=0.4)
        for alpha in (0.5, 2.0, 10.0):
            scaled = prune_images(alpha * query, images, rho=0.4)
            assert [r.kept_indices for r in scaled] == [r.kept_indices for r in baseline]


def two_sort_prune(scores, rho):
    """prune_by_scores as two sorts: the kept set by the lexsort reference, then a
    full sort for the margin."""
    arr = np.asarray(scores, dtype=np.float64)
    n = arr.size
    kept = keep_count(rho, n)
    indices = lexsort_top_k(arr, kept)
    if kept == n:
        margin = None
    else:
        ordered = np.sort(arr)[::-1]
        margin = float(ordered[kept - 1] - ordered[kept])
    return tuple(int(i) for i in indices), kept, margin


class TestPruneByScores:
    def test_equals_the_two_sort_rule_with_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            # Few distinct values, so most vectors hold ties, some across the cut.
            scores = rng.integers(-3, 4, size=n) / 2.0
            if rng.random() < 0.5:
                scores = scores + rng.standard_normal(n) * (rng.random() < 0.5)
            for rho in (0.01, 0.1, 0.25, 0.5, 0.75, 0.999, 1.0):
                result = prune_by_scores(scores, rho)
                got = (result.kept_indices, result.keep_count, result.margin)
                assert got == two_sort_prune(scores, rho)
                assert result.keep_ratio == rho

    def test_signed_zeros_tie(self):
        result = prune_by_scores([-0.0, 0.0, 0.0, -1.0], 0.5)
        assert (result.kept_indices, result.margin) == ((0, 1), 0.0)


# Few distinct integer values and both zeros, so most rows tie across every cut.
TIED_SCORES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0])


class TestKeepRule:
    """Every reader of pruning._ranks keeps what the lexsort reference keeps."""

    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.lists(st.lists(TIED_SCORES, min_size=n, max_size=n), min_size=1, max_size=4)
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_reader_matches_the_lexsort_reference(self, rows, data):
        scores = np.array(rows)
        n_rows, n = scores.shape
        ks = np.array([data.draw(st.integers(1, n - 1)) for _ in range(n_rows)])
        rho = data.draw(st.integers(1, 1000)) / 1000
        order, ranks = _ranks(scores)
        stacked_order, stacked_ranks = _ranks(scores.reshape(n_rows, 1, n))
        assert np.array_equal(stacked_order[:, 0], order) and np.array_equal(stacked_ranks[:, 0], ranks)
        in_top, gap = _top_k(scores, ks, np.full(n_rows, n))
        for row, k, row_order, row_ranks, mask, row_gap in zip(scores, ks, order, ranks, in_top, gap):
            for budget in range(1, n + 1):
                want = lexsort_top_k(row, budget)
                assert np.array_equal(np.flatnonzero(row_ranks < budget), want)
                assert np.array_equal(np.sort(row_order[:budget]), want)
                assert np.array_equal(select_topk_preserve_order(row, budget), want)
            assert np.array_equal(np.flatnonzero(mask), lexsort_top_k(row, k))
            descending = np.sort(row)[::-1]
            assert row_gap == descending[k - 1] - descending[k]
            result = prune_by_scores(row, rho)
            assert (result.kept_indices, result.keep_count, result.margin) == two_sort_prune(row, rho)


def oracle_kept(H, image, rho):
    """Top keep_count tokens by maxsim score, lower index first on equal scores."""
    scores = maxsim_scores(similarity_matrix(H, image))
    return tuple(int(i) for i in lexsort_top_k(scores, decimal_keep_count(rho, scores.size)))


class TestPruneImagesKernel:
    @given(
        st.integers(1, 5),
        st.lists(st.integers(1, 40), min_size=0, max_size=4),
        st.integers(1, 8),
        st.integers(1, 1000).map(lambda i: i / 1000),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_argsort_oracle(self, t, token_counts, d, rho, seed):
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((t, d))
        images = []
        for n in token_counts:
            # Small integer entries and repeated rows give exactly tied scores.
            image = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
            image[np.abs(image).sum(axis=1) == 0, 0] = 1.0
            image[rng.integers(n, size=n // 2)] = image[0]
            images.append(image)
        results = prune_images(H, images, rho)
        assert len(results) == len(images)
        for result, image in zip(results, images):
            assert result.kept_indices == oracle_kept(H, image, rho)
            assert list(result.kept_indices) == sorted(result.kept_indices)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        rng = np.random.default_rng(21)
        H = rng.standard_normal((2, 4))
        images = [rng.standard_normal((5, 4)) for _ in range(3)]
        images[2][3, 1] = bad
        with pytest.raises(NonFiniteError, match=r"images\[2\]"):
            prune_images(H, images, 0.5)
        H[1, 0] = bad
        with pytest.raises(NonFiniteError, match="H"):
            prune_images(H, [], 0.5)

    def test_zero_rows_rejected(self):
        rng = np.random.default_rng(22)
        H = rng.standard_normal((2, 4))
        image = rng.standard_normal((5, 4))
        image[4] = 0.0
        with pytest.raises(ZeroNormError, match=r"images\[0\] row 4"):
            prune_images(H, [image], 0.5)
        H[0] = 0.0
        assert prune_images(H, [], 0.5) == []
        with pytest.raises(ZeroNormError, match="H row 0"):
            prune_images(H, [rng.standard_normal((5, 4))], 0.5)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(23)
        with pytest.raises(DimensionMismatchError):
            prune_images(rng.standard_normal((2, 4)), [rng.standard_normal((5, 3))], 0.5)

    def test_stacks_rejected(self):
        """The cosine kernel takes stacks; prune_images takes 2-D matrices only."""
        rng = np.random.default_rng(25)
        with pytest.raises(DimensionMismatchError, match=r"^images\[1\] must be 2-D"):
            prune_images(rng.standard_normal((2, 4)), [np.ones((5, 4)), np.ones((3, 5, 4))], 0.5)
        with pytest.raises(DimensionMismatchError, match="^H must be 2-D"):
            prune_images(rng.standard_normal((3, 2, 4)), [np.ones((5, 4))], 0.5)

    def test_no_image_sized_allocation(self):
        # A per-image normalized copy, a squared-entries temporary or a
        # concatenation of the candidates would each allocate at least one image.
        rng = np.random.default_rng(24)
        H = rng.standard_normal((8, 512))
        images = [rng.standard_normal((256, 512)) for _ in range(4)]
        prune_images(H, images, 0.3)
        assert traced_peak(lambda: prune_images(H, images, 0.3)) < images[0].nbytes


def laid_out(image, layout):
    """image's values as a C-ordered, Fortran-ordered or strided array, or
    its values as float32 or rounded to int64 with no zero row."""
    if layout == "float32":
        return image.astype(np.float32)
    if layout == "int64":
        image = np.rint(8 * image).astype(np.int64)
        image[~image.any(axis=1), 0] = 1
        return image
    if layout == "fortran":
        return np.asfortranarray(image)
    if layout == "strided":
        padded = np.zeros((2 * image.shape[0], 3 * image.shape[1]))
        padded[::2, ::3] = image
        return padded[::2, ::3]
    return image


def drawn(n, d=4):
    return np.random.default_rng(n).standard_normal((n, d))


def with_row(image, row, value):
    image = image.copy()
    image[row] = value
    return image


# (H, images) whose first bad input comes before a later, different one.
ERROR_ORDER = {
    "zero-row-then-width": lambda: (drawn(2), [drawn(5), with_row(drawn(6), 3, 0.0), drawn(7), drawn(5, 3)]),
    "zero-row-then-nan": lambda: (drawn(2), [with_row(drawn(5), 1, 0.0), drawn(6), with_row(drawn(7), 2, np.nan)]),
    "width-then-zero-row": lambda: (drawn(2), [drawn(5, 3), with_row(drawn(6), 0, 0.0)]),
    "H-zero-row-then-ndim": lambda: (with_row(drawn(2), 0, 0.0), [np.ones(4), drawn(5)]),
    "H-zero-row-then-image-zero-row": lambda: (with_row(drawn(2), 1, 0.0), [with_row(drawn(5), 0, 0.0)]),
    "3-D-entry": lambda: (drawn(2), [drawn(5), np.ones((3, 5, 4)), with_row(drawn(6), 0, np.inf)]),
    "empty-then-ragged": lambda: (drawn(2), [drawn(5), np.ones((0, 4)), [[1.0, 2.0], [3.0]]]),
}


def raised(call):
    """The class and message of the error call() raises."""
    with pytest.raises(PrunerankError) as info:
        call()
    return info.type, str(info.value)


class TestPruneImagesPool:
    """prune_images checks and norms every image in a thread pool before any
    GEMM: the results and errors of one image at a time (the reference)."""

    @given(
        st.integers(1, 5),
        st.lists(
            st.tuples(
                st.integers(1, 40), st.sampled_from(["c", "fortran", "strided", "float32", "int64"]), st.booleans()
            ),
            max_size=5,
        ),
        st.integers(1, 8),
        st.integers(1, 1000).map(lambda i: i / 1000),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_the_sequential_reference(self, t, specs, d, rho, as_generator, seed):
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((t, d))
        images = []
        for n, layout, tied in specs:
            if tied:
                # Small integer entries and repeated rows give exactly tied scores.
                image = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
                image[np.abs(image).sum(axis=1) == 0, 0] = 1.0
                image[rng.integers(n, size=n // 2)] = image[0]
            else:
                image = rng.standard_normal((n, d))
            images.append(laid_out(image, layout))
        got = prune_images(H, (image for image in images) if as_generator else images, rho)
        want = sequential_prune_images(H, images, rho)
        # == compares each margin as a float; repr also tells -0.0 from 0.0.
        assert got == want
        assert [repr(result.margin) for result in got] == [repr(result.margin) for result in want]

    @pytest.mark.parametrize("case", ERROR_ORDER.values(), ids=ERROR_ORDER.keys())
    def test_raises_what_the_sequential_reference_raises(self, case):
        H, images = case()
        assert raised(lambda: prune_images(H, images, 0.5)) == raised(lambda: sequential_prune_images(H, images, 0.5))

    def test_the_first_bad_image_raises_before_any_gemm(self, monkeypatch):
        gemms = []
        monkeypatch.setattr(pruning, "_unit_cosines", lambda *args: gemms.append(args))
        with pytest.raises(ZeroNormError, match=r"images\[2\] row 1"):
            prune_images(drawn(2), [drawn(5), drawn(6), with_row(drawn(7), 1, 0.0), drawn(8)], 0.5)
        assert gemms == []

    @pytest.mark.parametrize("rho", [2.0, 0.0, -0.5, np.nan])
    def test_bad_rho_raises_with_no_images(self, rho):
        with pytest.raises(InvalidRatioError, match="keep ratio must be in"):
            prune_images(drawn(2), [], rho)
        with pytest.raises(NonFiniteError, match="^H contains"):
            prune_images(with_row(drawn(2), 0, np.nan), [], rho)

    def test_bad_rho_raises_before_any_image_is_normed(self, monkeypatch):
        normed = []
        rows_and_norms = linalg._rows_and_norms

        def spy(m, name, stack):
            normed.append(name)
            return rows_and_norms(m, name, stack)

        monkeypatch.setattr(linalg, "_rows_and_norms", spy)
        with pytest.raises(InvalidRatioError):
            prune_images(drawn(2), [drawn(5)], 1.5)
        assert normed == ["H"]
