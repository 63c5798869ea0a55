import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from library_oracles import cosine_similarity
from prunerank.errors import DimensionMismatchError, NonFiniteError, ZeroNormError
from prunerank.linalg import cosine_to_unit, embedding_from_json, similarity_matrix, unit_rows

INV_SQRT2 = 2 ** -0.5


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_analytic_inv_sqrt2(self):
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_scale_invariance_exact_case(self):
        assert cosine_similarity([2, 0], [1, 0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine_similarity([1, 0], [1, 0, 0])

    def test_zero_norm(self):
        with pytest.raises(ZeroNormError):
            cosine_similarity([0, 0], [1, 0])

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(1, 8))
            value = cosine_similarity(rng.standard_normal(d) * 10, rng.standard_normal(d) * 10)
            assert -1.0 <= value <= 1.0

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, dim, seed):
        rng = np.random.default_rng(seed)
        h, v = rng.standard_normal(dim), rng.standard_normal(dim)
        assert cosine_similarity(h, v) == pytest.approx(cosine_similarity(v, h), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_positive_scaling_invariance(self, alpha):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h, v = rng.standard_normal(5), rng.standard_normal(5)
            assert cosine_similarity(alpha * h, v) == pytest.approx(
                cosine_similarity(h, v), abs=1e-12
            )


class TestSimilarityMatrix:
    def test_single_query_row(self):
        np.testing.assert_allclose(
            similarity_matrix([[1, 0]], [[1, 0], [0, 1]]), [[1.0, 0.0]], atol=1e-15
        )

    def test_identical_rows_give_identical_outputs(self):
        h = [[0.3, -0.7], [0.3, -0.7]]
        v = np.random.default_rng(3).standard_normal((4, 2))
        sims = similarity_matrix(h, v)
        np.testing.assert_array_equal(sims[0], sims[1])

    def test_derived_direct_arithmetic(self):
        sims = similarity_matrix([[1, 0], [0, 1]], [[INV_SQRT2, INV_SQRT2]])
        np.testing.assert_allclose(sims, [[INV_SQRT2], [INV_SQRT2]], atol=1e-12)

    def test_agrees_with_pairwise_cosine(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((6, 5))
        v = rng.standard_normal((9, 5))
        sims = similarity_matrix(h, v)
        for t in range(6):
            for j in range(9):
                assert sims[t, j] == pytest.approx(cosine_similarity(h[t], v[j]), abs=1e-12)

    def test_zero_norm_row_reports_index(self):
        v = np.ones((3, 2))
        v[1] = 0.0
        with pytest.raises(ZeroNormError, match="row 1"):
            similarity_matrix([[1.0, 0.0]], v)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            similarity_matrix([[1, 0]], [[1, 0, 0]])

    def test_entries_clamped(self):
        rng = np.random.default_rng(5)
        sims = similarity_matrix(rng.standard_normal((8, 3)), rng.standard_normal((8, 3)))
        assert np.all(sims >= -1.0) and np.all(sims <= 1.0)


class TestEmbeddingJson:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 4))
        obj = {"rows": 3, "dim": 4, "data": m.ravel().tolist()}
        np.testing.assert_allclose(embedding_from_json(obj), m, atol=0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            embedding_from_json({"rows": 2, "dim": 2, "data": [1.0, 2.0, 3.0]})

    def test_missing_field_rejected(self):
        with pytest.raises(DimensionMismatchError):
            embedding_from_json({"rows": 1, "data": [1.0]})

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            embedding_from_json({"rows": 1, "dim": 2, "data": [1.0, float("inf")]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": "x", "dim": 2, "data": [1.0, 2.0]},
            {"rows": 1, "dim": 2, "data": ["a", 2.0]},
            {"rows": -1, "dim": -2, "data": [1.0, 2.0]},
            # JSON integers only, as in the config leaf rules: none of these is converted.
            {"rows": 2.7, "dim": 2, "data": [1, 2, 3, 4]},
            {"rows": 2.0, "dim": 2, "data": [1, 2, 3, 4]},
            {"rows": True, "dim": 2, "data": [1, 2]},
            {"rows": "2", "dim": 2, "data": [1, 2, 3, 4]},
            {"rows": 1, "dim": 2, "data": [True, 2.0]},
            # An int past the float range once escaped as an OverflowError.
            {"rows": 1, "dim": 1, "data": [10**400]},
        ],
    )
    def test_malformed_fields_rejected(self, obj):
        with pytest.raises(DimensionMismatchError):
            embedding_from_json(obj)


def previous_similarity(H, V):
    """The formula the kernel replaced: rows scaled to unit norm before the product."""
    with np.errstate(over="ignore"):
        h = H / np.linalg.norm(H, axis=1)[:, None]
        v = V / np.linalg.norm(V, axis=1)[:, None]
    return np.clip(h @ v.T, -1.0, 1.0)


def unguarded_kernel(H, V):
    """The cosine kernel's arithmetic with every step run unconditionally: unit
    query rows, one GEMM, division by the token norms, overflowed columns zeroed."""
    query_norms = np.sqrt(np.vecdot(H, H))
    norms = np.sqrt(np.vecdot(V, V))
    sims = (H / np.maximum(query_norms, 1e-12)[:, None]) @ V.T
    sims /= norms
    sims[:, np.isinf(norms)] = 0.0
    return sims


def in_layout(m, layout):
    """m with the same values, stored C-ordered, Fortran-ordered or every second column."""
    if layout == "C":
        return np.ascontiguousarray(m)
    if layout == "F":
        return np.asfortranarray(m)
    # The skipped columns hold NaN, so a kernel that reads them fails.
    wide = np.full((m.shape[0], 2 * m.shape[1]), np.nan)
    wide[:, ::2] = m
    return wide[:, ::2]


def fsum_similarity(H, V):
    """Cosines from exactly rounded sums (math.fsum), one row pair at a time."""

    def norm(row):
        return math.sqrt(math.fsum(x * x for x in row))

    return [
        [
            min(1.0, max(-1.0, math.fsum(a * b for a, b in zip(h, v)) / (norm(h) * norm(v))))
            for v in V.tolist()
        ]
        for h in H.tolist()
    ]


class TestCosineKernel:
    """similarity_matrix (unit_rows + cosine_to_unit) against brute force."""

    @given(
        st.integers(1, 6),
        st.integers(1, 10),
        st.integers(1, 8),
        st.sampled_from([1e-5, 1.0, 1e5]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_pair_cosine(self, t, n, d, scale, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((t, d)) * scale
        v = rng.standard_normal((n, d))
        v[rng.integers(n)] *= 1.0 / scale
        sims = similarity_matrix(h, v)
        expected = [[cosine_similarity(h[i], v[j]) for j in range(n)] for i in range(t)]
        np.testing.assert_allclose(sims, expected, rtol=0, atol=1e-12)

    @given(
        st.integers(1, 5),
        st.integers(1, 8),
        st.integers(1, 12),
        st.sampled_from(["C", "F", "strided"]),
        st.sampled_from([1e-5, 1.0, 1e5]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_fsum_reference_in_every_layout(self, t, n, d, layout, scale, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((t, d)) * scale
        v = rng.standard_normal((n, d))
        sims = similarity_matrix(in_layout(h, layout), in_layout(v, layout))
        np.testing.assert_allclose(sims, fsum_similarity(h, v), rtol=0, atol=1e-12)

    def test_query_scaled_once_is_reused(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((3, 5))
        query = unit_rows(h)
        np.testing.assert_allclose(np.linalg.norm(query[0], axis=1), 1.0, atol=1e-15)
        for _ in range(3):
            v = rng.standard_normal((4, 5))
            np.testing.assert_array_equal(cosine_to_unit(query, v), similarity_matrix(h, v))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", ["H", "V"])
    def test_non_finite_entry_rejected(self, bad, operand):
        h = np.ones((2, 3))
        v = np.ones((4, 3))
        (h if operand == "H" else v)[1, 2] = bad
        with pytest.raises(NonFiniteError, match=operand):
            similarity_matrix(h, v)

    def test_zero_query_row_rejected(self):
        h = np.ones((3, 2))
        h[2] = 0.0
        with pytest.raises(ZeroNormError, match="H row 2"):
            similarity_matrix(h, np.ones((2, 2)))

    @pytest.mark.parametrize(
        "h,v,error,match",
        [
            ([[np.nan, 1.0]], [1.0, 2.0], NonFiniteError, "H"),  # H before V
            ([[0.0, 0.0]], [[1.0, np.inf]], NonFiniteError, "V"),  # finiteness before zero norm
            ([[0.0, 0.0]], [[1.0, 2.0, 3.0]], DimensionMismatchError, "width"),  # width before zero norm
            ([[1.0, 1.0]], [[np.nan, 1.0, 2.0]], NonFiniteError, "V"),  # finiteness before width
            ([[0.0, 0.0]], [[0.0, 0.0]], ZeroNormError, "H row 0"),  # zero norm, H before V
        ],
    )
    def test_error_order(self, h, v, error, match):
        with pytest.raises(error, match=match):
            similarity_matrix(h, v)

    @pytest.mark.parametrize("big", [1e200, 1.5e308])
    def test_overflowing_row_norm_matches_previous_formula(self, big):
        h = np.array([[1.0, 2.0], [3.0, -1.0], [big, big]])
        v = np.array([[1.0, 0.0], [big, big], [0.5, 0.5]])
        with np.errstate(over="ignore", invalid="ignore"):
            sims = similarity_matrix(h, v)
        assert not np.isnan(sims).any()
        np.testing.assert_allclose(sims, previous_similarity(h, v), rtol=0, atol=1e-15)
        assert not sims[2].any() and not sims[:, 1].any()

    # Each kernel check is one reduction, and its detailed path runs only when
    # the reduction fails. These cases take every detailed path, with the bad
    # row or column away from the front.
    @pytest.mark.parametrize("tiny", [0.0, 1e-13])
    @pytest.mark.parametrize("operand", ["H", "V"])
    def test_zero_norm_only_in_last_row_is_named(self, operand, tiny):
        h = np.ones((4, 3))
        v = np.ones((5, 3))
        bad = h if operand == "H" else v
        bad[-1] = tiny
        with pytest.raises(ZeroNormError, match=rf"^{operand} row {len(bad) - 1} has \(near-\)zero norm$"):
            similarity_matrix(h, v)

    @pytest.mark.parametrize("operand", ["H", "V"])
    def test_first_of_two_zero_rows_is_named(self, operand):
        h = np.ones((5, 3))
        v = np.ones((6, 3))
        bad = h if operand == "H" else v
        bad[2] = 1e-13
        bad[4] = 0.0
        with pytest.raises(ZeroNormError, match=rf"^{operand} row 2 has \(near-\)zero norm$"):
            similarity_matrix(h, v)

    @pytest.mark.parametrize("big", [1e200, 1.5e308])
    @pytest.mark.parametrize("column", [0, 3, 5])
    def test_one_overflowing_column_scores_zero_and_leaves_the_rest(self, column, big):
        rng = np.random.default_rng(column)
        h = rng.standard_normal((4, 3))
        v = rng.standard_normal((6, 3))
        v[column] = [big, -big, big]
        with np.errstate(over="ignore", invalid="ignore"):
            sims = similarity_matrix(h, v)
            expected = np.clip(unguarded_kernel(h, v), -1.0, 1.0)
        assert not np.isnan(sims).any()
        assert not sims[:, column].any() and not np.signbit(sims[:, column]).any()
        np.testing.assert_array_equal(sims.view(np.int64), expected.view(np.int64))

    def test_rounding_past_one_is_clamped(self):
        v = np.random.default_rng(0).standard_normal((40, 5))
        h = np.concatenate([v, -v])
        raw = unguarded_kernel(h, v)
        assert raw.max() > 1.0 and raw.min() < -1.0  # the clamp has work to do
        sims = similarity_matrix(h, v)
        assert sims.max() == 1.0 and sims.min() == -1.0
        np.testing.assert_array_equal(sims.view(np.int64), np.clip(raw, -1.0, 1.0).view(np.int64))


# (H, V) pairs that each fail one check of the 2-D call, and pairs that fail
# two, where the order of the checks decides the error.
BAD_PAIRS = {
    "nan-in-H": ([[np.nan, 1.0]], [[1.0, 2.0]]),
    "inf-in-V-and-zero-H": ([[0.0, 0.0]], [[1.0, np.inf]]),
    "width-and-zero-H": ([[0.0, 0.0]], [[1.0, 2.0, 3.0]]),
    "nan-in-V-and-width": ([[1.0, 1.0]], [[np.nan, 1.0, 2.0]]),
    "zero-H-and-zero-V": ([[0.0, 0.0]], [[0.0, 0.0]]),
    "zero-V": ([[1.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]),
}


def raised(call):
    """The class of the error call() raises."""
    with pytest.raises(Exception) as info:
        call()
    return info.type


class TestStackedCosineKernel:
    """cosine_to_unit on a (k, n, d) stack: each slice is the 2-D call on it."""

    # A broadcast query is one (t, d) query read as a (k, t, d) stack, as
    # simulate scores an explicit query.
    @pytest.mark.parametrize("broadcast", [False, True], ids=["query-stack", "broadcast-query"])
    def test_slices_equal_the_two_dimensional_calls(self, broadcast):
        rng = np.random.default_rng(11)
        for k, t, n, d in ((1, 1, 1, 1), (3, 1, 2, 1), (5, 4, 20, 16), (2, 3, 160, 8), (4, 2, 7, 3), (409, 4, 20, 16)):
            h = np.broadcast_to(rng.standard_normal((t, d)), (k, t, d)) if broadcast else rng.standard_normal((k, t, d))
            v = rng.standard_normal((k, n, d))
            sims = cosine_to_unit(unit_rows(h, stack=True), v, stack=True)
            assert sims.shape == (k, t, n)
            for i in range(k):
                assert np.array_equal(sims[i], similarity_matrix(h[i], v[i]))

    @pytest.mark.parametrize("broadcast", [False, True], ids=["query-stack", "broadcast-query"])
    @pytest.mark.parametrize("case", BAD_PAIRS)
    def test_bad_slice_raises_what_the_two_dimensional_call_raises(self, case, broadcast):
        h, v = (np.array(m, dtype=float) for m in BAD_PAIRS[case])
        stack_h = np.broadcast_to(h, (2, *h.shape)) if broadcast else np.stack([np.ones_like(h), h])
        stack_v = np.stack([np.ones_like(v), v])
        expected = raised(lambda: similarity_matrix(h, v))
        assert raised(lambda: cosine_to_unit(unit_rows(stack_h, stack=True), stack_v, stack=True)) is expected

    @pytest.mark.parametrize("operand,name", [("H", "H[1]"), ("V", "V[1]")])
    def test_zero_row_names_its_matrix_and_row(self, operand, name):
        h = np.ones((2, 4, 3))
        v = np.ones((2, 5, 3))
        (h if operand == "H" else v)[..., 2, :] = 0.0
        (h if operand == "H" else v)[0, 2] = 1.0
        with pytest.raises(ZeroNormError, match=rf"^{re.escape(name)} row 2 has \(near-\)zero norm$"):
            cosine_to_unit(unit_rows(h, stack=True), v, stack=True)

    # A (t, d) query against a stack was once read as shared by its matrices;
    # a query shared by a stack is now broadcast to one.
    @pytest.mark.parametrize("h_shape,v_shape", [((3, 2, 4), (2, 5, 4)), ((2, 2, 4), (5, 4)), ((2, 4), (2, 5, 4))])
    def test_query_stack_must_match_the_token_stack(self, h_shape, v_shape):
        with pytest.raises(DimensionMismatchError, match="stack of"):
            cosine_to_unit(unit_rows(np.ones(h_shape), stack=True), np.ones(v_shape), stack=True)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: unit_rows(np.ones((2, 4, 3))),
            lambda: cosine_to_unit(unit_rows(np.ones((4, 3))), np.ones((2, 5, 3))),
            lambda: similarity_matrix(np.ones((2, 4, 3)), np.ones((2, 5, 3))),
            lambda: similarity_matrix(np.ones((4, 3)), np.ones((2, 5, 3))),
        ],
        ids=["unit_rows", "cosine_to_unit", "similarity_matrix-H", "similarity_matrix-V"],
    )
    def test_a_stack_needs_stack(self, call):
        with pytest.raises(DimensionMismatchError, match="must be 2-D, got shape"):
            call()

    def test_overflowing_row_of_a_stack_scores_zero(self):
        rng = np.random.default_rng(12)
        h = rng.standard_normal((3, 2, 4))
        v = rng.standard_normal((3, 6, 4))
        v[1, 4] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            sims = cosine_to_unit(unit_rows(h, stack=True), v, stack=True)
            for i in range(3):
                assert np.array_equal(sims[i], similarity_matrix(h[i], v[i]))
        assert not sims[1, :, 4].any() and sims[0, :, 4].all()
