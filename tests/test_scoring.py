from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunerank.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidPermutationError,
    NonFiniteError,
)
from library_oracles import TooManyCandidatesError, assign_identifiers
from prunerank.scoring import (
    IDENTIFIER_ALPHABET,
    apply_permutation,
    rank_from_logits,
    validate_permutation,
)


# No prunerank code path builds a candidate list (the simulate ranking ranks
# image indices directly), so the class lives here with its tests.
@dataclass(frozen=True)
class CandidateList:
    """Retriever-ordered candidates paired with their identifier tokens."""

    ids: tuple
    identifier_tokens: tuple[str, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.identifier_tokens):
            raise DimensionMismatchError(
                f"{len(self.ids)} ids vs {len(self.identifier_tokens)} identifiers"
            )
        if not 1 <= len(self.ids) <= len(IDENTIFIER_ALPHABET):
            raise TooManyCandidatesError(
                f"candidate count must be in [1, {len(IDENTIFIER_ALPHABET)}], got {len(self.ids)}"
            )
        if len(set(self.identifier_tokens)) != len(self.identifier_tokens):
            raise InvalidPermutationError("identifier tokens must be distinct")

    @property
    def k(self) -> int:
        return len(self.ids)

    @classmethod
    def from_ids(cls, ids) -> "CandidateList":
        ids = tuple(ids)
        return cls(ids=ids, identifier_tokens=tuple(assign_identifiers(len(ids))))


class TestAssignIdentifiers:
    def test_single(self):
        assert assign_identifiers(1) == ["A"]

    def test_three(self):
        assert assign_identifiers(3) == ["A", "B", "C"]

    def test_full_alphabet(self):
        labels = assign_identifiers(26)
        assert labels[0] == "A" and labels[-1] == "Z"
        assert len(set(labels)) == 26

    def test_too_many(self):
        with pytest.raises(TooManyCandidatesError):
            assign_identifiers(27)

    def test_zero(self):
        with pytest.raises(EmptyInputError):
            assign_identifiers(0)


class TestCandidateList:
    def test_from_ids(self):
        candidates = CandidateList.from_ids(["p9", "p2", "p5"])
        assert candidates.k == 3
        assert candidates.identifier_tokens == ("A", "B", "C")

    def test_duplicate_identifiers_rejected(self):
        with pytest.raises(InvalidPermutationError):
            CandidateList(ids=("x", "y"), identifier_tokens=("A", "A"))

    def test_too_many_candidates(self):
        with pytest.raises(TooManyCandidatesError):
            CandidateList.from_ids(range(27))


class TestRankFromLogits:
    def test_basic_argsort(self):
        np.testing.assert_array_equal(rank_from_logits([0.2, 1.5, -0.3]), [1, 0, 2])

    def test_all_equal_gives_identity(self):
        np.testing.assert_array_equal(rank_from_logits([1.0, 1.0, 1.0]), [0, 1, 2])

    def test_single_candidate(self):
        np.testing.assert_array_equal(rank_from_logits([42.0]), [0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            rank_from_logits([])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            rank_from_logits([1.0, float("nan")])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 20))
    @settings(max_examples=100, deadline=None)
    def test_shift_and_scale_invariance(self, seed, m):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal(m)
        base = rank_from_logits(logits)
        np.testing.assert_array_equal(rank_from_logits(logits + 17.0), base)
        np.testing.assert_array_equal(rank_from_logits(logits * 3.5), base)

    def test_agrees_with_selection_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 15))
            logits = rng.permutation(m).astype(float)  # strictly distinct
            remaining = list(range(m))
            oracle = []
            while remaining:
                best = max(remaining, key=lambda i: logits[i])
                oracle.append(best)
                remaining.remove(best)
            np.testing.assert_array_equal(rank_from_logits(logits), oracle)

    def test_argmax_placed_first(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            logits = rng.standard_normal(10)
            order = rank_from_logits(logits)
            items = apply_permutation(list(range(10)), order)
            assert items[0] == int(np.argmax(logits))


class TestApplyPermutation:
    def test_basic(self):
        assert apply_permutation(["a", "b", "c"], [2, 0, 1]) == ["c", "a", "b"]

    def test_identity(self):
        assert apply_permutation([1, 2, 3], [0, 1, 2]) == [1, 2, 3]

    def test_round_trip_with_inverse(self):
        rng = np.random.default_rng(2)
        items = list("abcdefgh")
        order = rng.permutation(8)
        inverse = np.argsort(order)
        assert apply_permutation(apply_permutation(items, order), inverse) == items

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_permutation([1, 2, 3], [0, 1])

    def test_invalid_permutation(self):
        with pytest.raises(InvalidPermutationError):
            apply_permutation([1, 2, 3], [0, 0, 2])

    def test_validate_rejects_non_integers(self):
        with pytest.raises(InvalidPermutationError):
            validate_permutation([0.5, 1.5])

    @pytest.mark.parametrize("order", [["a", "b"], [1e30, 0]])
    def test_validate_rejects_non_numbers_without_a_cast(self, order):
        # The first once raised numpy's bare ValueError; the second warned while casting.
        with pytest.raises(InvalidPermutationError):
            validate_permutation(order)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order", [np.array([1 + 0j, 0]), [1j, 0], np.array([0, 1], dtype=np.complex64)])
    def test_validate_rejects_complex_entries_without_a_cast(self, order):
        # numpy's cast to float would warn and drop the imaginary part.
        with pytest.raises(InvalidPermutationError, match="real numbers"):
            validate_permutation(order)

    @pytest.mark.parametrize(
        "order", [["1", "0"], np.array([b"1", b"0"]), np.array(["0", "1", "2"], dtype="U1")]
    )
    def test_validate_rejects_text_entries_without_parsing_them(self, order):
        # A cast to float64 once parsed numeric text into a valid permutation.
        with pytest.raises(InvalidPermutationError, match="real numbers"):
            validate_permutation(order)

    def test_apply_rejects_a_numeric_text_order(self):
        with pytest.raises(InvalidPermutationError, match="real numbers"):
            apply_permutation(["a", "b"], [" 1 ", "0.0"])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "order",
        [
            # In range and distinct, yet not integers: a range-plus-distinct
            # shortcut would accept it; only the sorted comparison does not.
            [0, 0.5, 2],
            np.array([0.0, 0.5, 2.0]),
            [0, float("nan"), 2],
            [0, 1, 2**70],
            [0, 1, 2 + 0j],
        ],
    )
    def test_validate_keeps_the_sorted_equals_arange_rule(self, order):
        with pytest.raises(InvalidPermutationError):
            validate_permutation(order)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, np.uint64, np.float32, np.float64])
    def test_validate_returns_fresh_int64_for_every_real_dtype(self, dtype):
        order = np.array([2, 0, 1], dtype=dtype)
        result = validate_permutation(order)
        assert result.dtype == np.int64
        assert result.tolist() == [2, 0, 1]
        result[0] = 7
        assert order.tolist() == [2, 0, 1]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.array([2, 0, 3, 1]),
            lambda: np.array([2.0, 0.0, 3.0, 1.0]),
            lambda: [2, 0, 3, 1],
        ],
        ids=["int64-array", "float-array", "list"],
    )
    def test_validate_never_sorts_or_writes_the_callers_order(self, make):
        order = make()
        result = validate_permutation(order)
        assert list(order) == list(make()) == [2, 0, 3, 1]
        assert not np.shares_memory(result, np.asarray(order))

    def test_validate_accepts_a_read_only_order(self):
        order = np.array([2, 0, 1])
        order.flags.writeable = False
        assert validate_permutation(order).tolist() == [2, 0, 1]


class TestSerialization:
    def test_permutation_serializes_as_index_array(self):
        import json

        order = rank_from_logits([0.2, 1.5, -0.3])
        assert json.loads(json.dumps(order.tolist())) == [1, 0, 2]
