import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from library_oracles import (
    GroundTruthNotRankedError,
    average_ranks,
    best_relevant_rank,
    classify_failure,
    ndcg_at_k,
    precision_at_1,
    recall_at_k,
)
from peak_memory import traced_peak
from prunerank.errors import (
    DegenerateConstantError,
    DimensionMismatchError,
    EmptyInputError,
    EmptyRelevantSetError,
    EmptySubsetError,
    KOutOfRangeError,
    NonFiniteError,
)
from prunerank.metrics import (
    CATASTROPHIC_MISS,
    FAILURE_LABELS,
    MODERATE_MISS,
    NEAR_MISS,
    SUCCESS,
    QueryJudgment,
    _average_ranks,
    _spearman_rows,
    aggregate,
    evaluate_judgments,
    spearman,
)

TEN_DOMAIN_RECALL1 = [61.6, 65.3, 64.1, 67.6, 65.7, 56.1, 70.6, 68.8, 76.1, 46.0]


def judgment(relevant, ranked):
    return QueryJudgment(relevant=frozenset(relevant), ranked=tuple(ranked))


class TestQueryJudgment:
    def test_a_frozenset_and_a_tuple_are_kept_as_given(self):
        relevant, ranked = frozenset({1, 2}), (2, 3, 1)
        j = QueryJudgment(relevant, ranked)
        assert j.relevant is relevant and j.ranked is ranked

    def test_other_collections_are_converted(self):
        j = QueryJudgment({1}, [1, 2])
        assert type(j.relevant) is frozenset and j.relevant == {1}
        assert type(j.ranked) is tuple and j.ranked == (1, 2)

    def test_frozen_with_slots(self):
        j = QueryJudgment({1}, [1])
        assert not hasattr(j, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            j.ranked = (2,)


class TestRecallAtK:
    def test_single_relevant_at_top(self):
        assert recall_at_k(judgment({3}, [3, 1, 2]), 1) == 1.0

    def test_partial_recall(self):
        assert recall_at_k(judgment({1, 4}, [1, 2, 3, 5, 6]), 3) == 0.5

    def test_k_beyond_list_uses_full_list(self):
        j = judgment({1, 4}, [1, 4, 2])
        assert recall_at_k(j, 100) == 1.0

    def test_k_must_be_positive(self):
        with pytest.raises(KOutOfRangeError):
            recall_at_k(judgment({1}, [1]), 0)

    def test_empty_relevant_rejected_at_construction(self):
        with pytest.raises(EmptyRelevantSetError):
            judgment(set(), [1, 2])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_k(self, seed):
        rng = np.random.default_rng(seed)
        universe = int(rng.integers(2, 30))
        ranked = rng.permutation(universe)
        relevant = rng.choice(universe, size=int(rng.integers(1, universe + 1)), replace=False)
        j = judgment(set(relevant.tolist()), ranked.tolist())
        values = [recall_at_k(j, k) for k in range(1, universe + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0


class TestAggregate:
    def test_micro_vs_macro(self):
        out = aggregate({"X": [1.0], "Y": [0.0, 0.0]})
        assert out["micro"] == pytest.approx(1 / 3)
        assert out["macro"] == pytest.approx(0.5)

    def test_ten_domain_macro(self):
        out = aggregate({f"domain_{i}": [v] for i, v in enumerate(TEN_DOMAIN_RECALL1)})
        assert out["macro"] == pytest.approx(64.2, abs=0.05)

    def test_single_subset_micro_equals_macro(self):
        out = aggregate({"only": [0.25, 0.75, 0.5]})
        assert out["micro"] == out["macro"] == pytest.approx(0.5)

    def test_equal_sized_subsets_micro_equals_macro(self):
        rng = np.random.default_rng(0)
        values = {name: rng.uniform(0, 1, size=7).tolist() for name in "abcd"}
        out = aggregate(values)
        assert out["micro"] == pytest.approx(out["macro"], abs=1e-12)

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubsetError):
            aggregate({"X": []})
        with pytest.raises(EmptySubsetError):
            aggregate({})


class TestPrecisionAtOne:
    def test_hit(self):
        assert precision_at_1(judgment({2}, [2, 1])) == 1.0

    def test_miss(self):
        assert precision_at_1(judgment({2}, [1, 2])) == 0.0

    def test_equals_recall_at_1_for_single_relevant(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            universe = int(rng.integers(1, 12))
            j = judgment({int(rng.integers(universe))}, rng.permutation(universe).tolist())
            assert precision_at_1(j) == recall_at_k(j, 1)

    def test_mean_is_complement_of_failure_rate(self):
        rng = np.random.default_rng(1)
        judgments = []
        for _ in range(500):
            universe = int(rng.integers(2, 15))
            ranked = rng.permutation(universe)
            relevant = {int(rng.integers(universe))}
            judgments.append(judgment(relevant, ranked.tolist()))
        p_at_1 = float(np.mean([precision_at_1(j) for j in judgments]))
        fail_fraction = float(
            np.mean([1.0 if j.ranked[0] not in j.relevant else 0.0 for j in judgments])
        )
        assert p_at_1 == pytest.approx(1.0 - fail_fraction, abs=1e-12)


class TestNdcgAtK:
    def test_relevant_at_top(self):
        assert ndcg_at_k(judgment({7}, [7, 1, 2]), 5) == 1.0

    def test_single_relevant_at_rank_two(self):
        expected = 1.0 / math.log2(3)
        assert ndcg_at_k(judgment({7}, [1, 7, 2]), 5) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.63093, abs=5e-6)

    def test_no_relevant_in_top_k(self):
        assert ndcg_at_k(judgment({9}, [1, 2, 3, 9]), 3) == 0.0

    def test_bounded_and_tight(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            universe = int(rng.integers(2, 20))
            ranked = rng.permutation(universe).tolist()
            relevant = set(
                rng.choice(universe, size=int(rng.integers(1, universe + 1)), replace=False).tolist()
            )
            j = judgment(relevant, ranked)
            k = int(rng.integers(1, universe + 1))
            value = ndcg_at_k(j, k)
            assert 0.0 <= value <= 1.0
            top = min(k, len(relevant))
            all_in_top = all(item in relevant for item in ranked[:top])
            assert (value == pytest.approx(1.0, abs=1e-12)) == all_in_top


def mean_rank_row(judgments):
    """The mean_rank field and unranked count evaluate_judgments reports for one subset."""
    row = evaluate_judgments({"all": judgments})["per_subset"]["all"]
    return row["mean_rank"], row["n_unranked"]


class TestMeanRank:
    def test_single_query_top(self):
        assert mean_rank_row([judgment({5}, [5, 1])]) == (1.0, 0)

    def test_two_queries(self):
        js = [judgment({1}, [0, 1, 2]), judgment({2}, [0, 1, 3, 2])]
        assert mean_rank_row(js) == (3.0, 0)

    def test_best_rank_when_multiple_relevant(self):
        j = judgment({"a", "b"}, ["x", "y", "a", "z", "w", "v", "b"])
        assert mean_rank_row([j]) == (3.0, 0)

    def test_unranked_ground_truth_rejected(self):
        """A query whose ground truth is not ranked is left out of the mean and counted."""
        assert mean_rank_row([judgment({9}, [1, 2, 3])]) == (None, 1)
        assert mean_rank_row([judgment({9}, [1, 2, 3]), judgment({2}, [0, 2])]) == (2.0, 1)


class TestClassifyFailure:
    @pytest.mark.parametrize(
        "rank,label",
        [
            (1, SUCCESS),
            (2, NEAR_MISS),
            (3, NEAR_MISS),
            (4, MODERATE_MISS),
            (5, MODERATE_MISS),
            (6, CATASTROPHIC_MISS),
            (100, CATASTROPHIC_MISS),
        ],
    )
    def test_buckets(self, rank, label):
        out = classify_failure(rank)
        assert out.label == label
        assert out.gt_best_rank == rank

    def test_invalid_rank(self):
        with pytest.raises(KOutOfRangeError):
            classify_failure(0)


class TestSpearman:
    def test_perfect_reversal(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_perfect_agreement(self):
        assert spearman([1.5, 2.5, 9.0], [10, 20, 90]) == 1.0

    def test_ties_match_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 25))
            x = rng.integers(0, 5, size=n).astype(float)  # heavy ties
            y = rng.integers(0, 5, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert spearman(x, y) == pytest.approx(_brute_spearman(x, y), abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = np.round(rng.standard_normal(n), 1)
            y = np.round(rng.standard_normal(n), 1)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            expected = scipy_stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(expected, abs=1e-10)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 3 * y + 7) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_average_ranks_equal_the_loop_on_tie_heavy_inputs(self, n):
        rng = np.random.default_rng(n)
        cases = [
            rng.integers(0, 3, size=n).astype(float),
            np.zeros(n),
            np.arange(n, dtype=float),
            np.repeat(rng.standard_normal(max(n // 3, 1)), 3)[:n],
            np.where(rng.random(n) < 0.5, -0.0, 0.0),  # -0.0 == 0.0 is one tie
        ]
        for x in cases:
            assert _average_ranks(x).tolist() == average_ranks(x).tolist()
        rows = [x for x in cases if x.size == n]  # the same cases as the rows of one array
        assert _average_ranks(np.stack(rows)).tolist() == [average_ranks(x).tolist() for x in rows]

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            spearman([1, 2], [1, 2, 3])

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateConstantError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_nan_input_rejected_as_non_finite(self):
        with pytest.raises(NonFiniteError):
            spearman([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0])


def _dot_spearman(x, y) -> float:
    """spearman as one row's loop once computed it: loop average ranks,
    np.add.reduce centring and np.dot products."""
    ra, rb = np.array(average_ranks(x)), np.array(average_ranks(y))
    ra -= np.add.reduce(ra) / ra.size
    rb -= np.add.reduce(rb) / rb.size
    denom = math.sqrt(float(np.dot(ra, ra)) * float(np.dot(rb, rb)))
    return float(np.clip(float(np.dot(ra, rb)) / denom, -1.0, 1.0))


class TestSpearmanRows:
    """_spearman_rows gives each row what spearman gives it alone, bit for bit."""

    @staticmethod
    def assert_rows_equal_spearman(x, y):
        values = _spearman_rows(x, y)
        assert values.tolist() == [spearman(a, b) for a, b in zip(x, y)]
        assert values.tolist() == [_dot_spearman(a, b) for a, b in zip(x, y)]

    @pytest.mark.parametrize("n", [2, 3, 8, 20, 129])
    def test_random_rows(self, n):
        rng = np.random.default_rng(n)
        self.assert_rows_equal_spearman(rng.standard_normal((40, n)), rng.standard_normal((40, n)))

    @pytest.mark.parametrize("n", [3, 20, 64])
    def test_rows_with_ties(self, n):
        """Two planted copies of one query row each score exactly 1.0, beside
        rounded scores that tie among themselves."""
        rng = np.random.default_rng(n)
        hard = np.round(rng.uniform(-1.0, 0.9, size=(30, n)), 1)
        for row in hard:
            row[rng.choice(n, size=2, replace=False)] = 1.0
        mass = np.round(rng.random((30, n)), 2)
        self.assert_rows_equal_spearman(hard, mass)

    def test_a_constant_row_raises_as_spearman_does(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
        for rows in (x, y):
            saved = rows[3].copy()
            rows[3] = 0.25
            with pytest.raises(DegenerateConstantError) as rows_error:
                _spearman_rows(x, y)
            with pytest.raises(DegenerateConstantError) as row_error:
                spearman(x[3], y[3])
            assert str(rows_error.value) == str(row_error.value)
            rows[3] = saved

    def test_one_column_raises_as_spearman_does(self):
        with pytest.raises(EmptyInputError, match="got 1$"):
            _spearman_rows(np.ones((4, 1)), np.ones((4, 1)))
        with pytest.raises(EmptyInputError, match="got 1$"):
            spearman([1.0], [2.0])


def _brute_spearman(x, y):
    """Independent oracle: explicit average ranks, then textbook Pearson."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(values):
            j = i
            while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = sum(range(i + 1, j + 2)) / (j - i + 1)
            for p in range(i, j + 1):
                out[order[p]] = avg
            i = j + 1
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


class TestEvaluateJudgments:
    def test_report_structure(self):
        js = {
            "alpha": [judgment({0}, [0, 1, 2]), judgment({1}, [0, 2, 1])],
            "beta": [judgment({2}, [2, 0, 1])],
        }
        out = evaluate_judgments(js, k_values=(1, 3))
        assert set(out["per_subset"]) == {"alpha", "beta"}
        assert out["per_subset"]["beta"]["recall@1"] == 1.0
        assert out["per_subset"]["alpha"]["recall@1"] == 0.5
        assert out["overall"]["recall@1"]["micro"] == pytest.approx(2 / 3)
        assert out["overall"]["recall@1"]["macro"] == pytest.approx(0.75)
        counts = out["failure_taxonomy"]["counts"]
        assert counts[SUCCESS] == 2 and counts[NEAR_MISS] == 1

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubsetError):
            evaluate_judgments({"x": []})


def reference_evaluation(judgments_by_subset, k_values):
    """evaluate_judgments by one call of each per-metric function per judgment."""
    values_by_metric = {}
    per_subset = {}
    counts = dict.fromkeys(FAILURE_LABELS, 0)
    unranked = 0
    for subset, judgments in judgments_by_subset.items():
        values = {}
        subset_counts = dict.fromkeys(FAILURE_LABELS, 0)
        subset_unranked = 0
        for j in judgments:
            for k in k_values:
                values.setdefault(f"recall@{k}", []).append(recall_at_k(j, k))
                values.setdefault(f"ndcg@{k}", []).append(ndcg_at_k(j, k))
            values.setdefault("p@1", []).append(precision_at_1(j))
            try:
                rank = best_relevant_rank(j)
            except GroundTruthNotRankedError:
                subset_unranked += 1
                continue
            values.setdefault("mean_rank", []).append(float(rank))
            subset_counts[classify_failure(rank).label] += 1
        per_subset[subset] = {
            "n_queries": len(judgments),
            "failure_counts": subset_counts,
            "n_unranked": subset_unranked,
            "mean_rank": None,
            **{metric: float(np.mean(v)) for metric, v in values.items()},
        }
        for metric, v in values.items():
            values_by_metric.setdefault(metric, {})[subset] = v
        for label in FAILURE_LABELS:
            counts[label] += subset_counts[label]
        unranked += subset_unranked
    n_classified = sum(counts.values())
    return {
        "per_subset": per_subset,
        "overall": {metric: aggregate(v) for metric, v in values_by_metric.items()},
        "failure_taxonomy": {
            "counts": counts,
            "fractions": {
                label: counts[label] / n_classified if n_classified else None
                for label in FAILURE_LABELS
            },
            "n_unranked": unranked,
        },
    }


ITEMS = st.integers(0, 12) | st.sampled_from(["a", "b", "c"])
JUDGMENTS = st.builds(
    judgment,
    st.sets(ITEMS, min_size=1, max_size=5),
    st.lists(ITEMS, min_size=1, max_size=14, unique=True),
)


class TestEvaluateJudgmentsMatchesPerMetricFunctions:
    @given(
        st.dictionaries(
            st.text(max_size=3), st.lists(JUDGMENTS, min_size=1, max_size=6), min_size=1, max_size=4
        ),
        st.lists(st.integers(1, 16), max_size=5, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_float_for_float(self, judgments_by_subset, k_values):
        out = evaluate_judgments(judgments_by_subset, k_values=k_values)
        expected = reference_evaluation(judgments_by_subset, k_values)
        assert out == expected
        # repr-equal floats are bit-equal floats
        assert json.dumps(out, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_long_lists_and_large_k(self):
        rng = np.random.default_rng(3)
        js = {
            name: [
                judgment(
                    rng.choice(300, size=int(rng.integers(1, 60)), replace=False).tolist(),
                    rng.permutation(300)[: int(rng.integers(1, 250))].tolist(),
                )
                for _ in range(30)
            ]
            for name in ("x", "y")
        }
        k_values = [1, 10, 100, 10**9]
        out = evaluate_judgments(js, k_values=k_values)
        expected = reference_evaluation(js, k_values)
        assert json.dumps(out, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize(
        "judgments_by_subset,k_values,error",
        [
            ({"x": [judgment({0}, [0])]}, [0], KOutOfRangeError),
            ({"x": [judgment({0}, [0])]}, [3, -1], KOutOfRangeError),
            ({"x": [judgment({0}, [0]), judgment({0}, [])]}, [1], EmptyInputError),
            ({"x": [judgment({0}, [0])], "y": []}, [1], EmptySubsetError),
            ({}, [1], EmptySubsetError),
        ],
    )
    def test_bad_input_raises_its_class(self, judgments_by_subset, k_values, error):
        with pytest.raises(error):
            evaluate_judgments(judgments_by_subset, k_values=k_values)


def benchmark_judgments(rng, n, ranked=20, ragged=False):
    """n judgments shaped like the small-cli benchmark's: 1-3 relevant items
    from a pool four items larger than a ranked list of `ranked` items (of 1
    to `ranked` items when ragged), so some queries rank nothing relevant."""
    pool = ranked + 4
    return [
        judgment(
            rng.choice(pool, size=int(rng.integers(1, 4)), replace=False).tolist(),
            rng.permutation(pool)[: int(rng.integers(1, ranked + 1)) if ragged else ranked].tolist(),
        )
        for _ in range(n)
    ]


class TestEvaluateJudgmentsAtBenchmarkScale:
    """The array evaluation, bit for bit against the per-judgment reference."""

    @staticmethod
    def assert_matches_reference(judgments_by_subset, k_values):
        out = evaluate_judgments(judgments_by_subset, k_values=k_values)
        expected = reference_evaluation(judgments_by_subset, k_values)
        assert json.dumps(out, sort_keys=True) == json.dumps(expected, sort_keys=True)
        return out

    def test_ten_subsets_of_a_thousand(self):
        rng = np.random.default_rng(0)
        js = {f"s{s}": benchmark_judgments(rng, 1000) for s in range(10)}
        self.assert_matches_reference(js, [1, 3, 5])

    def test_one_subset_past_the_reduction_buffer(self):
        # numpy reduces in 8 192-element buffers where it must cast or copy.
        rng = np.random.default_rng(1)
        self.assert_matches_reference({"all": benchmark_judgments(rng, 20_000)}, [1, 3, 5])

    def test_repeated_k(self):
        rng = np.random.default_rng(0)
        js = {name: benchmark_judgments(rng, 500, ragged=True) for name in ("a", "b")}
        with pytest.raises(KOutOfRangeError, match="each k must be given once"):
            evaluate_judgments(js, k_values=[3, 3, 1])

    def test_k_beyond_every_list(self):
        rng = np.random.default_rng(3)
        js = {name: benchmark_judgments(rng, 300, ragged=True) for name in ("a", "b", "c")}
        # 2**63, the largest k a metrics config may give, is past any int64.
        self.assert_matches_reference(js, [1, 21, 2**63])

    def test_one_long_list_and_a_large_k_take_memory_by_the_hits(self):
        """A (judgments x k) array would hold 10**7 entries here."""
        rng = np.random.default_rng(5)
        js = {"short": benchmark_judgments(rng, 1000), "long": [judgment({3, 9_000}, range(10_000))]}
        assert traced_peak(lambda: evaluate_judgments(js, k_values=[10_000])) < 4 * 2**20
        self.assert_matches_reference(js, [10_000])

    def test_a_subset_where_nothing_relevant_is_ranked(self):
        rng = np.random.default_rng(4)
        js = {
            "ranked": benchmark_judgments(rng, 200),
            "unranked": [judgment({100 + i}, rng.permutation(24)[:20].tolist()) for i in range(50)],
        }
        out = self.assert_matches_reference(js, [1, 3, 5])
        assert out["per_subset"]["unranked"]["mean_rank"] is None
        assert out["per_subset"]["unranked"]["n_unranked"] == 50
