import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunerank.cost_model import ArchParams
from prunerank.errors import ConfigError, InvalidRatioError, NonFiniteError
from prunerank.experiments import (
    report_json_bytes,
    run_bound_verification,
    run_correlation_probe,
    run_cost_sweep,
    run_pruning_comparison,
    run_synthetic_ranking,
    write_report,
)
from prunerank.synthetic import SyntheticConfig

RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9)


class TestBoundVerification:
    def test_zero_failures_across_all_checks(self):
        report, _ = run_bound_verification(trials=800, seed=123)
        assert set(report["checks"]) == {
            "score_sandwich",
            "topk_stability",
            "pruning_error_bound",
            "tail_gap_bound",
        }
        for check in report["checks"].values():
            assert check["trials"] == 800
            assert check["failures"] == 0
        assert report["total_failures"] == 0

    def test_stability_premise_actually_fires(self):
        report, _ = run_bound_verification(trials=800, seed=5)
        assert report["checks"]["topk_stability"]["premise_count"] > 50

    def test_equality_cases_are_exercised(self):
        report, _ = run_bound_verification(trials=800, seed=5)
        assert report["checks"]["score_sandwich"]["equality_checks"] > 100

    def test_reproducible_per_seed(self):
        a = run_bound_verification(trials=50, seed=9)
        b = run_bound_verification(trials=50, seed=9)
        assert a == b

    def test_corrupted_constant_is_detected(self):
        # Weakening the proven coefficient must produce visible violations,
        # proving the checker can actually fail.
        assert run_bound_verification(1, 7, 400, 1.9)[1] > 0

    def test_trials_validated(self):
        with pytest.raises(ConfigError):
            run_bound_verification(trials=0, seed=0)
        with pytest.raises(ConfigError):
            run_bound_verification(trials=1, seed=0, selftest_trials=-1)


class TestPruningComparison:
    def test_unit_ratio_retains_everything(self):
        cfg = SyntheticConfig(n_images=1, seed=1)
        report = run_pruning_comparison(cfg, [1.0], n_instances=50)
        assert report["t2i_retention"] == [1.0]
        assert report["random_retention"] == [1.0]

    def test_zero_noise_family(self):
        cfg = SyntheticConfig(n_images=1, tokens_per_image=(20, 20), noise_scale=0.0, seed=2)
        report = run_pruning_comparison(cfg, list(RATIOS), n_instances=600)
        for rho, t2i, rand in zip(
            report["keep_ratios"], report["t2i_retention"], report["random_retention"]
        ):
            assert t2i == 1.0
            assert rand == pytest.approx(rho, abs=0.05)
            assert t2i >= rand
        assert report["t2i_ge_random"]

    def test_random_retention_tracks_ratio_tightly(self):
        # With 20-token images, round(rho * 20) is exact, so random retention
        # is an unbiased estimate of rho; at 5000 instances it sits within 0.02.
        cfg = SyntheticConfig(n_images=1, tokens_per_image=(20, 20), noise_scale=0.0, seed=21)
        report = run_pruning_comparison(cfg, [0.5], n_instances=5000)
        assert report["t2i_retention"] == [1.0]
        assert report["random_retention"][0] == pytest.approx(0.5, abs=0.02)

    def test_retention_monotone_in_ratio(self):
        cfg = SyntheticConfig(n_images=1, seed=3)
        report = run_pruning_comparison(cfg, list(RATIOS), n_instances=600)
        rand = report["random_retention"]
        assert all(a <= b for a, b in zip(rand, rand[1:]))

    def test_deterministic(self):
        cfg = SyntheticConfig(n_images=2, seed=4)
        a = run_pruning_comparison(cfg, [0.3, 0.7], n_instances=40)
        b = run_pruning_comparison(cfg, [0.3, 0.7], n_instances=40)
        assert a == b

    def test_ratio_validation(self):
        with pytest.raises(InvalidRatioError):
            run_pruning_comparison(SyntheticConfig(), [0.5, 1.5], n_instances=5)


class TestCorrelationProbe:
    def test_reports_summary_statistics(self):
        cfg = SyntheticConfig(n_images=1, tokens_per_image=(30, 30), seed=5)
        report = run_correlation_probe(cfg, n_instances=50, n_heads=4, attention_noise=0.5)
        assert -1.0 <= report["spearman_min"] <= report["spearman_mean"] <= report["spearman_max"] <= 1.0

    def test_correlation_decays_with_head_noise(self):
        # With almost no head noise the simulated attention follows the smooth
        # pooling scores, which rank-correlate clearly (but not perfectly) with
        # the hard-max scores; heavy noise should wash the correlation out.
        cfg = SyntheticConfig(n_images=1, tokens_per_image=(30, 30), seed=6)
        low = run_correlation_probe(cfg, n_instances=30, n_heads=2, attention_noise=0.001)
        high = run_correlation_probe(cfg, n_instances=30, n_heads=2, attention_noise=20.0)
        assert low["spearman_mean"] > 0.5
        assert low["spearman_mean"] > high["spearman_mean"]

    def test_deterministic(self):
        cfg = SyntheticConfig(n_images=1, seed=7)
        a = run_correlation_probe(cfg, n_instances=20)
        b = run_correlation_probe(cfg, n_instances=20)
        assert a == b


class TestSyntheticRanking:
    def test_zero_noise_ranks_relevant_first(self):
        cfg = SyntheticConfig(n_images=6, noise_scale=0.0, seed=8)
        report = run_synthetic_ranking(cfg, n_instances=60)
        assert report["metrics"]["p@1"] == 1.0
        assert report["metrics"]["mean_rank"] == 1.0
        assert report["failure_taxonomy"]["counts"]["success"] == 60

    def test_noisy_instances_report_failures(self):
        cfg = SyntheticConfig(n_images=8, noise_scale=2.5, embed_dim=8, seed=9)
        report = run_synthetic_ranking(cfg, n_instances=80)
        counts = report["failure_taxonomy"]["counts"]
        assert sum(counts.values()) == 80
        assert report["metrics"]["recall@3"] >= report["metrics"]["recall@1"]

    def test_deterministic(self):
        cfg = SyntheticConfig(n_images=4, seed=10)
        assert run_synthetic_ranking(cfg, 30) == run_synthetic_ranking(cfg, 30)


class TestCostSweep:
    def test_grid_shape_and_monotonicity(self):
        arch = ArchParams(layers=2, width=32, c_score=0.0)
        sweep = run_cost_sweep(
            arch,
            n_text=16,
            tokens_per_candidate=64,
            n_query=4,
            beta=1.0,
            u_reason=0,
            rho_values=[0.5, 1.0],
            k_values=[10, 20, 40],
        )
        assert len(sweep["rows"]) == 6
        for rho in (0.5, 1.0):
            zips = [row["f_zip"] for row in sweep["rows"] if row["rho"] == rho]
            assert all(a <= b for a, b in zip(zips, zips[1:]))

    def test_unit_ratio_speedup_at_least_one(self):
        arch = ArchParams(layers=2, width=32, c_score=0.0)
        sweep = run_cost_sweep(
            arch, 16, 64, 4, beta=1.0, u_reason=0, rho_values=[1.0], k_values=[10, 20]
        )
        assert all(row["speedup"] >= 1.0 for row in sweep["rows"])

    def test_longcontext_prefill_ratio_column(self):
        arch = ArchParams(layers=1, width=1, c_ffn=0.0, c_dec=0.0, c_score=0.0)
        sweep = run_cost_sweep(
            arch, n_text=0, tokens_per_candidate=1000, n_query=1, beta=0.0,
            u_reason=0, rho_values=[0.5], k_values=[20],
        )
        assert sweep["rows"][0]["prefill_ratio"] == pytest.approx(4.0)


class IntSubclass(int):
    def __repr__(self):
        return "IntSubclass()"


class FloatSubclass(float):
    def __repr__(self):
        return "FloatSubclass()"


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# Control, non-ASCII and astral characters as well as plain ones.
TEXT = st.text(st.characters(codec=None), max_size=6) | st.sampled_from(["", "\x00\n\t\"\\", "é日\u2028🙂"])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | FINITE_FLOATS
    | st.sampled_from([-0.0, 0.0, 1e16, 1e-320, 5e-324, 1.7976931348623157e308])
    | TEXT
)
# Values json.dumps encodes that are not exact JSON types.
ODD_SCALARS = (
    st.builds(np.float64, FINITE_FLOATS)
    | st.builds(IntSubclass, st.integers())
    | st.builds(FloatSubclass, FINITE_FLOATS)
)


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(TEXT, children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.dictionaries(FINITE_FLOATS, children, max_size=3)
    )


JSON_TREES = st.recursive(SCALARS | ODD_SCALARS, containers, max_leaves=40)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")]) | st.builds(
    np.float64, st.sampled_from([float("nan"), float("inf")])
)


def poisoned(children):
    """Containers holding a non-finite value somewhere below."""
    return st.builds(
        lambda siblings, at, bad: siblings[:at] + [bad] + siblings[at:],
        st.lists(JSON_TREES, max_size=3),
        st.integers(0, 3),
        children,
    ) | st.builds(
        lambda siblings, key, bad: {**siblings, key: bad},
        st.dictionaries(TEXT, JSON_TREES, max_size=3),
        TEXT,
        children,
    )


class TestReportSerialization:
    @given(JSON_TREES)
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_indented_sorted_json_dumps(self, value):
        expected = json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert report_json_bytes(value) == expected.encode()

    @given(st.recursive(NON_FINITE, poisoned, max_leaves=6))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_at_any_depth_raises(self, value):
        with pytest.raises(NonFiniteError):
            report_json_bytes(value)

    def test_identical_dicts_identical_bytes(self):
        report = {"b": 1.5, "a": [1, 2, {"z": True, "y": None}]}
        assert report_json_bytes(report) == report_json_bytes(
            {"a": [1, 2, {"y": None, "z": True}], "b": 1.5}
        )

    def test_write_report_layout(self, tmp_path):
        path = write_report(
            tmp_path / "run",
            {"hello": 1},
            {"numbers": (["x", "y"], [[1, 2.5], [3, 4.5]])},
        )
        assert path.read_text().startswith("{")
        table = (tmp_path / "run" / "tables" / "numbers.csv").read_text().splitlines()
        assert table[0] == "x,y"
        assert table[1] == "1,2.5"
