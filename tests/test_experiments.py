import dataclasses
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunerank import experiments, pruning, synthetic
from prunerank.cli import DEFAULTS, _cmd_verify_bounds, _merge, _section_seeds, main
from prunerank.cost_model import ArchParams, WorkloadSpec, cost_report
from prunerank.errors import ConfigError, InvalidRatioError, NonFiniteError
from prunerank.experiments import (
    CHUNK_BYTES,
    _chunk_instances,
    report_json_bytes,
    run_correlation_probe,
    run_cost_sweep,
    run_pruning_comparison,
    run_synthetic_ranking,
    write_report,
)
from prunerank.synthetic import SyntheticConfig
from peak_memory import traced_peak
from test_simulate_oracle import RAGGED

RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9)


def verify_bounds(trials: int, seed: int, selftest_trials: int = 1, selftest_constant: float = 1.9) -> dict:
    """The report sections of verify-bounds at these trial counts and seed."""
    cfg = {"trials": trials, "selftest_trials": selftest_trials, "selftest_constant": selftest_constant}
    return _cmd_verify_bounds(_merge(DEFAULTS["verify-bounds"], cfg), seed)[0]


class TestBoundVerification:
    def test_zero_failures_across_all_checks(self):
        report = verify_bounds(trials=800, seed=123)["bounds"]
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
        report = verify_bounds(trials=800, seed=5)["bounds"]
        assert report["checks"]["topk_stability"]["premise_count"] > 50

    def test_equality_cases_are_exercised(self):
        report = verify_bounds(trials=800, seed=5)["bounds"]
        assert report["checks"]["score_sandwich"]["equality_checks"] > 100

    def test_reproducible_per_seed(self):
        a = verify_bounds(trials=50, seed=9)
        b = verify_bounds(trials=50, seed=9)
        assert a == b

    def test_corrupted_constant_is_detected(self):
        # Weakening the proven coefficient must produce visible violations,
        # proving the checker can actually fail.
        assert verify_bounds(1, 7, 400, 1.9)["selftest"]["failures_detected"] > 0

    def test_trials_validated(self):
        # Checked once, in cli._merge, before any tally runs.
        for override in ({"trials": 0}, {"selftest_trials": -1}):
            with pytest.raises(ConfigError, match="must be >= 1"):
                _merge(DEFAULTS["verify-bounds"], override)


class TestPruningComparison:
    def test_unit_ratio_retains_everything(self):
        cfg = SyntheticConfig(n_images=1, seed=1)
        report = run_pruning_comparison(cfg, [1.0], n_instances=50)
        assert report["t2i_retention"] == [1.0]
        assert report["random_retention"] == [1.0]

    def test_zero_noise_family(self):
        cfg = SyntheticConfig(n_images=1, tokens_per_image=(20, 20), noise_scale=0.0, seed=2)
        report = run_pruning_comparison(cfg, list(RATIOS), n_instances=600)
        for rho, t2i, rand in zip(RATIOS, report["t2i_retention"], report["random_retention"]):
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


def chunk_sizes(monkeypatch, run) -> list[int]:
    """The instances per chunk that each section run() starts sizes its chunks to."""
    sizes = []

    def spy(instance_floats):
        sizes.append(_chunk_instances(instance_floats))
        return sizes[-1]

    monkeypatch.setattr(experiments, "_chunk_instances", spy)
    run()
    return sizes


def stacked_bytes(monkeypatch) -> list[int]:
    """Patches the kernels the sections call, the cosine kernel where experiments
    calls it and where pruning's token score does; the list fills with the
    bytes of every query stack, token stack, similarity stack and softmax input."""
    sizes = []
    cosine, soft = experiments.cosine_to_unit, experiments.softmax

    def cosine_spy(query, V, *args, **kwargs):
        sims = cosine(query, V, *args, **kwargs)
        sizes.extend((query[0].nbytes, V.nbytes, sims.nbytes))
        return sims

    def softmax_spy(scores):
        sizes.append(scores.nbytes)
        return soft(scores)

    monkeypatch.setattr(experiments, "cosine_to_unit", cosine_spy)
    monkeypatch.setattr(pruning, "cosine_to_unit", cosine_spy)
    monkeypatch.setattr(experiments, "softmax", softmax_spy)
    return sizes


def kept_bytes(monkeypatch) -> list[int]:
    """Patches _chunk; the list fills with the bytes each chunk's drawn tokens
    keep alive until the chunk is scored: the token array's own buffer, or
    for a view the whole array it views (its .base)."""
    sizes = []
    chunk = experiments._chunk

    def chunk_spy(*args):
        drawn, groups = chunk(*args)
        owner = drawn.tokens if drawn.tokens.base is None else drawn.tokens.base
        sizes.append(owner.nbytes)
        return drawn, groups

    monkeypatch.setattr(experiments, "_chunk", chunk_spy)
    return sizes


class TestChunks:
    def test_default_config_chunk_sizes(self, monkeypatch):
        syn = SyntheticConfig(**DEFAULTS["simulate"]["synthetic"])
        assert CHUNK_BYTES == 1 << 20
        # Per instance, in float64s: one 20 x 16 image, a 4 x 16 query and 4 x 20
        # similarities (464), plus 4 x 20 head noise in the correlation (544);
        # eight images in the ranking (2 560 + 64 + 640).
        runs = (
            lambda: run_pruning_comparison(syn, RATIOS, n_instances=1),
            lambda: run_correlation_probe(syn, n_instances=1),
            lambda: run_synthetic_ranking(syn, n_instances=1),
        )
        assert [chunk_sizes(monkeypatch, run) for run in runs] == [[282], [240], [40]]

    def test_default_config_chunks_keep_their_budget(self, monkeypatch):
        """A chunk's stacks, and what its drawn tokens keep alive, each fit
        CHUNK_BYTES. The comparison and the probe draw each instance's block
        of all eight images into scratch and keep a copy of the relevant
        image, so their token arrays hold one image per instance."""
        syn = SyntheticConfig(**DEFAULTS["simulate"]["synthetic"])
        kept = kept_bytes(monkeypatch)
        stacks = stacked_bytes(monkeypatch)
        run_pruning_comparison(syn, RATIOS, n_instances=300)
        run_correlation_probe(syn, n_instances=250)
        run_synthetic_ranking(syn, n_instances=50)
        assert len(kept) == 2 + 2 + 2
        assert max(kept) <= CHUNK_BYTES
        assert max(stacks) <= CHUNK_BYTES

    def test_ragged_sizes_count_the_largest_image(self):
        syn = SyntheticConfig(n_images=3, tokens_per_image=(2, 64), embed_dim=8, n_query_tokens=2)
        assert experiments._stacked_floats(syn, 64) == 64 * 8 + 2 * 8 + 2 * 64
        assert _chunk_instances(experiments._stacked_floats(syn, 64)) == CHUNK_BYTES // (8 * 656)

    def test_an_instance_past_the_budget_is_a_chunk_of_its_own(self):
        syn = SyntheticConfig(tokens_per_image=(4000, 4000), embed_dim=512)
        assert _chunk_instances(experiments._stacked_floats(syn, 4000)) == 1
        assert _chunk_instances(experiments._stacked_floats(syn, syn.n_images * 4000)) == 1

    def test_many_heads_keep_each_noise_stack_within_the_budget(self, monkeypatch):
        # 10**4 heads of 4 tokens: 40 000 noise floats per instance, 3 per chunk.
        syn = SyntheticConfig(n_images=2, tokens_per_image=(4, 4), seed=1)
        sizes = stacked_bytes(monkeypatch)
        run_correlation_probe(syn, n_instances=10, n_heads=10**4)
        assert len(sizes) == 4 * 4
        assert max(sizes) <= CHUNK_BYTES

    def test_many_query_tokens_keep_each_query_and_similarity_stack_within_the_budget(self, monkeypatch):
        # 10**4 query rows of width 4: 40 000 query floats per instance.
        syn = SyntheticConfig(n_images=2, tokens_per_image=(2, 2), embed_dim=4, n_query_tokens=10**4, seed=2)
        sizes = stacked_bytes(monkeypatch)
        run_pruning_comparison(syn, RATIOS, n_instances=6)
        run_correlation_probe(syn, n_instances=6)
        run_synthetic_ranking(syn, n_instances=3)
        assert len(sizes) == 3 * 3 + 4 * 3 + 3 * 3
        assert max(sizes) <= CHUNK_BYTES

    @pytest.mark.parametrize("section", ["comparison", "correlation", "ranking"])
    def test_chunk_size_leaves_each_section_unchanged(self, monkeypatch, section):
        """A ragged run gives the same result at one and three instances per chunk
        as in its one default chunk of several shape groups: each instance's
        correlation noise is drawn in stream order, whatever the chunk."""
        high = RAGGED.tokens_per_image[1]
        instance_floats, run = {
            "comparison": (
                experiments._stacked_floats(RAGGED, high),
                lambda: run_pruning_comparison(RAGGED, RATIOS, n_instances=25),
            ),
            "correlation": (
                experiments._stacked_floats(RAGGED, high) + 4 * high,
                lambda: run_correlation_probe(RAGGED, n_instances=25, n_heads=4),
            ),
            "ranking": (
                experiments._stacked_floats(RAGGED, RAGGED.n_images * high),
                lambda: run_synthetic_ranking(RAGGED, n_instances=25),
            ),
        }[section]
        results, sizes = [], []
        for per_chunk in (None, 1, 3):
            if per_chunk is not None:
                monkeypatch.setattr(experiments, "CHUNK_BYTES", per_chunk * 8 * instance_floats)
            sizes.append(chunk_sizes(monkeypatch, lambda: results.append(run())))
        assert sizes[0][0] >= 25 and sizes[1:] == [[1], [3]]
        assert results[1:] == [results[0]] * 2

    @pytest.mark.parametrize("section", ["comparison", "correlation", "ranking"])
    def test_a_section_frees_each_chunk_before_generating_the_next(self, monkeypatch, section):
        """Every stack a chunk scored is gone by the time the next chunk's
        instances are drawn; checked holds, per instance drawn, how many
        stacks had been scored before its chunk was."""
        syn = SyntheticConfig(n_images=3, tokens_per_image=(5, 9), seed=3)
        scored = []
        checked = []
        cosine, draw = experiments.cosine_to_unit, experiments._draw_chunk

        def cosine_spy(query, V, *args, **kwargs):
            scored.extend(weakref.ref(array) for array in (query[0], V, V.base) if array is not None)
            return cosine(query, V, *args, **kwargs)

        def draw_spy(cfg, generators, size, *args):
            checked.extend([len(scored)] * size)
            assert all(ref() is None for ref in scored)
            return draw(cfg, generators, size, *args)

        monkeypatch.setattr(experiments, "_chunk_instances", lambda instance_floats: 3)
        monkeypatch.setattr(experiments, "cosine_to_unit", cosine_spy)
        monkeypatch.setattr(pruning, "cosine_to_unit", cosine_spy)
        monkeypatch.setattr(experiments, "_draw_chunk", draw_spy)
        {
            "comparison": lambda: run_pruning_comparison(syn, RATIOS, n_instances=10),
            "correlation": lambda: run_correlation_probe(syn, n_instances=10),
            "ranking": lambda: run_synthetic_ranking(syn, n_instances=10),
        }[section]()
        assert len(checked) == 10 and checked[-1] > 0


def test_default_simulate_traced_peak_stays_below_its_bound(tmp_path):
    """Chunked simulate's memory: the default run's tracemalloc peak, after a
    first run has warmed every import and cache, stays below 2.25 MiB."""
    assert main(["simulate", "--seed", "0", "--out", str(tmp_path)]) == 0

    def simulate():
        assert main(["simulate", "--seed", "0", "--out", str(tmp_path)]) == 0

    assert traced_peak(simulate) < 2.25 * 2**20


def test_the_random_baseline_seeds_each_chunk_as_it_is_scored(monkeypatch):
    """The comparison draws a chunk's random-baseline seeds when it scores the
    chunk and adds up its counts as each chunk is scored, so its traced peak
    does not follow its instance count. In chunks of 48 instances at 20
    ratios, ten times the instances raise the peak by less than half of what
    one int64 seed per instance and ratio would take, and the second thousand
    instances by at most 8 KiB past the one int64 instance seed per instance
    drawn up front. A warm-up call first fills the caches a process allocates
    once."""
    syn = SyntheticConfig()
    ratios = [i / 20 for i in range(1, 21)]
    per_chunk = 48 * 8 * experiments._stacked_floats(syn, syn.tokens_per_image[1])
    monkeypatch.setattr(experiments, "CHUNK_BYTES", per_chunk)
    run_pruning_comparison(syn, ratios, 48)
    peaks = [traced_peak(lambda: run_pruning_comparison(syn, ratios, n)) for n in (200, 1000, 2000)]
    assert peaks[2] - peaks[0] < 2000 * len(ratios) * 8 / 2
    assert peaks[2] - peaks[1] - 8 * 1000 < 8 * 1024


def test_simulate_seeds_only_its_section_masters_from_an_int(monkeypatch, tmp_path):
    """A default simulate run calls numpy's default_rng only for its three
    section masters, from cli's section seeds. Every instance is drawn from a
    Generator seeded in bulk, and the random baseline draws without calling it."""
    calls, seeded = [], []
    default_rng, generators = np.random.default_rng, experiments._generators

    def spy(seed=None):
        calls.append(seed)
        return default_rng(seed)

    def generators_spy(seeds):
        seeded.extend(seeds.tolist())
        return generators(seeds)

    monkeypatch.setattr(np.random, "default_rng", spy)
    monkeypatch.setattr(experiments, "_generators", generators_spy)
    assert main(["simulate", "--seed", "0", "--out", str(tmp_path)]) == 0
    from_int = [seed for seed in calls if not isinstance(seed, np.random.Generator)]
    assert from_int == _section_seeds(0, 3)
    assert calls == from_int
    sim = DEFAULTS["simulate"]
    n_instances = sim["n_instances"] + sim["correlation"]["n_instances"] + sim["ranking"]["n_instances"]
    assert len(seeded) == n_instances


def path_calls(monkeypatch) -> dict:
    """The budgets the random baseline draws on each path: synthetic._floyd's
    arrays and numpy's own choice, through synthetic._random_keep."""
    calls = {"floyd": [], "numpy": []}
    floyd, keep = synthetic._floyd, synthetic._random_keep
    monkeypatch.setattr(synthetic, "_floyd", lambda *a: calls["floyd"].append(a[2]) or floyd(*a))
    monkeypatch.setattr(synthetic, "_random_keep", lambda *a: calls["numpy"].append(a[2]) or keep(*a))
    return calls


def test_the_default_random_baseline_draws_on_arrays_alone(monkeypatch, tmp_path):
    calls = path_calls(monkeypatch)
    assert main(["simulate", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert calls["numpy"] == [] and sorted(set(calls["floyd"])) == [2, 6, 10, 14, 18]


def test_budgets_past_the_array_bound_draw_through_numpy(monkeypatch):
    """At 200 tokens the budget 20 is drawn on arrays and 180 by numpy's choice."""
    calls = path_calls(monkeypatch)
    run_pruning_comparison(SyntheticConfig(tokens_per_image=(200, 200)), [0.1, 0.9], 64)
    assert set(calls["floyd"]) == {20} and set(calls["numpy"]) == {180}
    assert len(calls["numpy"]) == 64


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
        assert report["metrics"]["failure_counts"]["success"] == 60

    def test_noisy_instances_report_failures(self):
        cfg = SyntheticConfig(n_images=8, noise_scale=2.5, embed_dim=8, seed=9)
        report = run_synthetic_ranking(cfg, n_instances=80)
        counts = report["metrics"]["failure_counts"]
        assert sum(counts.values()) == 80
        assert report["metrics"]["recall@3"] >= report["metrics"]["recall@1"]

    def test_deterministic(self):
        cfg = SyntheticConfig(n_images=4, seed=10)
        assert run_synthetic_ranking(cfg, 30) == run_synthetic_ranking(cfg, 30)


def sweep_workload(n_text, n_query, beta):
    """A workload whose image sizes and rho every sweep row replaces."""
    return WorkloadSpec(
        n_text=n_text, image_sizes=((1, 1),), n_query=n_query, beta=beta, u_reason=0, rho=1.0
    )


class TestCostSweep:
    def test_grid_shape_and_monotonicity(self):
        arch = ArchParams(layers=2, width=32, c_score=0.0)
        sweep = run_cost_sweep(
            arch,
            sweep_workload(n_text=16, n_query=4, beta=1.0),
            tokens_per_candidate=64,
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
            arch, sweep_workload(n_text=16, n_query=4, beta=1.0), 64, [1.0], [10, 20]
        )
        assert all(row["speedup"] >= 1.0 for row in sweep["rows"])

    def test_each_row_is_the_cost_report_of_its_spec(self):
        arch = ArchParams(layers=3, width=16, c_att=2.0, c_score=0.5)
        workload = WorkloadSpec(
            n_text=7, image_sizes=((1, 1),), n_query=3, beta=0.7, u_reason=2, rho=1.0
        )
        sweep = run_cost_sweep(arch, workload, 45, [0.1, 0.3, 1.0], [1, 45])
        assert len(sweep["rows"]) == 6
        for row in sweep["rows"]:
            spec = dataclasses.replace(workload, rho=row["rho"], image_sizes=((45, row["k"]),))
            cost = cost_report(spec, arch)
            regimes = cost.pop("regime_estimates")
            assert row.keys() == {"k", "rho", "prefill_ratio", *cost}
            for key, value in cost.items():
                assert row[key] == value, key
            assert row["prefill_ratio"] == regimes["longcontext_prefill_ratio"]

    def test_longcontext_prefill_ratio_column(self):
        arch = ArchParams(layers=1, width=1, c_ffn=0.0, c_dec=0.0, c_score=0.0)
        sweep = run_cost_sweep(
            arch, sweep_workload(n_text=0, n_query=1, beta=0.0), 1000, [0.5], [20]
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
