import gc
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunerank import cli
from prunerank.cli import _MAXIMUMS, DEFAULTS, _merge, main
from prunerank.errors import ConfigError, PrunerankError
from prunerank.experiments import TABLES

from peak_memory import traced_peak

VERIFY_CFG = {"trials": 300, "selftest_trials": 200, "selftest_constant": 1.9}
SIMULATE_CFG = {
    "n_instances": 120,
    "keep_ratios": [0.3, 0.7],
    "synthetic": {"n_images": 3, "embed_dim": 8},
    "correlation": {"n_instances": 20},
    "ranking": {"n_instances": 30, "noise_scale": 1.0, "k_values": [1, 3]},
}


def write_config(tmp_path, name, payload):
    """Write payload as JSON, or as it is if it is already JSON text."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def never(*args, **kwargs):
    raise AssertionError("called after the input was known to be bad")


class TestVerifyBounds:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", VERIFY_CFG)
        code = run(["verify-bounds", "--config", cfg, "--seed", 3, "--out", tmp_path / "o"])
        assert code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["pass"] is True
        assert report["bounds"]["total_failures"] == 0
        assert report["selftest"]["failures_detected"] > 0
        table = (tmp_path / "o" / "tables" / "bound_tallies.csv").read_text().splitlines()
        assert table[0] == "check,trials,failures"
        assert len(table) == 5
        out = capsys.readouterr().out
        assert out.count("PASS") == 5

    def test_undetected_selftest_violation_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"trials": 1, "selftest_trials": 1, "selftest_constant": 1.99})
        assert run(["verify-bounds", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert json.loads((tmp_path / "o" / "report.json").read_text())["pass"] is False
        assert "FAIL selftest" in capsys.readouterr().out

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", VERIFY_CFG)
        run(["verify-bounds", "--config", cfg, "--seed", 11, "--out", tmp_path / "a"])
        run(["verify-bounds", "--config", cfg, "--seed", 11, "--out", tmp_path / "b"])
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"trails": 10})
        assert run(["verify-bounds", "--config", cfg, "--out", tmp_path / "o"]) == 2


class TestSimulate:
    def test_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", SIMULATE_CFG)
        code = run(["simulate", "--config", cfg, "--seed", 5, "--out", tmp_path / "o"])
        assert code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["pruning_comparison"]["t2i_ge_random"] is True
        assert report["pass"] is True
        assert report["pruning_comparison"]["t2i_retention"] == [1.0, 1.0]
        assert -1.0 <= report["correlation"]["spearman_mean"] <= 1.0
        assert "p@1" in report["ranking_quality"]["metrics"]
        table = (tmp_path / "o" / "tables" / "pruning_comparison.csv").read_text().splitlines()
        assert table[0] == "keep_ratio,strategy,retention"
        assert len(table) == 5

    def test_pruning_comparison_table_writes_each_ratio_as_a_float(self, tmp_path):
        # The table is built from the config's ratios and the two retention
        # lists; an integral ratio prints as 1.0, as the driver's float rows did.
        cfg = write_config(tmp_path, "cfg.json", {**SIMULATE_CFG, "keep_ratios": [0.3, 1]})
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
        comparison = json.loads((tmp_path / "o" / "report.json").read_text())["pruning_comparison"]
        table = (tmp_path / "o" / "tables" / "pruning_comparison.csv").read_text().splitlines()
        assert table == [
            "keep_ratio,strategy,retention",
            f"0.3,t2i,{comparison['t2i_retention'][0]!r}",
            f"0.3,random,{comparison['random_retention'][0]!r}",
            "1.0,t2i,1.0",
            "1.0,random,1.0",
        ]

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", SIMULATE_CFG)
        run(["simulate", "--config", cfg, "--seed", 5, "--out", tmp_path / "a"])
        run(["simulate", "--config", cfg, "--seed", 5, "--out", tmp_path / "b"])
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_seed_changes_report(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", SIMULATE_CFG)
        run(["simulate", "--config", cfg, "--seed", 5, "--out", tmp_path / "a"])
        run(["simulate", "--config", cfg, "--seed", 6, "--out", tmp_path / "b"])
        assert (tmp_path / "a" / "report.json").read_bytes() != (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_query_loaded_from_embedding_file(self, tmp_path):
        rng = np.random.default_rng(0)
        query_path = tmp_path / "query.json"
        query = {"rows": 4, "dim": 8, "data": rng.standard_normal(32).tolist()}
        query_path.write_text(json.dumps(query))
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {**SIMULATE_CFG, "query_embedding_path": str(query_path)},
        )
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["pruning_comparison"]["t2i_retention"] == [1.0, 1.0]
        # The loaded query replaces the sampled ones, so the correlation moves.
        sampled = write_config(tmp_path, "sampled.json", SIMULATE_CFG)
        assert run(["simulate", "--config", sampled, "--out", tmp_path / "s"]) == 0
        sampled_report = json.loads((tmp_path / "s" / "report.json").read_text())
        assert report["correlation"] != sampled_report["correlation"]

    def test_missing_embedding_file_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {**SIMULATE_CFG, "query_embedding_path": str(tmp_path / "missing.json")},
        )
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "embedding",
        [
            {"rows": 2, "dim": 2, "data": [1, 2, 3]},
            {"rows": 1, "dim": 2, "data": [1.0, float("nan")]},
            {"rows": 2.7, "dim": 2, "data": [1, 2, 3, 4]},
            {"rows": 1, "dim": 1, "data": [10**400]},
        ],
        ids=["wrong-length", "nan", "fractional-rows", "int-past-float-range"],
    )
    def test_malformed_embedding_file_is_a_config_error(self, tmp_path, capsys, embedding):
        query_path = tmp_path / "query.json"
        query_path.write_text(json.dumps(embedding))
        cfg = write_config(
            tmp_path, "cfg.json", {**SIMULATE_CFG, "query_embedding_path": str(query_path)}
        )
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "override",
        [{"keep_ratios": [0.5, 1.5]}, {"keep_ratios": [0]}, {"keep_ratios": [0.5, 1.0001]}],
    )
    def test_out_of_range_ratio_is_a_config_error(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, "cfg.json", {**SIMULATE_CFG, **override})
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ranking_rho_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {**SIMULATE_CFG, "ranking": {"rho": 0.5}})
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "unknown config.ranking key 'rho'" in capsys.readouterr().err

    def test_too_many_images_rejected_before_any_section(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("prunerank.cli.run_pruning_comparison", never)
        cfg = write_config(tmp_path, "cfg.json", {**SIMULATE_CFG, "synthetic": {"n_images": 27}})
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_k_value_0_rejected_before_any_section(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("prunerank.cli.run_pruning_comparison", never)
        ranking = {**SIMULATE_CFG["ranking"], "k_values": [3, 0]}
        cfg = write_config(tmp_path, "cfg.json", {**SIMULATE_CFG, "ranking": ranking})
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "config error:" in capsys.readouterr().err


ZERO_ROW_QUERY = "zero_row_query.json"
# Malformed configs that each once ended in a traceback with exit 1, or in
# exit 2 only after the work before the failing step had run.
BAD_INPUT_PROBES = {
    "verify-bounds-trials-0": ("verify-bounds", {"trials": 0}),
    "verify-bounds-selftest-trials-0": ("verify-bounds", {"selftest_trials": 0}),
    "simulate-ranking-k-0": (
        "simulate",
        {**SIMULATE_CFG, "ranking": {**SIMULATE_CFG["ranking"], "k_values": [0]}},
    ),
    "simulate-30-images": ("simulate", {**SIMULATE_CFG, "synthetic": {"n_images": 30}}),
    "simulate-one-token-images": (
        "simulate",
        {**SIMULATE_CFG, "synthetic": {"n_images": 3, "embed_dim": 8, "tokens_per_image": [1, 1]}},
    ),
    "simulate-zero-row-query": ("simulate", {**SIMULATE_CFG, "query_embedding_path": ZERO_ROW_QUERY}),
    "cost-model-rho-0": ("cost-model", {"workload": {"rho": 0}}),
    "cost-model-empty-context": ("cost-model", {"workload": {"n_text": 0, "n_vis": 0}}),
    "cost-model-zero-coefficients": (
        "cost-model",
        {"arch": {"c_att": 0, "c_ffn": 0, "c_dec": 0, "c_score": 0}},
    ),
    "cost-model-sweep-rho-2": ("cost-model", {"sweep": {"rho_values": [2]}}),
    "metrics-empty-subset": ("metrics", {"values_by_subset": {"a": []}}),
    "metrics-string-value": ("metrics", {"values_by_subset": {"a": ["x"]}}),
    "metrics-values-not-an-object": ("metrics", {"values_by_subset": [1]}),
    "metrics-null-value": ("metrics", {"values_by_subset": {"a": [1, None]}}),
    "metrics-nan-value": ("metrics", {"values_by_subset": {"a": [float("nan")]}}),
    "metrics-mean-overflows": ("metrics", {"values_by_subset": {"a": [1e308, 1e308]}}),
    "metrics-empty-relevant": ("metrics", {"judgments": [{"relevant": [], "ranked": [0, 1]}]}),
    "metrics-duplicate-ranked": ("metrics", {"judgments": [{"relevant": [0], "ranked": [0, 0]}]}),
    "metrics-k-0": ("metrics", {"k_values": [0], "judgments": [{"relevant": [0], "ranked": [0, 1]}]}),
    "metrics-judgments-not-a-list": ("metrics", {"judgments": 5}),
    # Evaluated as one id (JSON's NaN is one object), then refused by the digest.
    "metrics-nan-id": ("metrics", {"judgments": [{"relevant": [float("nan")], "ranked": [float("nan"), 1]}]}),
    "metrics-subset-not-a-string": (
        "metrics",
        {"judgments": [{"subset": [1], "relevant": [0], "ranked": [0, 1]}]},
    ),
    # Each once exited 0: true matched the relevant 1 (True == 1), and null matched itself.
    "metrics-true-item": ("metrics", {"judgments": [{"relevant": [1], "ranked": [True, 2]}]}),
    "metrics-null-item": ("metrics", {"judgments": [{"relevant": [None], "ranked": [None, 1]}]}),
    # Once scored in subset "all", the misspelt key ignored.
    "metrics-unknown-judgment-key": (
        "metrics",
        {"judgments": [{"subest": "a", "relevant": [0], "ranked": [0, 1]}]},
    ),
    "verify-bounds-nan-constant": ("verify-bounds", {"selftest_constant": float("nan")}),
    "verify-bounds-constant-1e308": ("verify-bounds", {"selftest_constant": 1e308}),
    "verify-bounds-constant-minus-1e308": ("verify-bounds", {"selftest_constant": -1e308}),
    "verify-bounds-constant-2": ("verify-bounds", {"selftest_constant": 2.0}),
    "verify-bounds-trials-null": ("verify-bounds", {"trials": None}),
    "simulate-ranking-k-empty": (
        "simulate",
        {**SIMULATE_CFG, "ranking": {**SIMULATE_CFG["ranking"], "k_values": []}},
    ),
    "simulate-0-heads": ("simulate", {**SIMULATE_CFG, "correlation": {"n_heads": 0}}),
    "simulate-negative-ranking-noise": (
        "simulate",
        {**SIMULATE_CFG, "ranking": {**SIMULATE_CFG["ranking"], "noise_scale": -1}},
    ),
    "simulate-ranking-0-instances": (
        "simulate",
        {**SIMULATE_CFG, "ranking": {**SIMULATE_CFG["ranking"], "n_instances": 0}},
    ),
    "simulate-empty-query-path": ("simulate", {**SIMULATE_CFG, "query_embedding_path": ""}),
    "cost-model-string-token-count": ("cost-model", {"workload": {"image_token_counts": ["a"]}}),
    "cost-model-disabled-sweep-k-0": ("cost-model", {"sweep": {"enabled": False, "k_values": [0]}}),
    "metrics-k-empty": ("metrics", {"k_values": [], "judgments": [{"relevant": [0], "ranked": [0, 1]}]}),
    "cost-model-disabled-sweep-negative-n-text": (
        "cost-model",
        {"sweep": {"enabled": False}, "workload": {"n_text": -1}},
    ),
    # A copy of a workload leaf that the sweep section no longer holds.
    "cost-model-sweep-negative-n-query": ("cost-model", {"sweep": {"n_query": -1}}),
    "metrics-ranked-a-string": ("metrics", {"judgments": [{"relevant": ["a"], "ranked": "abc"}]}),
    "metrics-relevant-an-object": (
        "metrics",
        {"judgments": [{"relevant": {"a": 1}, "ranked": ["a", "b"]}]},
    ),
    "metrics-int-mean-overflows": ("metrics", {"values_by_subset": {"a": [10**400]}}),
    # Past CPython's 4 300-digit int-to-string limit, so json.dumps cannot write it.
    "metrics-int-over-the-digit-limit": (
        "metrics",
        '{"values_by_subset": {"a": [1' + "0" * 5000 + "]}}",
    ),
    "cost-model-n-vis-overflows-a-float": ("cost-model", {"workload": {"n_vis": 10**4250}}),
    "cost-model-u-reason-overflows-a-float": ("cost-model", {"workload": {"u_reason": 10**4250}}),
    "cost-model-layers-overflow-a-float": ("cost-model", {"arch": {"layers": 10**4250}}),
    "cost-model-sweep-tokens-overflow-a-float": (
        "cost-model",
        {"sweep": {"tokens_per_candidate": 10**4250}},
    ),
    # Each once overflowed inside a simulate section, after the sections before it had run.
    "simulate-synthetic-noise-1e308": ("simulate", {"synthetic": {"noise_scale": 1e308}}),
    "simulate-ranking-noise-1e308": ("simulate", {"ranking": {"noise_scale": 1e308}}),
    "simulate-attention-noise-1e308": ("simulate", {"correlation": {"attention_noise": 1e308}}),
    # Each once ended in an OverflowError traceback: the squared prefill ratio
    # passed a float at n_text 0 and rho 1e-300.
    "cost-model-prefill-ratio-overflows": ("cost-model", {"workload": {"n_text": 0, "rho": 1e-300}}),
    "cost-model-sweep-prefill-ratio-overflows": (
        "cost-model",
        {"workload": {"n_text": 0}, "sweep": {"rho_values": [1e-300]}},
    ),
}
# Simulate sizes past their largest allowed value, by leaf: at 2**62 each once
# ended in numpy's "array is too big" traceback, or for n_heads ran without end.
OVERSIZED_LEAVES = {
    "n-instances": ("n_instances", lambda v: {"n_instances": v}),
    "ranking-n-instances": ("n_instances", lambda v: {"ranking": {"n_instances": v}}),
    "correlation-n-instances": ("n_instances", lambda v: {"correlation": {"n_instances": v}}),
    "n-heads": ("n_heads", lambda v: {"correlation": {"n_heads": v}}),
    "tokens-per-image": ("tokens_per_image", lambda v: {"synthetic": {"tokens_per_image": [2, v]}}),
    "embed-dim": ("embed_dim", lambda v: {"synthetic": {"embed_dim": v}}),
    "n-query-tokens": ("n_query_tokens", lambda v: {"synthetic": {"n_query_tokens": v}}),
}
for _name, (_leaf, _override) in OVERSIZED_LEAVES.items():
    BAD_INPUT_PROBES[f"simulate-{_name}-2**62"] = ("simulate", _override(2**62))
    BAD_INPUT_PROBES[f"simulate-{_name}-bound+1"] = ("simulate", _override(_MAXIMUMS[_leaf] + 1))


# A trial count of 2**63 once passed every check and then ran without end.
TRIAL_COUNT_LEAVES = ("trials", "selftest_trials")
for _leaf in TRIAL_COUNT_LEAVES:
    BAD_INPUT_PROBES[f"verify-bounds-{_leaf}-2**63"] = ("verify-bounds", {_leaf: 2**63})
    BAD_INPUT_PROBES[f"verify-bounds-{_leaf}-bound+1"] = ("verify-bounds", {_leaf: _MAXIMUMS[_leaf] + 1})


def _at(path: str, value) -> dict:
    """The override that sets the dotted path to value."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


# Cost-model leaves at 10**307, an int the finiteness rule accepts: each once
# ended in an OverflowError traceback when an exact int sum or product in the
# FLOPs helpers no longer converted to a float. beta at 1e308 made beta * k
# infinite before it was rounded to an int.
OVERFLOW_LEAVES = (
    "arch.layers", "arch.c_att", "arch.c_ffn", "arch.c_dec", "arch.c_score",
    "workload.n_text", "workload.beta", "workload.u_reason",
)
# At 10**307 each of these made the FLOPs infinite: the run exited 2, but its
# config error named no leaf.
INFINITE_FLOPS_LEAVES = ("arch.width", "workload.n_query")
# What a probe's config error must say: each single-leaf 10**307 probe names its leaf.
ERROR_TEXT = {
    "metrics-true-item": "judgment 0 items must be strings or numbers, got true",
    "metrics-null-item": "judgment 0 items must be strings or numbers, got null",
    "metrics-unknown-judgment-key": "unknown judgment 0 key 'subest'",
}
# Simulate sizes, each within its own bound, whose product sizes one
# allocation past cli._PRODUCT_FLOATS, by the allocation's name in that
# table. Each once passed _merge; the head noise one sizes a 10**8-float
# (800 MB) draw.
OVERSIZED_PRODUCTS = {
    "image block": {"synthetic": {"n_images": 26, "embed_dim": 10**4}},
    "query": {"synthetic": {"n_query_tokens": 10**4, "embed_dim": 300}},
    "head noise": {"correlation": {"n_heads": 10**4}, "synthetic": {"tokens_per_image": [2, 10**4]}},
    "similarities": {"synthetic": {"n_query_tokens": 10**4, "n_images": 26}},
}
for _name, _override in OVERSIZED_PRODUCTS.items():
    _probe = f"simulate-{_name.replace(' ', '-')}-product"
    BAD_INPUT_PROBES[_probe] = ("simulate", _override)
    ERROR_TEXT[_probe] = f"config makes the {_name} "
# A list leaf's entry, by command and dotted path: the leaf holding one entry
# more than cli._MAX_ITEMS allows once passed _merge. A 200 x 200 cost sweep
# wrote an 11 MB report.
LIST_LEAVES = {
    ("simulate", "keep_ratios"): 0.5,
    ("simulate", "ranking.k_values"): 1,
    ("cost-model", "sweep.rho_values"): 0.5,
    ("cost-model", "sweep.k_values"): 10,
    ("cost-model", "workload.image_sizes"): [1024, 20],
    ("metrics", "k_values"): 1,
}


def _list_of(command: str, path: str, n: int) -> dict:
    """The override that sets a LIST_LEAVES leaf to n entries made from its
    entry: n copies of an image size, which may repeat, else n distinct ones."""
    entry = LIST_LEAVES[command, path]
    if isinstance(entry, list):
        return _at(path, [entry] * n)
    return _at(path, [entry + i if isinstance(entry, int) else entry * (i + 1) / n for i in range(n)])


# Judgments, so that a metrics config would run without its bad list.
_JUDGED = {"metrics": {"judgments": [{"relevant": [0], "ranked": [0, 1]}]}}
for _command, _path in LIST_LEAVES:
    _probe = f"{_command}-{_path}-bound+1-entries"
    _bound = cli._MAX_ITEMS[_path.split(".")[-1]]
    BAD_INPUT_PROBES[_probe] = (_command, {**_JUDGED.get(_command, {}), **_list_of(_command, _path, _bound + 1)})
    ERROR_TEXT[_probe] = f"config.{_path} must hold at most {_bound} entries, got {_bound + 1}"
    # A repeated ratio or k once ran and stated its row or metric twice.
    if not _path.endswith("image_sizes"):
        _probe = f"{_command}-{_path}-repeated-entry"
        _entry = LIST_LEAVES[_command, _path]
        BAD_INPUT_PROBES[_probe] = (_command, {**_JUDGED.get(_command, {}), **_at(_path, [_entry, _entry])})
        ERROR_TEXT[_probe] = f"config.{_path} must hold each entry once, got {json.dumps([_entry, _entry])}"
# One random-pruning seed per instance and keep ratio: this config once passed
# _merge and sized a 10**8-entry (800 MB) seed table.
BAD_INPUT_PROBES["simulate-random-seed-table"] = (
    "simulate",
    {"n_instances": 10**6, "keep_ratios": [i / 100 for i in range(1, 101)]},
)
ERROR_TEXT["simulate-random-seed-table"] = "config.keep_ratios makes n_instances * len(keep_ratios) = 100000000 "
for _path in OVERFLOW_LEAVES + INFINITE_FLOPS_LEAVES:
    ERROR_TEXT[f"cost-model-{_path}-10**307"] = f"config.{_path} "
    BAD_INPUT_PROBES[f"cost-model-{_path}-10**307"] = ("cost-model", _at(_path, 10**307))
# workload.n_vis and workload.k were leaves until they became sums over
# workload.image_sizes; their probes stay, and a config that sets one fails.
for _path in ("workload.n_vis", "workload.k"):
    BAD_INPUT_PROBES[f"cost-model-{_path}-10**307"] = ("cost-model", _at(_path, 10**307))
BAD_INPUT_PROBES["cost-model-sweep.k_values-10**307"] = ("cost-model", _at("sweep.k_values", [10**307]))
BAD_INPUT_PROBES["cost-model-workload.beta-1e308"] = ("cost-model", _at("workload.beta", 1e308))
# tokens_per_candidate * k past a float, which no single-leaf run reaches.
BAD_INPUT_PROBES["cost-model-sweep-tokens-10**307-k-20"] = (
    "cost-model",
    {"sweep": {"tokens_per_candidate": 10**307, "k_values": [20]}},
)


def _label(value) -> str:
    """The JSON of value, its middle cut when longer than 20 characters."""
    text = json.dumps(value)
    return text if len(text) <= 20 else text[:9] + "..." + text[-8:]


# Rules that once had a second copy in a section constructor, a driver or a
# FLOPs helper (the simulate and cost-sweep drivers, SyntheticConfig,
# ArchParams, WorkloadSpec, prefill/decode/score_flops). cli._merge's leaf
# tables now hold the only copy, so each bad value must fail in _merge.
ONE_COPY_RULES = [
    ("verify-bounds", "selftest_trials", -1),
    ("simulate", "n_instances", 0),
    ("simulate", "keep_ratios", []),
    ("simulate", "keep_ratios", [0.5, 1.5]),
    ("simulate", "synthetic.n_images", 0),
    ("simulate", "synthetic.n_images", 27),
    ("simulate", "synthetic.embed_dim", 0),
    ("simulate", "synthetic.n_query_tokens", 0),
    ("simulate", "synthetic.planted_per_image", 0),
    ("simulate", "synthetic.noise_scale", -0.1),
    ("simulate", "correlation.n_instances", 0),
    ("simulate", "correlation.attention_noise", -0.5),
    ("cost-model", "arch.layers", 0),
    ("cost-model", "arch.width", 0),
    ("cost-model", "arch.c_att", -1.0),
    ("cost-model", "arch.c_ffn", -1.0),
    ("cost-model", "arch.c_dec", -1.0),
    ("cost-model", "arch.c_score", -1.0),
    ("cost-model", "workload.n_text", -1),
    ("cost-model", "workload.n_query", -1),
    ("cost-model", "workload.beta", -0.5),
    ("cost-model", "workload.u_reason", -1),
    ("cost-model", "workload.rho", 1.5),
    ("cost-model", "sweep.rho_values", []),
    ("cost-model", "sweep.k_values", []),
    ("cost-model", "sweep.k_values", [10, 0]),
    ("cost-model", "sweep.tokens_per_candidate", 0),
]
# The sweep's copies of workload leaves, gone since each sweep row is the
# checked workload with its rho and image sizes replaced, and the workload's
# own image leaves, gone since the workload is its image_sizes pairs. A config
# that still sets one must fail in _merge, not run with the value ignored.
REMOVED_SWEEP_LEAVES = [
    ("cost-model", "sweep.beta", -1.0),
    ("cost-model", "sweep.u_reason", -1),
]
REMOVED_WORKLOAD_LEAVES = [
    ("cost-model", "workload.n_vis", -1),
    ("cost-model", "workload.k", 0),
    ("cost-model", "workload.image_token_counts", [0] * 19 + [20480]),
]
REMOVED_LEAVES = REMOVED_SWEEP_LEAVES + REMOVED_WORKLOAD_LEAVES
for _command, _path, _value in ONE_COPY_RULES + REMOVED_LEAVES:
    BAD_INPUT_PROBES[f"{_command}-{_path}-{_label(_value)}"] = (_command, _at(_path, _value))
for _probe, (_command, _override) in BAD_INPUT_PROBES.items():
    if _command == "cost-model" and {"n_vis", "k", "image_token_counts"} & set(_override.get("workload", {})):
        ERROR_TEXT[_probe] = "unknown config.workload key"


@pytest.mark.parametrize("rule", ONE_COPY_RULES + REMOVED_LEAVES, ids=lambda rule: f"{rule[1]}={_label(rule[2])}")
def test_each_leaf_rule_fails_in_merge(rule):
    command, path, value = rule
    with pytest.raises(PrunerankError):
        _merge(DEFAULTS[command], _at(path, value))


def test_every_rule_table_key_is_a_leaf_of_the_defaults():
    """A misspelt key would drop its rule without a word: the tables are its only copy."""
    leaves = {path[-1] for command in DEFAULTS for path in leaf_paths(DEFAULTS[command])}
    tables = (cli._MINIMUMS, cli._MAXIMUMS, cli._BELOW, cli._MAX_ITEMS, cli._RATIOS, cli._SET_NULL_DEFAULTS)
    assert {key for table in tables for key in table} - leaves == set()


@pytest.mark.parametrize("leaf", TRIAL_COUNT_LEAVES)
def test_trial_counts_are_bounded_in_merge_before_any_allocation(leaf):
    bound = _MAXIMUMS[leaf]
    _merge(DEFAULTS["verify-bounds"], {leaf: bound})  # the bound itself is allowed
    for value in (bound + 1, 2**63):

        def merge():
            with pytest.raises(ConfigError, match=f"must be <= {bound}"):
                _merge(DEFAULTS["verify-bounds"], {leaf: value})

        assert traced_peak(merge) < 64 * 1024


@pytest.mark.parametrize("name", OVERSIZED_LEAVES)
def test_simulate_sizes_are_bounded_in_merge(name):
    leaf, override = OVERSIZED_LEAVES[name]
    bound = _MAXIMUMS[leaf]
    _merge(DEFAULTS["simulate"], override(bound))  # the bound itself is allowed
    for value in (bound + 1, 2**62):
        with pytest.raises(ConfigError, match=f"must be <= {bound}"):
            _merge(DEFAULTS["simulate"], override(value))


@pytest.mark.parametrize("name", OVERSIZED_PRODUCTS)
def test_simulate_products_are_bounded_in_merge(name):
    with pytest.raises(ConfigError, match=f"the {name} .* floats, more than {cli._PRODUCT_FLOATS}"):
        _merge(DEFAULTS["simulate"], OVERSIZED_PRODUCTS[name])


def test_a_product_at_the_bound_is_allowed():
    assert 10**4 * 200 == cli._PRODUCT_FLOATS
    _merge(DEFAULTS["simulate"], {"synthetic": {"n_query_tokens": 10**4, "embed_dim": 200}})


@pytest.mark.parametrize("command, path", LIST_LEAVES)
def test_list_lengths_are_bounded_in_merge(command, path):
    bound = cli._MAX_ITEMS[path.split(".")[-1]]
    _merge(DEFAULTS[command], _list_of(command, path, bound))  # the bound itself is allowed
    with pytest.raises(ConfigError, match=rf"^config\.{path} must hold at most {bound} entries, got {bound + 1}$"):
        _merge(DEFAULTS[command], _list_of(command, path, bound + 1))


def test_the_random_seed_table_is_bounded_in_merge():
    """n_instances at its bound passes with the default keep ratios, and not with one more."""
    n_instances = _MAXIMUMS["n_instances"]
    assert n_instances * len(DEFAULTS["simulate"]["keep_ratios"]) == cli._MAX_SEEDS
    _merge(DEFAULTS["simulate"], {"n_instances": n_instances})
    with pytest.raises(ConfigError, match=rf"^config\.keep_ratios makes .* = {cli._MAX_SEEDS + n_instances} seeds"):
        _merge(DEFAULTS["simulate"], {"n_instances": n_instances, "keep_ratios": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]})


def test_a_query_file_is_held_to_the_product_bounds(tmp_path, capsys, monkeypatch):
    """The query file sets n_query_tokens and embed_dim after _merge has run."""
    for step in STEPS:
        monkeypatch.setattr(f"prunerank.cli.{step}", never)
    query = write_config(tmp_path, "query.json", {"rows": 1, "dim": 20_000, "data": [1.0] * 20_000})
    cfg = write_config(tmp_path, "cfg.json", {"query_embedding_path": query})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "config error: the query of config.query_embedding_path makes the image block" in err


def shaped(default, value):
    """value in the shape of a leaf's default: a one-entry list where the default
    is a list, and each number of a pair where it is a list of pairs."""
    if not isinstance(default, list):
        return value
    return [[value] * len(default[0]) if isinstance(default[0], list) else value]


def test_cost_model_leaves_at_their_bounds_at_once_run_to_the_end(tmp_path):
    """The cost-model bounds leave room for every count and factor at its largest value."""
    override = {
        section: {key: shaped(default, _MAXIMUMS[key]) for key, default in leaves.items() if key in _MAXIMUMS}
        for section, leaves in DEFAULTS["cost-model"].items()
    }
    cfg = write_config(tmp_path, "cfg.json", override)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["cost-model", "--config", cfg, "--out", tmp_path / "o"]) == 0


# Probes whose bad value shows only in what a step computes from it (a
# zero-norm query row, zero pruned-pipeline FLOPs, an infinite prefill ratio),
# so that step may run; every other probe fails before any step.
FOUND_BY_A_STEP = {
    "simulate-zero-row-query",
    "cost-model-zero-coefficients",
    "cost-model-prefill-ratio-overflows",
    "cost-model-sweep-prefill-ratio-overflows",
}
TALLIES = ("_sandwich_tally", "_stability_tally", "_pruning_error_tally", "_tail_gap_tally")
STEPS = (
    "run_pruning_comparison",
    "run_correlation_probe",
    "run_synthetic_ranking",
    "run_cost_sweep",
    "cost_report",
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("probe", BAD_INPUT_PROBES)
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, monkeypatch, probe):
    command, override = BAD_INPUT_PROBES[probe]
    monkeypatch.chdir(tmp_path)
    for tally in TALLIES:
        monkeypatch.setattr(f"prunerank.cli.{tally}", never)
    if probe not in FOUND_BY_A_STEP:
        for step in STEPS:
            monkeypatch.setattr(f"prunerank.cli.{step}", never)
    Path(ZERO_ROW_QUERY).write_text(json.dumps({"rows": 2, "dim": 2, "data": [1, 0, 0, 0]}))
    cfg = write_config(tmp_path, "cfg.json", override)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "Traceback" not in err
    if probe in ERROR_TEXT:
        assert ERROR_TEXT[probe] in err


# A config error names the bad key and echoes only the start of it or its value.
LONG_BAD_VALUES = {
    "n-vis-4251-digits": ("cost-model", {"workload": {"n_vis": 10**4250}}),
    "image-sizes-4251-digits": ("cost-model", {"workload": {"image_sizes": [[10**4250, 1]]}}),
    "k-values-1999-ints-then-a-string": (
        "simulate",
        {**SIMULATE_CFG, "ranking": {**SIMULATE_CFG["ranking"], "k_values": [*range(1, 2000), "x"]}},
    ),
    "unknown-5000-character-key": ("cost-model", {"k" * 5000: 1}),
}


@pytest.mark.parametrize("probe", LONG_BAD_VALUES)
def test_config_error_echo_is_capped(tmp_path, capsys, monkeypatch, probe):
    command, override = LONG_BAD_VALUES[probe]
    for step in STEPS:
        monkeypatch.setattr(f"prunerank.cli.{step}", never)
    cfg = write_config(tmp_path, "cfg.json", override)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert len(lines[0].encode()) < 300


# A name longer than the file system's limit once ended in an OSError
# traceback from the probe of --out, with exit 1.
@pytest.mark.parametrize(
    "out",
    [
        "file",
        "file/sub",
        pytest.param("x" * 300, id="300-character-name"),
        pytest.param("x" * 300 + "/sub", id="300-character-name/sub"),
    ],
)
def test_out_under_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, out):
    monkeypatch.setattr("prunerank.cli.cost_report", never)
    (tmp_path / "file").write_text("")
    assert run(["cost-model", "--out", tmp_path / out]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "Traceback" not in err


# A path in the report's way under a usable --out once ended in a traceback
# with exit 1: IsADirectoryError for report.json, FileExistsError for tables.
@pytest.mark.parametrize(
    "name,make",
    [("report.json", Path.mkdir), ("tables", Path.touch)],
    ids=["report-json-is-a-directory", "tables-is-a-file"],
)
def test_out_that_cannot_hold_the_report_exits_2(tmp_path, capsys, name, make):
    (tmp_path / "o").mkdir()
    make(tmp_path / "o" / name)
    assert run(["cost-model", "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "config error: --out" in err
    assert "Traceback" not in err
    # The tables are written first and report.json last, so no report reads
    # like a finished run.
    assert not (tmp_path / "o" / "report.json").is_file()


def test_failed_rewrite_removes_the_previous_report(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["cost-model", "--out", out]) == 0
    (out / "tables" / "cost_sweep.csv").unlink()
    (out / "tables").rmdir()
    (out / "tables").touch()
    assert run(["cost-model", "--out", out]) == 2
    assert "config error: --out" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_a_run_removes_the_tables_it_does_not_write_and_nothing_else(tmp_path):
    out = tmp_path / "o"
    assert run(["cost-model", "--out", out]) == 0
    assert sorted(path.name for path in (out / "tables").iterdir()) == ["cost_sweep.csv"]
    (out / "tables" / "notes.csv").write_text("mine\n")
    (out / "notes.txt").write_text("mine too\n")
    cfg = write_config(tmp_path, "cfg.json", {"sweep": {"enabled": False}})
    assert run(["cost-model", "--config", cfg, "--out", out]) == 0
    assert "sweep" not in json.loads((out / "report.json").read_text())
    assert sorted(path.name for path in (out / "tables").iterdir()) == ["notes.csv"]
    assert (out / "tables" / "notes.csv").read_text() == "mine\n"
    assert sorted(path.name for path in out.iterdir()) == ["notes.txt", "report.json", "tables"]


def test_tables_lists_every_table_a_command_writes(tmp_path):
    """experiments.TABLES names every table, so a run can remove the stale ones."""
    runs = {
        "verify-bounds": VERIFY_CFG,
        "simulate": SIMULATE_CFG,
        "cost-model": {},
        "metrics": {"judgments": [{"relevant": [0], "ranked": [0, 1]}]},
        "metrics-values": {"values_by_subset": {"a": [1.0, 2.0]}},
    }
    written = set()
    for name, payload in runs.items():
        cfg = write_config(tmp_path, f"{name}.json", payload)
        out = tmp_path / name
        assert run([name.removesuffix("-values"), "--config", cfg, "--out", out]) == 0
        written |= {path.stem for path in (out / "tables").iterdir()}
    assert written == TABLES


# A valid config per command, so that the seed is the only bad input.
SEED_PROBE_CONFIGS = {
    "verify-bounds": VERIFY_CFG,
    "simulate": SIMULATE_CFG,
    "cost-model": {},
    "metrics": {"judgments": [{"relevant": [0], "ranked": [0, 1]}]},
}


@pytest.mark.parametrize("command", SEED_PROBE_CONFIGS)
def test_negative_seed_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    # verify-bounds and simulate once ended in SeedSequence's ValueError
    # traceback with exit 1; cost-model and metrics ran and exited 0.
    for step in (*STEPS, *TALLIES, "evaluate_judgments", "write_report"):
        monkeypatch.setattr(f"prunerank.cli.{step}", never)
    cfg = write_config(tmp_path, "cfg.json", SEED_PROBE_CONFIGS[command])
    assert run([command, "--config", cfg, "--seed", -1, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "config error: --seed must be >= 0, got -1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# Each command's own stdout lines at seed 0 on SEED_PROBE_CONFIGS.
STDOUT_LINES = {
    "verify-bounds": [
        "PASS score_sandwich: 300 trials, 0 failures",
        "PASS topk_stability: 300 trials, 0 failures",
        "PASS pruning_error_bound: 300 trials, 0 failures",
        "PASS tail_gap_bound: 300 trials, 0 failures",
        "PASS selftest: corrupted constant 1.9 detected 40 violations",
    ],
    "simulate": ["PASS t2i_ge_random"],
    "cost-model": ["f_base=1.607075e+14 f_zip=5.340322e+13 speedup=3.0093"],
    "metrics": [],
}


@pytest.mark.parametrize("command", STDOUT_LINES)
def test_stdout_is_the_command_lines_then_report_then_wall_time(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "cfg.json", SEED_PROBE_CONFIGS[command])
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 0
    *lines, wall = capsys.readouterr().out.splitlines()
    assert lines == [*STDOUT_LINES[command], f"report: {tmp_path / 'o' / 'report.json'}"]
    assert re.fullmatch(r"wall time: \d+\.\d\ds", wall)


@pytest.mark.parametrize("command", DEFAULTS)
def test_defaults_pass_their_own_rules(command):
    assert _merge(DEFAULTS[command], DEFAULTS[command]) == DEFAULTS[command]


@pytest.mark.parametrize("command", ["verify-bounds", "simulate", "cost-model"])
def test_readme_config_block_equals_defaults(command):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split(f"\n### {command}\n", 1)[1].split("\n### ", 1)[0]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == DEFAULTS[command]


def test_no_leaf_repeats_its_default_in_another_section():
    """A leaf two sections hold at one default is one knob in two copies: the
    command should read it from one section."""
    paths_by_leaf = {}
    for command in DEFAULTS:
        for path in leaf_paths(DEFAULTS[command]):
            default = json.dumps(leaf_section(DEFAULTS[command], path)[path[-1]])
            paths_by_leaf.setdefault((command, path[-1], default), []).append(".".join(path))
    assert [paths for paths in paths_by_leaf.values() if len(paths) > 1] == []


# The dead-knob guard: every leaf of these commands' defaults must change the
# report. Each leaf gets one valid value that differs from its default and from
# KNOB_BASE, which keeps the runs small.
KNOB_BASE = {
    "verify-bounds": {"trials": 50, "selftest_trials": 100},
    "simulate": {
        "n_instances": 40,
        "keep_ratios": [0.3, 0.7],
        "synthetic": {"n_images": 3, "embed_dim": 8},
        "correlation": {"n_instances": 10},
        "ranking": {"n_instances": 20, "k_values": [1, 3]},
    },
    "cost-model": {},
}
KNOB_VALUES = {
    "verify-bounds.trials": 100,
    "verify-bounds.selftest_trials": 200,
    "verify-bounds.selftest_constant": 1.5,
    "simulate.n_instances": 50,
    "simulate.keep_ratios": [0.2, 0.7],
    "simulate.synthetic.n_images": 4,
    "simulate.synthetic.tokens_per_image": [10, 30],
    "simulate.synthetic.embed_dim": 6,
    "simulate.synthetic.n_query_tokens": 2,
    "simulate.synthetic.planted_per_image": 2,
    "simulate.synthetic.noise_scale": 0.5,
    "simulate.correlation.n_instances": 15,
    "simulate.correlation.n_heads": 2,
    "simulate.correlation.attention_noise": 2.0,
    "simulate.ranking.n_instances": 30,
    "simulate.ranking.noise_scale": 0.5,
    "simulate.ranking.k_values": [1, 2],
    "cost-model.arch.layers": 16,
    "cost-model.arch.width": 2048,
    "cost-model.arch.c_att": 1.0,
    "cost-model.arch.c_ffn": 2.0,
    "cost-model.arch.c_dec": 1.0,
    "cost-model.arch.c_score": 1.0,
    "cost-model.workload.n_text": 256,
    "cost-model.workload.image_sizes": [[1023, 1], [1025, 1], [1024, 18]],
    "cost-model.workload.n_query": 16,
    "cost-model.workload.beta": 0.5,
    "cost-model.workload.u_reason": 100,
    "cost-model.workload.rho": 0.3,
    "cost-model.sweep.enabled": False,
    "cost-model.sweep.rho_values": [0.5, 1.0],
    "cost-model.sweep.k_values": [10, 20],
    "cost-model.sweep.tokens_per_candidate": 512,
}
# Report paths that echo a leaf under another name ("*" steps into every item
# of a list). A knob passes the guard only by a change beyond its echoes, so a
# dead knob cannot hide behind one.
KNOB_ECHOES = {
    "verify-bounds.selftest_trials": [("selftest", "trials")],
    "simulate.ranking.n_instances": [("ranking_quality", "metrics", "n_queries")],
    "cost-model.sweep.rho_values": [("sweep", "rows", "*", "rho")],
    "cost-model.sweep.k_values": [("sweep", "rows", "*", "k")],
}
# Leaves whose alternative value needs a file, each with the test that covers it.
KNOBS_COVERED_ELSEWHERE = {
    "simulate.query_embedding_path": "TestSimulate::test_query_loaded_from_embedding_file",
}


def leaf_paths(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


KNOBS = {
    ".".join((command, *path)): (command, path)
    for command in KNOB_BASE
    for path in leaf_paths(DEFAULTS[command])
}


def leaf_section(tree, path):
    """The dict that holds the leaf at path."""
    for key in path[:-1]:
        tree = tree[key]
    return tree


def without_key(tree, name):
    """The JSON tree with every key called name removed, at any depth."""
    if isinstance(tree, dict):
        return {key: without_key(value, name) for key, value in tree.items() if key != name}
    if isinstance(tree, list):
        return [without_key(value, name) for value in tree]
    return tree


def without_path(tree, path):
    """The JSON tree without the value at path, which may hold "*" steps."""
    head, rest = path[0], path[1:]
    if head == "*":
        return [without_path(item, rest) for item in tree]
    if not rest:
        return {key: value for key, value in tree.items() if key != head}
    return {key: without_path(value, rest) if key == head else value for key, value in tree.items()}


def without_echoes(report, name):
    """The report without every key named like the knob's leaf and its renamed echoes."""
    report = without_key(report, KNOBS[name][1][-1])
    for path in KNOB_ECHOES.get(name, []):
        report = without_path(report, path)
    return report


def knob_report(out_dir, command, cfg):
    out_dir.mkdir()
    path = write_config(out_dir, "cfg.json", cfg)
    assert run([command, "--config", path, "--out", out_dir / "o"]) in (0, 1)
    report = json.loads((out_dir / "o" / "report.json").read_text())
    del report["config"]
    return report


@pytest.fixture(scope="module")
def knob_base_reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("knob_base")
    return {
        command: knob_report(root / command, command, cfg) for command, cfg in KNOB_BASE.items()
    }


@pytest.mark.parametrize(
    "name", [name for name in KNOBS if name not in KNOBS_COVERED_ELSEWHERE]
)
def test_every_knob_changes_the_report(tmp_path, knob_base_reports, name):
    command, path = KNOBS[name]
    assert name in KNOB_VALUES, f"{name} has no alternative value in KNOB_VALUES"
    value = KNOB_VALUES[name]
    cfg = _merge(DEFAULTS[command], KNOB_BASE[command])
    section = leaf_section(cfg, path)
    assert value not in (leaf_section(DEFAULTS[command], path)[path[-1]], section[path[-1]])
    section[path[-1]] = value
    changed = knob_report(tmp_path / "changed", command, cfg)
    base = knob_base_reports[command]
    assert without_echoes(changed, name) != without_echoes(base, name), f"{name} changes nothing"


def test_knob_echoes_name_knobs_and_report_paths(knob_base_reports):
    for name, paths in KNOB_ECHOES.items():
        command = KNOBS[name][0]
        for path in paths:
            assert without_path(knob_base_reports[command], path) != knob_base_reports[command], path


class TestConfigTypes:
    @pytest.mark.parametrize(
        "command,override",
        [
            ("verify-bounds", {"trials": "10"}),
            ("verify-bounds", {"trials": 10.0}),
            ("verify-bounds", {"selftest_constant": True}),
            ("simulate", {"keep_ratios": [0.5, "0.3"]}),
            ("simulate", {"keep_ratios": 0.5}),
            ("simulate", {"query_embedding_path": ["query.json"]}),
            ("cost-model", {"sweep": {"enabled": 1}}),
        ],
    )
    def test_wrong_json_type_is_a_config_error(self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path, "cfg.json", override)
        assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_int_accepted_where_a_float_is_expected(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {**VERIFY_CFG, "selftest_constant": 1})
        assert run(["verify-bounds", "--config", cfg, "--out", tmp_path / "o"]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"]["selftest_constant"] == 1


class TestCostModel:
    def test_end_to_end_with_sweep(self, tmp_path):
        code = run(["cost-model", "--out", tmp_path / "o"])
        assert code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["cost"]["speedup"] > 1.0
        assert report["cost"]["f_base"] == pytest.approx(
            report["cost"]["f_zip"] * report["cost"]["speedup"], rel=1e-12
        )
        table = (tmp_path / "o" / "tables" / "cost_sweep.csv").read_text().splitlines()
        assert table[0].startswith("k,rho,")
        assert len(table) == 1 + 6 * 3

    # A sweep list size once built a k-entry tuple per row: 2**63 ended in an
    # OverflowError traceback and 10**7 ran for 11 s.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [10**7, 2**63])
    def test_huge_sweep_list_size_is_exact_and_fast(self, tmp_path, capsys, k):
        cfg = write_config(tmp_path, "cfg.json", {"sweep": {"k_values": [k], "rho_values": [0.5]}})
        start = time.perf_counter()
        code = run(["cost-model", "--config", cfg, "--out", tmp_path / "o"])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        [row] = json.loads((tmp_path / "o" / "report.json").read_text())["sweep"]["rows"]
        n_text = DEFAULTS["cost-model"]["workload"]["n_text"]
        tokens = DEFAULTS["cost-model"]["sweep"]["tokens_per_candidate"]
        assert row["k"] == k
        assert row["n_full"] == n_text + tokens * k
        # rho 0.5 keeps exactly half of each image's 1024 tokens.
        assert row["n_rho"] == float(n_text + tokens // 2 * k)

    def test_u_base_is_the_exact_integer(self, tmp_path):
        # The float product 3.0 * (2**62 + 1) is 3 * 2**62.
        workload = {"beta": 3, "image_sizes": [[1, 2**62 + 1]]}
        cfg = write_config(tmp_path, "cfg.json", {"workload": workload, "sweep": {"enabled": False}})
        assert run(["cost-model", "--config", cfg, "--out", tmp_path / "o"]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["cost"]["u_base"] == 3 * (2**62 + 1) == 13835058055282163715

    def test_integral_rho_reports_the_cost_of_its_float(self, tmp_path):
        costs = []
        for rho in (1, 1.0):
            out = tmp_path / str(rho)
            cfg = write_config(tmp_path, "cfg.json", {"workload": {"rho": rho}, "sweep": {"enabled": False}})
            assert run(["cost-model", "--config", cfg, "--out", out]) == 0
            costs.append(json.dumps(json.loads((out / "report.json").read_text())["cost"]))
        assert costs[0] == costs[1]

    def test_sweep_can_be_disabled(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"sweep": {"enabled": False}})
        assert run(["cost-model", "--config", cfg, "--out", tmp_path / "o"]) == 0
        assert not (tmp_path / "o" / "tables").exists()


class TestMetrics:
    def test_judgments_mode(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "k_values": [1, 3],
                "judgments": [
                    {"subset": "x", "relevant": [0], "ranked": [0, 1, 2]},
                    {"subset": "x", "relevant": [2], "ranked": [0, 1, 2]},
                    {"subset": "y", "relevant": [1], "ranked": [1, 0, 2]},
                ],
            },
        )
        assert run(["metrics", "--config", cfg, "--out", tmp_path / "o"]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["evaluation"]["overall"]["recall@1"]["macro"] == pytest.approx(0.75)
        lines = (tmp_path / "o" / "tables" / "metrics_by_subset.csv").read_text().splitlines()
        assert lines[0] == "metric,x,y,micro,macro"
        assert (tmp_path / "o" / "tables" / "failure_taxonomy.csv").exists()

    def test_values_mode(self, tmp_path):
        values = {"a": [1.0], "b": [0.0, 0.5]}
        cfg = write_config(tmp_path, "cfg.json", {"values_by_subset": values})
        assert run(["metrics", "--config", cfg, "--out", tmp_path / "o"]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["aggregate"]["macro"] == pytest.approx(0.625)
        assert report["aggregate"]["micro"] == pytest.approx(0.5)

    def test_config_required(self, tmp_path):
        assert run(["metrics", "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize(
        "config_text, code, steps",
        [
            ('{"judgments": [{"relevant": [0], "ranked": [0, 1]}]}', 0, 2),
            ('{"judgments": [{"relevant": [0], "ranked": [0, 1], "rank": 1}]}', 2, 2),
            ('{"judgments": [{"relevant": [0]', 2, 1),
        ],
        ids=["good", "bad-judgment", "malformed-json"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_collection_pauses_for_the_load_and_parse_and_is_restored(
        self, tmp_path, monkeypatch, config_text, code, steps, enabled
    ):
        """The config load and the judgment parse, as far as a run gets, run with the
        collector off; main may run in its caller's process, so it leaves the
        collector as it found it."""
        seen = []
        for name in ("_load_config", "_parse_judgments"):
            step = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda arg, step=step: seen.append(gc.isenabled()) or step(arg))
        cfg = write_config(tmp_path, "cfg.json", config_text)
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(["metrics", "--config", cfg, "--out", tmp_path / "o"]) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen == [False] * steps

    @staticmethod
    def judgments_digest(tmp_path, name, config_text):
        """The judgments digest of the report a metrics run writes for config_text."""
        cfg = write_config(tmp_path, f"{name}.json", config_text)
        assert run(["metrics", "--config", cfg, "--out", tmp_path / name]) == 0
        return json.loads((tmp_path / name / "report.json").read_text())["config"]["judgments"]

    def test_data_leaves_stand_as_digests_of_their_json(self, tmp_path):
        values = {"b": [0.5], "a": [1, 2]}
        judgments = [{"subset": "x", "relevant": [0], "ranked": [0, 1]}]
        cfg = write_config(tmp_path, "cfg.json", {"values_by_subset": values, "judgments": judgments})
        assert run(["metrics", "--config", cfg, "--out", tmp_path / "o"]) == 0
        config = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
        for key, value in (("values_by_subset", values), ("judgments", judgments)):
            text = json.dumps(value, sort_keys=True, separators=(",", ":"))
            assert config[key] == "sha256:" + hashlib.sha256(text.encode()).hexdigest()
        assert config["k_values"] == DEFAULTS["metrics"]["k_values"]

    def test_digest_ignores_whitespace_and_key_order(self, tmp_path):
        compact = '{"judgments":[{"subset":"x","relevant":[0],"ranked":[0,1]}]}'
        spaced = '{ "judgments" : [\n  { "ranked": [0, 1],\n    "relevant": [ 0 ], "subset": "x" } ] }\n'
        assert self.judgments_digest(tmp_path, "a", compact) == self.judgments_digest(tmp_path, "b", spaced)

    @pytest.mark.parametrize(
        "override,message",
        [
            ({"values_by_subset": {"a": [float("nan")]}}, "mean is nan"),
            ({"judgments": [{"relevant": [], "ranked": [float("nan"), 1]}]}, "at least one relevant item"),
        ],
    )
    def test_bad_data_raises_its_own_error_before_the_digest(self, tmp_path, capsys, override, message):
        cfg = write_config(tmp_path, "cfg.json", override)
        assert run(["metrics", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert message in capsys.readouterr().err

    def test_digest_changes_with_one_judgment(self, tmp_path):
        judgments = [{"relevant": [0], "ranked": [0, 1]}, {"relevant": [1], "ranked": [0, 1]}]
        changed = [judgments[0], {"relevant": [1], "ranked": [1, 0]}]
        digests = {
            self.judgments_digest(tmp_path, name, json.dumps({"judgments": value}))
            for name, value in (("base", judgments), ("changed", changed))
        }
        assert len(digests) == 2

    @pytest.mark.parametrize("n", [0, 1, cli._DIGEST_ENTRIES, cli._DIGEST_ENTRIES + 1, 3 * cli._DIGEST_ENTRIES - 1])
    def test_a_list_digested_in_parts_is_the_digest_of_its_json(self, n):
        value = [{"relevant": [i], "ranked": (i, "x", 0.5)} for i in range(n)]
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
        assert cli._digest(value) == "sha256:" + hashlib.sha256(text.encode()).hexdigest()

    def test_each_judgment_shares_its_ranked_tuple_with_the_config(self):
        """The parse swaps each entry's ranked list for the tuple its judgment
        holds, so the command keeps one copy; the digest reads it as the list."""
        raw = [
            {"relevant": [0], "ranked": [0, 1]},
            {"subset": "b", "relevant": ["x"], "ranked": ["x", 2.5, 7]},
            {"relevant": [1], "ranked": [2, 1]},
        ]
        digest = cli._digest(raw)
        by_subset = cli._parse_judgments(raw)
        parsed = [*by_subset["all"][:1], *by_subset["b"], *by_subset["all"][1:]]
        assert all(judgment.ranked is entry["ranked"] for judgment, entry in zip(parsed, raw, strict=True))
        assert cli._digest(raw) == digest

    def test_the_command_holds_each_judgment_once(self, tmp_path):
        """On 5,000 judgments the command's traced peak stays within twice the
        traced peak of loading its config alone (about 1.5 times here): the
        config, each judgment's relevant set beside a ranked tuple it shares
        with the config, and the digest's encoder a few hundred entries at a
        time. A second copy of every ranked list, held until the whole config
        was encoded at once, took it to about 2.5 times."""
        rng = np.random.default_rng(0)
        judgments = [
            {
                "subset": f"s{i % 10}",
                "relevant": rng.choice(24, size=int(rng.integers(1, 4)), replace=False).tolist(),
                "ranked": rng.permutation(24)[:20].tolist(),
            }
            for i in range(5000)
        ]
        cfg = write_config(tmp_path, "cfg.json", {"k_values": [1, 3, 5], "judgments": judgments})
        load_peak = traced_peak(lambda: cli._load_config(cfg))
        args = ["metrics", "--config", cfg, "--out", tmp_path / "o"]
        assert run(args) == 0  # warms every import and cache first

        def command():
            assert run(args) == 0

        assert traced_peak(command) < 2 * load_peak


# The generative exit-code guard: 1-3 leaves of a command's defaults set to a
# value of their own shape from FUZZ_NUMBERS or to one from FUZZ_SWAPS. Every
# run exits 0, 1 or 2, lets no exception but a PrunerankError out of the
# subcommand (main turns those into exit 2) and raises no warning. The counts
# the example does not set are pinned small, so a run takes milliseconds.
FUZZ_BASE = {
    "verify-bounds": {"trials": 20, "selftest_trials": 20},
    "simulate": {
        "n_instances": 5,
        "synthetic": {"n_images": 3, "embed_dim": 4},
        "correlation": {"n_instances": 3},
        "ranking": {"n_instances": 3},
    },
    "cost-model": {"sweep": {"rho_values": [0.5], "k_values": [10]}},
    "metrics": {"judgments": [{"relevant": [0], "ranked": [0, 1]}]},
}
FUZZ_NUMBER_POOL = [1, 0.5, 0, -1, 2**63, 10**6 + 1, 1e308, -1e308, 1e-300]
FUZZ_SWAP_POOL = [True, "x", "", [], [[1]], [1, "x"], {}, {"a": [1]}, None, 1, [1]]
FUZZ_NUMBERS = st.sampled_from(FUZZ_NUMBER_POOL)
FUZZ_SWAPS = st.sampled_from(FUZZ_SWAP_POOL)


def fuzz_mutation(command, path):
    """path with a number (a list of them where the default is a list, a list of
    number pairs where it is a list of pairs) or a type swap."""
    default = leaf_section(DEFAULTS[command], path)[path[-1]]
    same_shape = FUZZ_NUMBERS
    if isinstance(default, list):
        entry = FUZZ_NUMBERS
        if isinstance(default[0], list):
            entry = st.lists(FUZZ_NUMBERS, min_size=len(default[0]), max_size=len(default[0]))
        same_shape = st.lists(entry, min_size=1, max_size=3)
    return st.tuples(st.just(path), st.one_of(same_shape, FUZZ_SWAPS))


def merged_with(base, mutations):
    cfg = json.loads(json.dumps(base))
    for path, value in mutations:
        section = cfg
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
    return cfg


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", FUZZ_BASE)
def test_mutated_defaults_keep_the_exit_code_contract(fuzz_dir, command):
    leaves = st.sampled_from(list(leaf_paths(DEFAULTS[command])))
    mutations = st.lists(
        leaves.flatmap(lambda path: fuzz_mutation(command, path)),
        min_size=1,
        max_size=3,
        unique_by=lambda mutation: mutation[0],
    )

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(mutations)
    def check(mutations):
        cfg = write_config(fuzz_dir, f"{command}.json", merged_with(FUZZ_BASE[command], mutations))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--config", cfg, "--out", fuzz_dir / "o"])
        assert code in (0, 1, 2)

    check()


# The deterministic exit-code guard: every leaf of a command's defaults, one at
# a time, set to each number of the fuzzer's pool and to 10**8 and 10**307 (a
# one-element list of it where the default is a list), to each type swap, and
# where the default is a list, to LONG_LIST of its entries (a cost sweep of
# that many keep ratios once ran for seconds).
# The other leaves stay at FUZZ_BASE. Each run keeps the contract above and
# ends within the wall bound, which catches a run that exits 0 only after
# seconds of work.
CROSS_NUMBERS = [*FUZZ_NUMBER_POOL, 10**8, 10**307]
CROSS_WALL_S = 2.0
LONG_LIST = 10**5
# Lists of pairs with a pair of the wrong length or an entry that is not an
# int in [1, 2**63], fed where the default is a list of pairs.
BAD_PAIR_LISTS = [
    [[1024]], [[1024, 20, 1]], [[]], [1024, 20], [[0, 20]], [[1024, 0]], [[2**64, 1]],
    [[1e308, 1]], [[1.5, 2]], [[True, 1]], [["a", 1]],
]


def cross_values(default) -> list:
    """The hostile values for a leaf with this default, each once by its JSON."""
    values = [*(shaped(default, n) for n in CROSS_NUMBERS), *FUZZ_SWAP_POOL]
    if isinstance(default, list):
        values.append((default * LONG_LIST)[:LONG_LIST])
    if isinstance(default, list) and isinstance(default[0], list):
        values += BAD_PAIR_LISTS
    return list({json.dumps(value): value for value in values}.values())


@pytest.mark.parametrize("value", BAD_PAIR_LISTS, ids=_label)
def test_bad_image_sizes_fail_in_merge_naming_the_leaf(value):
    with pytest.raises(ConfigError, match=r"^config\.workload\.image_sizes "):
        _merge(DEFAULTS["cost-model"], _at("workload.image_sizes", value))


@pytest.mark.parametrize("command", FUZZ_BASE)
def test_every_leaf_at_every_hostile_value_keeps_the_exit_code_contract(tmp_path, command):
    escapes = []
    for path in leaf_paths(DEFAULTS[command]):
        for value in cross_values(leaf_section(DEFAULTS[command], path)[path[-1]]):
            cfg = write_config(tmp_path, "cfg.json", merged_with(FUZZ_BASE[command], [(path, value)]))
            start = time.perf_counter()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    outcome = run([command, "--config", cfg, "--out", tmp_path / "o"])
            except Exception as exc:  # anything but a PrunerankError escapes main
                outcome = repr(exc)
            seconds = time.perf_counter() - start
            if outcome not in (0, 1, 2) or seconds > CROSS_WALL_S:
                escapes.append(f"{'.'.join(path)}={_label(value)}: {str(outcome)[:80]} in {seconds:.2f}s")
    assert not escapes, "\n".join(escapes)


def bound_values(path) -> list:
    """A numeric cost-model leaf at its smallest and its largest value; a ratio
    at 1e-300, for the open end of (0, 1], and at 1."""
    key = path[-1]
    low, high = (1e-300, 1) if key in cli._RATIOS else (cli._MINIMUMS[key], _MAXIMUMS[key])
    default = leaf_section(DEFAULTS["cost-model"], path)[key]
    return [shaped(default, low), shaped(default, high)]


COST_BOUND_LEAVES = [
    path for path in leaf_paths(DEFAULTS["cost-model"]) if path[-1] in cli._RATIOS or path[-1] in _MAXIMUMS
]


def test_every_pair_of_cost_model_leaves_at_their_bounds_keeps_the_exit_code_contract(tmp_path):
    """Some values fail only together: the prefill ratio once overflowed into a
    traceback at rho 1e-300, but only with n_text 0, which no single-leaf run sets."""
    escapes = []
    for first, second in itertools.combinations(COST_BOUND_LEAVES, 2):
        for a, b in itertools.product(bound_values(first), bound_values(second)):
            mutations = [(first, a), (second, b)]
            cfg = write_config(tmp_path, "cfg.json", merged_with({}, mutations))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    outcome = run(["cost-model", "--config", cfg, "--out", tmp_path / "o"])
            except Exception as exc:  # anything but a PrunerankError escapes main
                outcome = repr(exc)
            if outcome not in (0, 2):
                labels = ", ".join(f"{'.'.join(path)}={_label(value)}" for path, value in mutations)
                escapes.append(f"{labels}: {str(outcome)[:80]}")
    assert not escapes, "\n".join(escapes)


def test_module_entry_point_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-m", "prunerank", "--help"], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "verify-bounds" in result.stdout


def test_the_thread_pool_is_imported_only_when_prune_images_runs(tmp_path):
    """CLI start-up stays lean: prune_images imports concurrent.futures when
    it is called, and a cost-model run never loads it."""
    code = "\n".join([
        "import sys, prunerank.cli",
        f"assert prunerank.cli.main(['cost-model', '--out', {str(tmp_path)!r}]) == 0",
        "print('pool after cost-model:', 'concurrent.futures' in sys.modules)",
        "import numpy as np",
        "from prunerank.pruning import prune_images",
        "prune_images(np.ones((1, 2)), [np.eye(2)], 0.5)",
        "print('pool after prune_images:', 'concurrent.futures' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "pool after cost-model: False" in result.stdout
    assert "pool after prune_images: True" in result.stdout
