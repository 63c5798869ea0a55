"""Golden outputs: reports at seed 0, pinned by sha256.

The determinism tests compare two runs of the same code; these pin the bytes
themselves, so a refactor that changes any report or table value fails here.
The hashes depend on numpy's PCG64 streams and float64 arithmetic; a change
to either is a deliberate report change and updates this table.
"""

import hashlib
import json
import os
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from prunerank.cli import main

GOLDEN = {
    "verify-bounds": {
        "report.json": "e20aebc16ac878ee8f8d529399adbe171f983144c1edd5cfe648135af0a3149c",
        "tables/bound_tallies.csv": "54339e76d2760855aa5b2ba69b1354dee1024bbcf6db9d0a5180edceaacdc3c0",
    },
    "simulate": {
        "report.json": "1c58cf16ffdedc843b8cfc8fb03bb0e9de40dd0bbe9dd6b8629b871d667286c3",
        "tables/pruning_comparison.csv": "a1fb174779b3ed16708b422f66e158aae03f018372d7d3240da686a88f6c6e7a",
        "tables/ranking_quality.csv": "132bf5f8efecd2cc32ab0051b8816559c296791c493c57b6a5cbce24ab97088a",
    },
    "cost-model": {
        "report.json": "f4a881191417fbb311373d91b51555047dc699df82137a985667a8f8887de8f4",
        "tables/cost_sweep.csv": "ea2d7047c6c16f680e1280f9418a2093444e9154056633fb6d89a3000bd9ed05",
    },
}


def seeded_judgments(seed: int = 11) -> list[dict]:
    """Judgments over subsets with non-ASCII names, ranked lists of 1 to 23 items
    from a pool of 30 (so some ground truth is unranked) and string or int ids."""
    rng = np.random.default_rng(seed)
    judgments = []
    for subset, ids in (("alpha", None), ("βeta", None), ("日本語 docs", "doc")):
        for _ in range(40):
            relevant = rng.choice(30, size=int(rng.integers(1, 5)), replace=False).tolist()
            ranked = rng.permutation(30)[: int(rng.integers(1, 24))].tolist()
            if ids:
                relevant, ranked = ([f"{ids}{i}" for i in items] for items in (relevant, ranked))
            judgments.append({"subset": subset, "relevant": relevant, "ranked": ranked})
    return judgments


# The query matrix simulate-explicit-query reads from its working directory.
QUERY_FILE = "query.json"
QUERY_EMBEDDING = {
    "rows": 3,
    "dim": 12,
    "data": np.random.default_rng(5).standard_normal(36).round(6).tolist(),
}

# Small configs, each with its hashes. verify-bounds-200-400 has more
# self-test trials than main trials; verify-bounds-131-70-zero runs past two
# chunk boundaries with a self-test constant of 0. The simulate entries draw
# images of varying size; simulate-explicit-query plants three exact query
# copies per relevant image, so their scores tie at 1.0. cost-model-ragged
# has images of five sizes; in cost-model-rho-0.3, rho * tokens is not an
# integer, so each image's keep count is rounded.
GOLDEN_CONFIGS = {
    "simulate-ragged-noisy": (
        "simulate",
        {
            "n_instances": 40,
            "keep_ratios": [0.05, 0.25, 0.5, 0.75, 1.0],
            "synthetic": {
                "n_images": 6,
                "tokens_per_image": [12, 30],
                "embed_dim": 8,
                "n_query_tokens": 3,
                "planted_per_image": 2,
                "noise_scale": 0.3,
            },
            "correlation": {"n_instances": 30, "n_heads": 3, "attention_noise": 0.7},
            "ranking": {"n_instances": 30, "noise_scale": 1.5, "k_values": [1, 2, 4]},
        },
        {
            "report.json": "5b51fb851963e067df76a5311812b8a84d0c79993ec602c54e6eeeafec74fa06",
            "tables/pruning_comparison.csv": "42e0aa952e7ceed79293c7e39fc061a407375f21111eb63209b7a469c193d884",
            "tables/ranking_quality.csv": "7a83643ed2c959ad85402a95e536650153a232bbaef238450cdc0d11eee468a7",
        },
    ),
    "simulate-explicit-query": (
        "simulate",
        {
            "n_instances": 30,
            "keep_ratios": [0.1, 0.35, 0.9],
            "synthetic": {"n_images": 5, "tokens_per_image": [12, 30], "planted_per_image": 3},
            "correlation": {"n_instances": 25, "n_heads": 3, "attention_noise": 0.4},
            "ranking": {"n_instances": 35, "noise_scale": 0.8, "k_values": [1, 3]},
            "query_embedding_path": QUERY_FILE,
        },
        {
            "report.json": "3f10d4a70051d9fe207e47d1817f326d26388b918c3e9340d41404774447c254",
            "tables/pruning_comparison.csv": "9f9c5d892c64e2160045955d0007bd6b16e0b34af280146cf81d984f49d5a930",
            "tables/ranking_quality.csv": "ac6c758fb043daa8d7e2e686942eeb15020699b45ae008f26c290827da5cae40",
        },
    ),
    "verify-bounds-200-400": (
        "verify-bounds",
        {"trials": 200, "selftest_trials": 400},
        {
            "report.json": "e6bca94917d768dd63dcfd8a97b23d51147da1918abcba305210fd972b659cdd",
            "tables/bound_tallies.csv": "5a2eebc8e53233fc6b7dfd43ca48b246c52ee58d52763eb687c175cc4fcee783",
        },
    ),
    "verify-bounds-131-70-zero": (
        "verify-bounds",
        {"trials": 131, "selftest_trials": 70, "selftest_constant": 0.0},
        {
            "report.json": "5d17b4fe9e0bef0ec56a48a2988fca9be2d6af48adc874a99bd6d7adcc713f32",
            "tables/bound_tallies.csv": "49a3636138743657822518c1e009268b51d603b64a361e9b697804a85119a415",
        },
    ),
    "cost-model-ragged": (
        "cost-model",
        {"workload": {"rho": 0.45, "image_sizes": [[1, 1], [7, 1], [333, 1], [1024, 1], [2, 1]]}},
        {
            "report.json": "54256f2f9a45658bb9ee5d2315b1aea0801eb0605f23af99341d594cbced2755",
            "tables/cost_sweep.csv": "ea2d7047c6c16f680e1280f9418a2093444e9154056633fb6d89a3000bd9ed05",
        },
    ),
    "cost-model-rho-0.3": (
        "cost-model",
        {"workload": {"rho": 0.3}},
        {
            "report.json": "2ed0ccadd188746f93e07820c6603f34ef98dadfc8fe3b8409b0314a4019379b",
            "tables/cost_sweep.csv": "ea2d7047c6c16f680e1280f9418a2093444e9154056633fb6d89a3000bd9ed05",
        },
    ),
    "metrics-judgments": (
        "metrics",
        {"k_values": [1, 3, 5, 25], "judgments": seeded_judgments()},
        {
            "report.json": "3945215af18a2ce717538f8b4cc1ee691676b4971a74e004d508fb4ee2502556",
            "tables/metrics_by_subset.csv": "6e4120c52b69563fef2ce77464f5348a865971a72550ebc280ded9d826c86687",
            "tables/failure_taxonomy.csv": "909748aca89384254081e9d375003ff9e4a2475617951a584b1174c9c1ff4dc0",
        },
    ),
}


def written_hashes(out):
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Each golden name's run, made once per module: (exit code, output directory).

    A configured run works in a directory of its own, which holds the query
    file simulate-explicit-query reads.
    """
    runs = {}

    def run(name):
        if name not in runs:
            root = tmp_path_factory.mktemp(name)
            out = root / "out"
            if name in GOLDEN:
                runs[name] = main([name, "--seed", "0", "--out", str(out)]), out
            else:
                command, config, _ = GOLDEN_CONFIGS[name]
                (root / QUERY_FILE).write_text(json.dumps(QUERY_EMBEDDING))
                config_path = root / "config.json"
                config_path.write_text(json.dumps(config))
                argv = [command, "--config", str(config_path), "--seed", "0", "--out", str(out)]
                with pytest.MonkeyPatch.context() as patch:
                    patch.chdir(root)
                    runs[name] = main(argv), out
        return runs[name]

    return run


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_outputs_match_golden_hashes(command, golden_run):
    code, out = golden_run(command)
    assert code == 0
    assert written_hashes(out) == GOLDEN[command]


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_configured_outputs_match_golden_hashes(name, golden_run):
    code, out = golden_run(name)
    assert code == 0
    assert written_hashes(out) == GOLDEN_CONFIGS[name][2]


# An old OpenBLAS core on one thread: its GEMM and dot kernels round
# differently from the ones OpenBLAS picks for this CPU.
OTHER_BLAS_KERNEL = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize(
    "command", ["simulate", "verify-bounds", "simulate-ragged-noisy", "simulate-explicit-query"]
)
def test_default_outputs_do_not_depend_on_the_blas_kernel(command, tmp_path):
    """The hashes hold under another BLAS kernel: the reports rest on no
    last-bit rounding of a GEMM or a dot. A process of its own, since OpenBLAS
    picks its kernel when it is loaded. The two configured simulate runs take
    the stacked GEMMs a fixed image size does not: shape groups of ragged
    images, and one explicit query broadcast against a stack."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **OTHER_BLAS_KERNEL, "PYTHONPATH": src}
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "prunerank", command, "--seed", "0", "--out", str(out)]
    expected = GOLDEN.get(command)
    if expected is None:
        argv[3], config, expected = GOLDEN_CONFIGS[command]
        (tmp_path / QUERY_FILE).write_text(json.dumps(QUERY_EMBEDDING))
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", "config.json"]
    result = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert written_hashes(out) == expected


# Report keys that may hold the value of the config leaf they are named like:
# perfbench/workloads.py pins every check's trial count.
ECHOES_ALLOWED = ("bounds.checks.*.trials",)


def leaf_values(tree, found=None) -> dict:
    """Every leaf of a config tree: its name and the values it holds anywhere."""
    found = {} if found is None else found
    for key, value in tree.items():
        if isinstance(value, dict):
            leaf_values(value, found)
        else:
            found.setdefault(key, []).append(value)
    return found


def echoes(tree, leaves, path=()):
    """Dotted paths of keys named like a config leaf that hold its value,
    outside `config` and outside list items."""
    for key, value in tree.items():
        where = path + (key,)
        if where == ("config",):
            continue
        if key in leaves and value in leaves[key]:
            yield ".".join(where)
        if isinstance(value, dict):
            yield from echoes(value, leaves, where)


@pytest.mark.parametrize("name", sorted(GOLDEN) + sorted(GOLDEN_CONFIGS))
def test_report_states_no_config_leaf_twice(name, golden_run):
    """The config echo is the one copy of every input; a result section that
    repeats one states the same fact twice."""
    _, out = golden_run(name)
    report = json.loads((out / "report.json").read_text())
    found = echoes(report, leaf_values(report["config"]))
    assert [path for path in found if not any(fnmatch(path, allowed) for allowed in ECHOES_ALLOWED)] == []
