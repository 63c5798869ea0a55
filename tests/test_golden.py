"""Golden outputs: reports at seed 0, pinned by sha256.

The determinism tests compare two runs of the same code; these pin the bytes
themselves, so a refactor that changes any report or table value fails here.
The hashes depend on numpy's PCG64 streams and float64 arithmetic; a change
to either is a deliberate report change and updates this table.
"""

import hashlib
import json

import pytest

from prunerank.cli import main

GOLDEN = {
    "verify-bounds": {
        "report.json": "935a93f4efb8a0679b1343bd69ff7ee5e6fc64ae0152e94949df946a80e4c67c",
        "tables/bound_tallies.csv": "54339e76d2760855aa5b2ba69b1354dee1024bbcf6db9d0a5180edceaacdc3c0",
    },
    "simulate": {
        "report.json": "fca93f8d066a489a72e72cd92fe97956b466f1346f8c2cbbbe7b707d4ee04aa0",
        "tables/pruning_comparison.csv": "a1fb174779b3ed16708b422f66e158aae03f018372d7d3240da686a88f6c6e7a",
        "tables/ranking_quality.csv": "132bf5f8efecd2cc32ab0051b8816559c296791c493c57b6a5cbce24ab97088a",
    },
    "cost-model": {
        "report.json": "57dbcfb108162a6a4119cd75bf495a938d67f7440766f02c9697d1a2a518a3d5",
        "tables/cost_sweep.csv": "ea2d7047c6c16f680e1280f9418a2093444e9154056633fb6d89a3000bd9ed05",
    },
}


# Small configs, each with its hashes; the first has more self-test trials
# than main trials.
GOLDEN_CONFIGS = {
    "verify-bounds-200-400": (
        "verify-bounds",
        {"trials": 200, "selftest_trials": 400},
        {
            "report.json": "b40fba95e6b3fee5feb526b26cff204a8793ced5c0ad9f37c1ad5623472ff3ff",
            "tables/bound_tallies.csv": "5a2eebc8e53233fc6b7dfd43ca48b246c52ee58d52763eb687c175cc4fcee783",
        },
    ),
}


def written_hashes(out):
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_outputs_match_golden_hashes(command, tmp_path):
    assert main([command, "--seed", "0", "--out", str(tmp_path)]) == 0
    assert written_hashes(tmp_path) == GOLDEN[command]


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_configured_outputs_match_golden_hashes(name, tmp_path):
    command, config, hashes = GOLDEN_CONFIGS[name]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--seed", "0", "--out", str(out)]) == 0
    assert written_hashes(out) == hashes
