"""Command-line entry points.

Four subcommands, each reading an optional JSON config, a seed and an output
directory, and writing report.json plus tables/*.csv:

  verify-bounds  randomized bound checks with pass/fail tallies
  simulate       pruning-strategy comparison, correlation probe, ranking quality
  cost-model     FLOPs for one workload plus optional rho/k sweeps
  metrics        metric tables from ranked judgments or raw per-subset values

A config is checked in full before any work: _merge holds the rules for each
value, keyed by its name, and each command builds its section objects
(SyntheticConfig, ArchParams, WorkloadSpec) before its first step.

Exit code 0 means every verification tally in the run passed and 1 that one
failed; any prunerank.errors error (bad config or input) prints
`config error:` to stderr and exits 2. Wall time is printed to stdout and
deliberately kept out of report.json so identical configs and seeds produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .cost_model import ArchParams, WorkloadSpec, cost_report
from .errors import ConfigError, PrunerankError
from .experiments import (
    ERROR_BOUND_CONSTANT,
    run_bound_verification,
    run_correlation_probe,
    run_cost_sweep,
    run_pruning_comparison,
    run_synthetic_ranking,
    write_report,
)
from .linalg import embedding_from_json
from .metrics import FAILURE_LABELS, QueryJudgment, aggregate, evaluate_judgments, finite_mean
from .pruning import as_keep_ratio
from .scoring import assign_identifiers
from .synthetic import SyntheticConfig

DEFAULTS: dict = {
    "verify-bounds": {
        "trials": 10000,
        "selftest_trials": 2000,
        "selftest_constant": 1.9,
    },
    "simulate": {
        "n_instances": 1000,
        "keep_ratios": [0.1, 0.3, 0.5, 0.7, 0.9],
        "synthetic": {
            "n_images": 8,
            "tokens_per_image": [20, 20],
            "embed_dim": 16,
            "n_query_tokens": 4,
            "planted_per_image": 1,
            "noise_scale": 0.0,
        },
        "correlation": {"n_instances": 200, "n_heads": 4, "attention_noise": 0.5},
        "ranking": {"n_instances": 300, "noise_scale": 1.0, "k_values": [1, 3, 5]},
        "query_embedding_path": None,
    },
    "cost-model": {
        "arch": {
            "layers": 32,
            "width": 4096,
            "c_att": 2.0,
            "c_ffn": 4.0,
            "c_dec": 2.0,
            "c_score": 2.0,
        },
        "workload": {
            "n_text": 512,
            "n_vis": 20480,
            "n_query": 32,
            "k": 20,
            "beta": 1.0,
            "u_reason": 0,
            "rho": 0.5,
            "image_token_counts": None,
        },
        "sweep": {
            "enabled": True,
            "rho_values": [0.1, 0.3, 0.5, 0.7, 0.9, 1.0],
            "k_values": [10, 20, 40],
            "n_text": 512,
            "tokens_per_candidate": 1024,
            "n_query": 32,
            "beta": 1.0,
            "u_reason": 0,
        },
    },
    "metrics": {
        "k_values": [1, 3, 5],
        "judgments": None,
        "values_by_subset": None,
    },
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            loaded = json.load(handle)
    except (OSError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError, a file that is not UTF-8 and
        # an int literal past CPython's int-to-string digit limit.
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return loaded


# JSON types a value may take where the default has the given Python type; an
# int is accepted where a float is expected.
_ACCEPTED_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), list: (list,)}

# The value a None default stands for when it is set. values_by_subset is not
# listed: it may hold any JSON and the metrics command checks it.
_SET_NULL_DEFAULTS = {"query_embedding_path": "", "image_token_counts": [1], "judgments": []}

# Leaf rules keyed by leaf name, which means the same thing in every section:
# the smallest value (of each item, for a list), an exclusive upper bound and
# the leaves holding keep ratios. tokens_per_image starts at 2 because the
# correlation probe rank-correlates each image's tokens; a selftest_constant
# at or above the proven coefficient cannot detect a violation.
_MINIMUMS = {
    "trials": 1, "selftest_trials": 1, "n_instances": 1, "n_heads": 1, "k_values": 1,
    "tokens_per_candidate": 1, "tokens_per_image": 2, "attention_noise": 0,
    "n_text": 0, "n_query": 0, "beta": 0, "u_reason": 0, "selftest_constant": 0,
}
_BELOW = {"selftest_constant": ERROR_BOUND_CONSTANT}
_RATIOS = {"keep_ratios", "rho", "rho_values"}


def _same_json_type(default, value) -> bool:
    if isinstance(value, bool) and not isinstance(default, bool):
        return False
    if not isinstance(value, _ACCEPTED_TYPES[type(default)]):
        return False
    if isinstance(default, list) and default:
        return all(_same_json_type(default[0], item) for item in value)
    return True


# A config error echoes at most this many characters of a bad key or value.
_ECHO_CHARS = 80


def _capped(text: str) -> str:
    """text cut to _ECHO_CHARS characters and "..." when longer."""
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."


def _is_finite(item) -> bool:
    """False for NaN, an infinity or an int too large to convert to a float."""
    try:
        return math.isfinite(item)
    except OverflowError:
        return False


def _check_leaf(key: str, default, value, where: str) -> None:
    """Raise unless an overriding value follows its default's type and its leaf's rules."""
    if default is None:
        default = _SET_NULL_DEFAULTS.get(key)
        if default is None or value is None:
            return
    if not _same_json_type(default, value):
        raise ConfigError(
            f"{where} must have the JSON type of its default {json.dumps(default)}, "
            f"got {_capped(json.dumps(value))}"
        )
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ConfigError(f"{where} must not be empty")
    if any(isinstance(item, (int, float)) and not _is_finite(item) for item in items):
        raise ConfigError(f"{where} must be finite, got {_capped(json.dumps(value))}")
    if key in _MINIMUMS and min(items) < _MINIMUMS[key]:
        raise ConfigError(f"{where} must be >= {_MINIMUMS[key]}, got {_capped(json.dumps(value))}")
    if key in _BELOW and max(items) >= _BELOW[key]:
        raise ConfigError(f"{where} must be < {_BELOW[key]}, got {_capped(json.dumps(value))}")
    if key in _RATIOS:
        for item in items:
            as_keep_ratio(item)


def _merge(defaults: dict, override: dict, context: str = "config") -> dict:
    """Overlay a user config on the defaults; the one check of every overriding value.

    The defaults are deep-copied, so a merged config never aliases DEFAULTS.
    Each checked override leaf is taken by reference, not copied: _load_config
    parses the override fresh for every run and nothing mutates a merged
    config, so a copy would only cost time (a 10 000-judgment list, say).
    """
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown {context} key {_capped(repr(key))}; known: {sorted(defaults)}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{context}.{key} must be a JSON object")
            merged[key] = _merge(defaults[key], value, f"{context}.{key}")
        else:
            _check_leaf(key, defaults[key], value, f"{context}.{key}")
            merged[key] = value
    return merged


def _tally_lines(checks: dict) -> list[str]:
    lines = []
    for name, check in checks.items():
        verdict = "PASS" if check["failures"] == 0 else "FAIL"
        lines.append(f"{verdict} {name}: {check['trials']} trials, {check['failures']} failures")
    return lines


def _cmd_verify_bounds(args) -> int:
    cfg = _merge(DEFAULTS["verify-bounds"], _load_config(args.config))
    bounds, selftest_failures = run_bound_verification(
        cfg["trials"], args.seed, cfg["selftest_trials"], cfg["selftest_constant"]
    )
    checks_pass = bounds["total_failures"] == 0
    selftest_pass = selftest_failures > 0
    report = {
        "command": "verify-bounds",
        "seed": args.seed,
        "config": cfg,
        "bounds": bounds,
        "selftest": {
            "constant": cfg["selftest_constant"],
            "trials": cfg["selftest_trials"],
            "failures_detected": selftest_failures,
            "pass": selftest_pass,
        },
        "pass": checks_pass and selftest_pass,
    }
    rows = [
        (name, check["trials"], check["failures"])
        for name, check in bounds["checks"].items()
    ]
    path = write_report(args.out, report, {"bound_tallies": (["check", "trials", "failures"], rows)})
    for line in _tally_lines(bounds["checks"]):
        print(line)
    verdict = "PASS" if selftest_pass else "FAIL"
    print(
        f"{verdict} selftest: corrupted constant {cfg['selftest_constant']} "
        f"detected {selftest_failures} violations"
    )
    print(f"report: {path}")
    return 0 if report["pass"] else 1


def _section_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)]


def _cmd_simulate(args) -> int:
    cfg = _merge(DEFAULTS["simulate"], _load_config(args.config))
    assign_identifiers(cfg["synthetic"]["n_images"])
    query = None
    syn = dict(cfg["synthetic"])
    if cfg["query_embedding_path"] is not None:
        query = embedding_from_json(_load_config(cfg["query_embedding_path"]))
        syn["n_query_tokens"], syn["embed_dim"] = query.shape
    ranking_cfg = dict(cfg["ranking"])
    ranking_syn = {**syn, "noise_scale": ranking_cfg.pop("noise_scale")}
    # Built, and so checked, before the first section runs.
    sections = [
        SyntheticConfig(**section_syn, seed=seed)
        for section_syn, seed in zip((syn, syn, ranking_syn), _section_seeds(args.seed, 3))
    ]
    comparison = run_pruning_comparison(
        sections[0], cfg["keep_ratios"], n_instances=cfg["n_instances"], query=query
    )
    correlation = run_correlation_probe(sections[1], **cfg["correlation"], query=query)
    ranking = run_synthetic_ranking(sections[2], **ranking_cfg, query=query)
    checks = {"t2i_ge_random": comparison["t2i_ge_random"]}
    report = {
        "command": "simulate",
        "seed": args.seed,
        "config": cfg,
        "pruning_comparison": comparison,
        "correlation": correlation,
        "ranking_quality": ranking,
        "checks": checks,
        "pass": all(checks.values()),
    }
    comparison_rows = [
        (row["keep_ratio"], row["strategy"], row["retention"]) for row in comparison["rows"]
    ]
    ranking_rows = [
        (key, value)
        for key, value in sorted(ranking["metrics"].items())
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    path = write_report(
        args.out,
        report,
        {
            "pruning_comparison": (["keep_ratio", "strategy", "retention"], comparison_rows),
            "ranking_quality": (["metric", "value"], ranking_rows),
        },
    )
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"report: {path}")
    return 0 if report["pass"] else 1


def _cmd_cost_model(args) -> int:
    cfg = _merge(DEFAULTS["cost-model"], _load_config(args.config))
    arch = ArchParams(**cfg["arch"])
    workload = WorkloadSpec(**cfg["workload"])
    report = {
        "command": "cost-model",
        "seed": args.seed,
        "config": cfg,
        "cost": cost_report(workload, arch),
    }
    tables = {}
    sweep_cfg = dict(cfg["sweep"])
    if sweep_cfg.pop("enabled"):
        sweep = run_cost_sweep(arch, **sweep_cfg)
        report["sweep"] = sweep
        header = ["k", "rho", "n_full", "n_rho", "u_base", "f_base", "f_zip", "speedup", "prefill_ratio"]
        tables["cost_sweep"] = (header, [[row[h] for h in header] for row in sweep["rows"]])
    path = write_report(args.out, report, tables)
    cost = report["cost"]
    print(f"f_base={cost['f_base']:.6e} f_zip={cost['f_zip']:.6e} speedup={cost['speedup']:.4f}")
    print(f"report: {path}")
    return 0


def _parse_judgments(raw: list) -> dict:
    judgments_by_subset: dict[str, list[QueryJudgment]] = {}
    for i, entry in enumerate(raw):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("relevant"), list)
            and isinstance(entry.get("ranked"), list)
        ):
            raise ConfigError(
                f'judgment {i} must be {{"subset"?, "relevant": [...], "ranked": [...]}}'
            )
        subset = entry.get("subset", "all")
        if not isinstance(subset, str):
            raise ConfigError(f"judgment {i} subset must be a string, got {subset!r}")
        try:
            judgment = QueryJudgment(
                relevant=frozenset(entry["relevant"]), ranked=tuple(entry["ranked"])
            )
        except TypeError as exc:
            raise ConfigError(f"judgment {i} items must be strings or numbers") from exc
        judgments_by_subset.setdefault(subset, []).append(judgment)
    return judgments_by_subset


def _cmd_metrics(args) -> int:
    cfg = _merge(DEFAULTS["metrics"], _load_config(args.config))
    if cfg["judgments"] is None and cfg["values_by_subset"] is None:
        raise ConfigError("metrics needs either 'judgments' or 'values_by_subset' in the config")
    report = {"command": "metrics", "seed": args.seed, "config": cfg}
    tables = {}
    values = cfg["values_by_subset"]
    if values is not None:
        if not isinstance(values, dict) or not all(
            vals and _same_json_type([0.0], vals) for vals in values.values()
        ):
            raise ConfigError("config.values_by_subset must map names to non-empty lists of numbers")
        report["aggregate"] = aggregate(values)
        rows = [(name, finite_mean(vals)) for name, vals in values.items()]
        rows.append(("micro", report["aggregate"]["micro"]))
        rows.append(("macro", report["aggregate"]["macro"]))
        tables["aggregate"] = (["subset", "value"], rows)
    if cfg["judgments"] is not None:
        judgments_by_subset = _parse_judgments(cfg["judgments"])
        evaluation = evaluate_judgments(judgments_by_subset, k_values=cfg["k_values"])
        report["evaluation"] = evaluation
        subsets = sorted(evaluation["per_subset"])
        header = ["metric"] + subsets + ["micro", "macro"]
        rows = []
        for metric in sorted(evaluation["overall"]):
            row = [metric]
            for subset in subsets:
                value = evaluation["per_subset"][subset].get(metric)
                row.append("" if value is None else value)
            row.append(evaluation["overall"][metric]["micro"])
            row.append(evaluation["overall"][metric]["macro"])
            rows.append(row)
        tables["metrics_by_subset"] = (header, rows)
        taxonomy = evaluation["failure_taxonomy"]
        tables["failure_taxonomy"] = (
            ["class", "count", "fraction"],
            [
                (label, taxonomy["counts"][label], taxonomy["fractions"][label])
                for label in FAILURE_LABELS
            ],
        )
    path = write_report(args.out, report, tables)
    print(f"report: {path}")
    return 0


_COMMANDS = {
    "verify-bounds": _cmd_verify_bounds,
    "simulate": _cmd_simulate,
    "cost-model": _cmd_cost_model,
    "metrics": _cmd_metrics,
}


def _check_out(out: str) -> None:
    """Raise unless --out is a directory or a path that can be made one."""
    path = Path(out)
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"--out {out} must name a directory, but {nearest} is a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunerank",
        description="Token pruning, listwise scoring, cost modeling and bound verification.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", default=None, help="JSON config file (defaults documented in README)")
        sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        sub.add_argument("--out", default="out", help="output directory (default ./out)")
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _check_out(args.out)
        code = args.func(args)
    except PrunerankError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"wall time: {time.perf_counter() - started:.2f}s")
    return code


def entry_point() -> None:
    sys.exit(main())
