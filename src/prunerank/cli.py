"""Command-line entry points.

Four subcommands, each reading an optional JSON config, a seed and an output
directory, and writing tables/*.csv, then report.json:

  verify-bounds  randomized bound checks with pass/fail tallies
  simulate       pruning-strategy comparison, correlation probe, ranking quality
  cost-model     FLOPs for one workload plus optional rho/k sweeps
  metrics        metric tables from ranked judgments or raw per-subset values

main alone runs a subcommand. It checks the seed and --out, merges the config,
calls the subcommand, writes the report, prints and picks the exit code; a
subcommand only maps (config, seed) to its report sections, tables and stdout
lines, and derives every stream it draws from the seed: verify-bounds spawns
one generator per bound check (sandwich, stability, pruning error, tail gap)
and calls each check's tally, and simulate draws one seed per section. A
config and the seed are checked in full before any work. _merge's leaf tables
hold the one copy of every rule on a single value, keyed by its name, and
_PRODUCTS the bounds on simulate sizes that multiply into one allocation;
SyntheticConfig, built before simulate's first section, checks only the other
rules that tie values together, and the experiment kernels and FLOPs helpers
check none again.

The exit code is read from the report's "pass": 0 when it holds or is absent,
1 when a verification tally failed. Any prunerank.errors error (bad config or
input), and an --out that cannot be probed or cannot hold the report, prints
`config error:` to stderr and exits 2. Wall time is printed to stdout and
deliberately kept out of report.json so identical configs and seeds produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .attention import ERROR_BOUND_CONSTANT
from .cost_model import ArchParams, WorkloadSpec, cost_report
from .errors import ConfigError, NonFiniteError, PrunerankError
from .experiments import (
    _pruning_error_tally,
    _sandwich_tally,
    _stability_tally,
    _tail_gap_tally,
    run_correlation_probe,
    run_cost_sweep,
    run_pruning_comparison,
    run_synthetic_ranking,
    write_report,
)
from .linalg import embedding_from_json
from .metrics import FAILURE_LABELS, QueryJudgment, aggregate, evaluate_judgments, finite_mean
from .pruning import as_keep_ratio
from .scoring import IDENTIFIER_ALPHABET
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
            "image_sizes": [[1024, 20]],
            "n_query": 32,
            "beta": 1.0,
            "u_reason": 0,
            "rho": 0.5,
        },
        "sweep": {
            "enabled": True,
            "rho_values": [0.1, 0.3, 0.5, 0.7, 0.9, 1.0],
            "k_values": [10, 20, 40],
            "tokens_per_candidate": 1024,
        },
    },
    "metrics": {
        "k_values": [1, 3, 5],
        "judgments": None,
        "values_by_subset": None,
    },
}


@contextmanager
def _gc_paused():
    """Cyclic garbage collection off for the block, then as it was: a large
    config's load and parse make tens of thousands of containers and no cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
_SET_NULL_DEFAULTS = {"query_embedding_path": "", "judgments": []}

# Leaf rules keyed by leaf name, which means the same thing in every section:
# the smallest value (of each entry of a list, or of its lists), the largest,
# an exclusive upper bound and the leaves holding keep ratios. These tables are the only
# copy of each rule. tokens_per_image starts at 2 because the correlation
# probe rank-correlates each image's tokens; a selftest_constant at or above
# the proven coefficient cannot detect a violation. n_images is capped by the
# single-symbol identifiers A..Z. The simulate sizes are bounded one at a
# time here and, where they multiply into one allocation of an instance, by
# _PRODUCTS below. The trial counts are bounded so that every run ends: a
# million trials is a hundred times the default. A noise scale of a million
# stays far below the ~1e154 at which the squares in the cosine norms overflow.
# The cost-model counts meet in exact int sums and products (tokens * count
# per image size, n_vis, n_full, u_base * layers, u_base * n_full), as do beta and
# the c_* factors when a config gives them as ints. With the counts at most
# 2**63 and the factors at most a million, each result still converts to a
# float; past them an OverflowError escaped the FLOPs helpers. width and
# n_query take the same bound: without it, either at 10**307 makes the FLOPs
# infinite, and the config error that follows names no leaf.
_MINIMUMS = {
    "trials": 1, "selftest_trials": 1, "n_instances": 1, "n_heads": 1, "k_values": 1,
    "n_images": 1, "embed_dim": 1, "n_query_tokens": 1, "planted_per_image": 1,
    "layers": 1, "width": 1, "image_sizes": 1,
    "tokens_per_candidate": 1, "tokens_per_image": 2, "attention_noise": 0, "noise_scale": 0,
    "c_att": 0, "c_ffn": 0, "c_dec": 0, "c_score": 0,
    "n_text": 0, "n_query": 0, "beta": 0, "u_reason": 0, "selftest_constant": 0,
}
_MAXIMUMS = {
    "n_instances": 10**6, "n_heads": 10**4, "tokens_per_image": 10**4, "embed_dim": 10**4,
    "n_query_tokens": 10**4, "trials": 10**6, "selftest_trials": 10**6,
    "noise_scale": 10**6, "attention_noise": 10**6, "n_images": len(IDENTIFIER_ALPHABET),
    "layers": 2**63, "width": 2**63, "n_text": 2**63, "n_query": 2**63,
    "image_sizes": 2**63, "u_reason": 2**63,
    "tokens_per_candidate": 2**63, "k_values": 2**63,
    "beta": 10**6, "c_att": 10**6, "c_ffn": 10**6, "c_dec": 10**6, "c_score": 10**6,
}
_BELOW = {"selftest_constant": ERROR_BOUND_CONSTANT}
# The most entries a list leaf may hold. A cost sweep makes a row per pair of
# rho_values and k_values, so at these bounds it has at most 10 000 rows.
_MAX_ITEMS = {"keep_ratios": 100, "rho_values": 100, "k_values": 100, "image_sizes": 100}
_RATIOS = {"keep_ratios", "rho", "rho_values"}
# List leaves that hold each entry once: a repeated ratio or k would state its
# row or metric twice. image_sizes may repeat a size, which adds its counts,
# and tokens_per_image is a (low, high) pair.
_DISTINCT = {"keep_ratios", "rho_values", "k_values"}

# Products of sizes that each size one float64 allocation simulate makes for
# one instance, as dotted paths of their factors (a pair counts its larger
# entry): all its images' tokens, drawn as one block when the image size is
# fixed; its query; its head noise in the correlation probe; and its
# similarities, every image's tokens against the query in the ranking. Each
# is at most _PRODUCT_FLOATS, 2 * 10**6 float64s (16 MB), which leaves room
# for any one size leaf at its bound with the others at their defaults: the
# largest, embed_dim or n_query_tokens at 10**4, make 1.6 * 10**6 floats.
_PRODUCTS = {
    "image block": ("synthetic.n_images", "synthetic.tokens_per_image", "synthetic.embed_dim"),
    "query": ("synthetic.n_query_tokens", "synthetic.embed_dim"),
    "head noise": ("correlation.n_heads", "synthetic.tokens_per_image"),
    "similarities": ("synthetic.n_query_tokens", "synthetic.n_images", "synthetic.tokens_per_image"),
}
_PRODUCT_FLOATS = 2 * 10**6
# The random baseline's seeded draws, one per instance and keep ratio, seeded
# chunk by chunk: n_instances at its bound with the five default ratios.
_MAX_SEEDS = 5 * 10**6


def _same_json_type(default, value) -> bool:
    if isinstance(value, bool) and not isinstance(default, bool):
        return False
    if not isinstance(value, _ACCEPTED_TYPES[type(default)]):
        return False
    if isinstance(default, list) and default:
        inner = default[0]
        # A list nested in a list has the length of the default's, as a pair does.
        return all(
            _same_json_type(inner, item) and (not isinstance(inner, list) or len(item) == len(inner))
            for item in value
        )
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
    if key in _MAX_ITEMS and len(items) > _MAX_ITEMS[key]:
        raise ConfigError(f"{where} must hold at most {_MAX_ITEMS[key]} entries, got {len(items)}")
    if isinstance(default, list) and default and isinstance(default[0], list):
        items = [entry for item in items for entry in item]
    if any(isinstance(item, (int, float)) and not _is_finite(item) for item in items):
        raise ConfigError(f"{where} must be finite, got {_capped(json.dumps(value))}")
    if key in _DISTINCT and len(set(items)) < len(items):
        raise ConfigError(f"{where} must hold each entry once, got {_capped(json.dumps(value))}")
    if key in _MINIMUMS and min(items) < _MINIMUMS[key]:
        raise ConfigError(f"{where} must be >= {_MINIMUMS[key]}, got {_capped(json.dumps(value))}")
    if key in _MAXIMUMS and max(items) > _MAXIMUMS[key]:
        raise ConfigError(f"{where} must be <= {_MAXIMUMS[key]}, got {_capped(json.dumps(value))}")
    if key in _BELOW and max(items) >= _BELOW[key]:
        raise ConfigError(f"{where} must be < {_BELOW[key]}, got {_capped(json.dumps(value))}")
    if key in _RATIOS:
        for item in items:
            as_keep_ratio(item)


def _check_products(cfg: dict, context: str) -> None:
    """Raise when one of _PRODUCTS whose factors cfg holds exceeds _PRODUCT_FLOATS,
    or the random baseline's seeds exceed _MAX_SEEDS."""
    seeds = cfg.get("n_instances", 0) * len(cfg.get("keep_ratios", ()))
    if seeds > _MAX_SEEDS:
        raise ConfigError(
            f"{context}.keep_ratios makes n_instances * len(keep_ratios) = {seeds} seeds, more than {_MAX_SEEDS}"
        )
    for name, paths in _PRODUCTS.items():
        factors = []
        for path in paths:
            value = cfg
            for key in path.split("."):
                value = value.get(key) if isinstance(value, dict) else None
            factors.append(max(value) if isinstance(value, list) else value)
        if None not in factors and math.prod(factors) > _PRODUCT_FLOATS:
            raise ConfigError(
                f"{context} makes the {name} {' * '.join(paths)} = {math.prod(factors)} "
                f"floats, more than {_PRODUCT_FLOATS}"
            )


def _merge(defaults: dict, override: dict, context: str = "config") -> dict:
    """Overlay a user config on the defaults; the one check of every overriding value.

    The defaults are deep-copied, so a merged config never aliases DEFAULTS.
    Each checked override leaf is taken by reference, not copied: _load_config
    parses the override fresh for every run, so a copy would only cost time (a
    10 000-judgment list, say). One leaf changes after the merge: the metrics
    parse swaps each judgment's "ranked" list for the equal tuple its
    QueryJudgment holds, so the run keeps one copy, and the digest is unmoved.
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
    _check_products(merged, context)
    return merged


# Each command takes the merged config and the seed and returns (result,
# tables, lines): the report sections it computed (a "config" among them
# replaces the merged one), its CSV tables as {name: (header, rows)} and its
# stdout lines. main does everything else.
def _cmd_verify_bounds(cfg: dict, seed: int):
    trials, selftest_trials = cfg["trials"], cfg["selftest_trials"]
    # One generator per check, spawned from the seed in the order the checks run.
    sandwich, stability, pruning_error, tail_gap = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(4))
    checks = {
        "score_sandwich": _sandwich_tally(sandwich, trials),
        "topk_stability": _stability_tally(stability, trials),
        "pruning_error_bound": _pruning_error_tally(
            pruning_error, trials, ERROR_BOUND_CONSTANT, selftest_trials, cfg["selftest_constant"]
        ),
        "tail_gap_bound": _tail_gap_tally(tail_gap, trials),
    }
    selftest_failures = checks["pruning_error_bound"].pop("selftest_failures")
    # A failure with the proven constant is an implementation bug; the
    # weakened self-test constant must show some.
    selftest_pass = selftest_failures > 0
    total_failures = sum(check["failures"] for check in checks.values())
    result = {
        "bounds": {"checks": checks, "total_failures": total_failures},
        "selftest": {"trials": selftest_trials, "failures_detected": selftest_failures, "pass": selftest_pass},
        "pass": total_failures == 0 and selftest_pass,
    }
    rows, lines = [], []
    for name, check in checks.items():
        rows.append((name, check["trials"], check["failures"]))
        verdict = "PASS" if check["failures"] == 0 else "FAIL"
        lines.append(f"{verdict} {name}: {check['trials']} trials, {check['failures']} failures")
    verdict = "PASS" if selftest_pass else "FAIL"
    lines.append(
        f"{verdict} selftest: corrupted constant {cfg['selftest_constant']} "
        f"detected {selftest_failures} violations"
    )
    return result, {"bound_tallies": (["check", "trials", "failures"], rows)}, lines


def _section_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)]


def _cmd_simulate(cfg: dict, seed: int):
    query = None
    syn = dict(cfg["synthetic"])
    if cfg["query_embedding_path"] is not None:
        query = embedding_from_json(_load_config(cfg["query_embedding_path"]))
        syn["n_query_tokens"], syn["embed_dim"] = query.shape
        _check_products({**cfg, "synthetic": syn}, "the query of config.query_embedding_path")
    ranking_cfg = dict(cfg["ranking"])
    ranking_syn = {**syn, "noise_scale": ranking_cfg.pop("noise_scale")}
    # Built, and so checked, before the first section runs.
    sections = [
        SyntheticConfig(**section_syn, seed=section_seed)
        for section_syn, section_seed in zip((syn, syn, ranking_syn), _section_seeds(seed, 3))
    ]
    comparison = run_pruning_comparison(
        sections[0], cfg["keep_ratios"], n_instances=cfg["n_instances"], query=query
    )
    correlation = run_correlation_probe(sections[1], **cfg["correlation"], query=query)
    ranking = run_synthetic_ranking(sections[2], **ranking_cfg, query=query)
    result = {
        "pruning_comparison": comparison,
        "correlation": correlation,
        "ranking_quality": ranking,
        "pass": comparison["t2i_ge_random"],
    }
    comparison_rows = []
    for rho, t2i, rand in zip(
        cfg["keep_ratios"], comparison["t2i_retention"], comparison["random_retention"]
    ):
        comparison_rows += [(float(rho), "t2i", t2i), (float(rho), "random", rand)]
    ranking_rows = [
        (key, value)
        for key, value in sorted(ranking["metrics"].items())
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    tables = {
        "pruning_comparison": (["keep_ratio", "strategy", "retention"], comparison_rows),
        "ranking_quality": (["metric", "value"], ranking_rows),
    }
    return result, tables, [f"{'PASS' if result['pass'] else 'FAIL'} t2i_ge_random"]


def _cmd_cost_model(cfg: dict, seed: int):
    arch = ArchParams(**cfg["arch"])
    workload = WorkloadSpec(**cfg["workload"])
    cost = cost_report(workload, arch)
    result, tables = {"cost": cost}, {}
    sweep_cfg = dict(cfg["sweep"])
    if sweep_cfg.pop("enabled"):
        sweep = run_cost_sweep(arch, workload, **sweep_cfg)
        result["sweep"] = sweep
        header = ["k", "rho", "n_full", "n_rho", "u_base", "f_base", "f_zip", "speedup", "prefill_ratio"]
        tables["cost_sweep"] = (header, [[row[h] for h in header] for row in sweep["rows"]])
    line = f"f_base={cost['f_base']:.6e} f_zip={cost['f_zip']:.6e} speedup={cost['speedup']:.4f}"
    return result, tables, [line]


# The keys of a judgment object, and the Python types JSON gives the items
# it may list: strings and numbers. true, false and null are not items; true
# would match 1 and false 0.
_JUDGMENT_KEYS = frozenset({"subset", "relevant", "ranked"})
_ITEM_TYPES = {str, int, float}


def _parse_judgments(raw: list) -> dict:
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
        if len(entry) != 2 + ("subset" in entry):
            unknown = min(entry.keys() - _JUDGMENT_KEYS)
            raise ConfigError(
                f"unknown judgment {i} key {_capped(repr(unknown))}; known: {sorted(_JUDGMENT_KEYS)}"
            )
    # One scan of every item's type, before any item is hashed.
    lists = chain.from_iterable((entry["relevant"], entry["ranked"]) for entry in raw)
    if not set(map(type, chain.from_iterable(lists))) <= _ITEM_TYPES:
        i, item = next(
            (i, item)
            for i, entry in enumerate(raw)
            for item in chain(entry["relevant"], entry["ranked"])
            if type(item) not in _ITEM_TYPES
        )
        raise ConfigError(
            f"judgment {i} items must be strings or numbers, got {_capped(json.dumps(item))}"
        )
    # Each entry's ranked list gives way to the tuple its judgment holds: one copy.
    judgments_by_subset: dict[str, list[QueryJudgment]] = {}
    for entry in raw:
        entry["ranked"] = ranked = tuple(entry["ranked"])
        judgment = QueryJudgment(frozenset(entry["relevant"]), ranked)
        judgments_by_subset.setdefault(entry.get("subset", "all"), []).append(judgment)
    return judgments_by_subset


_DIGEST_ENTRIES = 256


def _digest(value) -> str:
    """"sha256:" and the hex sha256 of value's compact, key-sorted JSON. A list
    is encoded _DIGEST_ENTRIES entries at a time, since json's encoder holds
    every piece of its output until it returns, several times the text."""
    # value comes from json.load, which makes no cycles: no cycle scan
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False).encode
    digest = hashlib.sha256()
    try:
        if isinstance(value, list):  # "[", the entries joined by ",", then "]"
            for start in range(0, len(value), _DIGEST_ENTRIES):
                digest.update((("," if start else "[") + encode(value[start : start + _DIGEST_ENTRIES])[1:-1]).encode())
            digest.update(b"]" if value else b"[]")
        else:
            digest.update(encode(value).encode())
    except ValueError as exc:
        raise NonFiniteError(f"config holds a NaN or infinite value: {exc}") from exc
    return "sha256:" + digest.hexdigest()


def _cmd_metrics(cfg: dict, seed: int):
    if cfg["judgments"] is None and cfg["values_by_subset"] is None:
        raise ConfigError("metrics needs either 'judgments' or 'values_by_subset' in the config")
    result, tables = {}, {}
    values = cfg["values_by_subset"]
    if values is not None:
        if not isinstance(values, dict) or not all(
            vals and _same_json_type([0.0], vals) for vals in values.values()
        ):
            raise ConfigError("config.values_by_subset must map names to non-empty lists of numbers")
        result["aggregate"] = aggregate(values)
        rows = [(name, finite_mean(vals)) for name, vals in values.items()]
        rows.append(("micro", result["aggregate"]["micro"]))
        rows.append(("macro", result["aggregate"]["macro"]))
        tables["aggregate"] = (["subset", "value"], rows)
    if cfg["judgments"] is not None:
        with _gc_paused():
            judgments_by_subset = _parse_judgments(cfg["judgments"])
        evaluation = evaluate_judgments(judgments_by_subset, k_values=cfg["k_values"])
        del judgments_by_subset  # freed before the tables and the digest are built
        result["evaluation"] = evaluation
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
    # The data leaves stand in the report as digests, taken after evaluation
    # so that bad data raises its own error before the digest reads it.
    data = ("judgments", "values_by_subset")
    result["config"] = {**cfg, **{key: _digest(cfg[key]) for key in data if cfg[key] is not None}}
    return result, tables, []


_COMMANDS = {
    "verify-bounds": _cmd_verify_bounds,
    "simulate": _cmd_simulate,
    "cost-model": _cmd_cost_model,
    "metrics": _cmd_metrics,
}


def _check_out(out: str) -> None:
    """Raise unless --out is a directory or a path that can be made one."""
    path = Path(out)
    try:
        nearest = next(p for p in (path, *path.parents) if p.exists())
    except OSError as exc:  # a component longer than the file system allows, say
        raise ConfigError(f"--out {_capped(out)} cannot be used: {exc.strerror}") from exc
    if not nearest.is_dir():
        raise ConfigError(f"--out {out} must name a directory, but {nearest} is a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunerank",
        description="Token pruning, listwise scoring, cost modeling and bound verification.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", default=None, help="JSON config file (defaults documented in README)")
        sub.add_argument("--seed", type=int, default=0, help="master seed, at least 0 (default 0)")
        sub.add_argument("--out", default="out", help="output directory (default ./out)")
    return parser


def main(argv=None) -> int:
    """Run one subcommand: the one place that merges, writes, prints and picks the exit code."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        _check_out(args.out)
        with _gc_paused():
            loaded = _load_config(args.config)
        cfg = _merge(DEFAULTS[args.command], loaded)
        result, tables, lines = _COMMANDS[args.command](cfg, args.seed)
        report = {"command": args.command, "seed": args.seed, "config": cfg, **result}
        try:
            path = write_report(args.out, report, tables)
        except OSError as exc:  # report.json is a directory or tables a file, say
            raise ConfigError(f"--out {_capped(args.out)} cannot hold the report: {exc.strerror}") from exc
    except PrunerankError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(*lines, f"report: {path}", f"wall time: {time.perf_counter() - started:.2f}s", sep="\n")
    return 0 if report.get("pass", True) else 1


def entry_point() -> None:
    sys.exit(main())
