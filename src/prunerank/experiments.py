"""Experiment drivers and deterministic report serialization.

Four randomized bound checks (score sandwich, top-k stability margin,
pruning-error tail-mass bound, tail-gap decay), a pruning-strategy retention
comparison on planted-relevance instances, a synthetic ranking-quality run, a
score-vs-attention correlation probe, and rho/k cost sweeps. Every driver is
deterministic given its seed; per-trial streams derive from the master seed so
trials could run in any order or in parallel without changing results.
Each bound check draws its trials once and scores each chunk of them with one
call of its bound's row kernel (pruning.topk_stability_rows,
attention.pruning_error_rows, attention.tail_gap_rows), the kernel the public
per-trial checks call with one row; the verify-bounds self-test is scored in
the pruning-error check's pass. Each simulate section scores an instance in
one pass: one sort of the relevant image's scores for every keep ratio, one
noise draw and softmax for every head, one cosine GEMM for every image. The
drivers take their counts, ratios and noise scales as cli._merge has checked
them and check none again.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .attention import (
    BOUND_SLACK,
    ERROR_BOUND_CONSTANT,
    attention_mass_per_token,
    pruning_error_rows,
    softmax,
    tail_gap_rows,
)
from .cost_model import (
    ArchParams,
    WorkloadSpec,
    f_base,
    f_zip,
    longcontext_prefill_ratio,
    speedup,
)
from .errors import NonFiniteError
from .linalg import cosine_to_unit, unit_rows
from .metrics import QueryJudgment, evaluate_judgments, spearman
from .pruning import (
    _pool,
    keep_count,
    maxsim_scores,
    random_prune,
    topk_stability_rows,
)
from .scoring import rank_from_logits
from .synthetic import SyntheticConfig, generate_instance

# Trials per chunk: each tally draws a chunk's trials one by one, in stream
# order, into padded buffers sized by this constant (never by the trial
# count) and by the largest sizes the tally draws, then scores the whole chunk
# with a few array operations. The largest buffer, the pruning-error value
# rows, is 64 x 64 x 16 float64 = 512 KiB. On a 2-vCPU host, chunks of 256
# trials ran a 2 500-trial verify-bounds about 4% faster but raised its peak
# RSS by about 5 MB; 64 leaves it where per-trial checking had it.
TALLY_CHUNK = 64


def _chunk_sizes(trials: int) -> Iterator[int]:
    """The sizes of the TALLY_CHUNK-trial chunks covering trials, made one at a time."""
    return (min(TALLY_CHUNK, trials - start) for start in range(0, trials, TALLY_CHUNK))


def _sandwich_tally(rng: np.random.Generator, trials: int) -> dict:
    failures = 0
    equality_checks = 0
    for size in _chunk_sizes(trials):
        # Zero padding satisfies every comparison below and is never constant.
        hard = np.zeros((size, 256))
        smooth = np.zeros((size, 256))
        constant_cols = np.zeros((size, 256), dtype=bool)
        log_nq = np.empty(size)
        for t in range(size):
            n_query = int(rng.integers(1, 33))
            n_tokens = int(rng.integers(1, 257))
            sims = rng.uniform(-1.0, 1.0, size=(n_query, n_tokens))
            if rng.random() < 0.5:
                n_const = int(rng.integers(1, n_tokens + 1))
                cols = rng.choice(n_tokens, size=n_const, replace=False)
                sims[:, cols] = rng.uniform(-1.0, 1.0, size=n_const)[None, :]
                constant_cols[t, cols] = True
            hard[t, :n_tokens], smooth[t, :n_tokens] = _pool(sims)
            log_nq[t] = math.log(n_query)
        ceiling = hard + log_nq[:, None]
        ok = (hard <= smooth + BOUND_SLACK).all(axis=1)
        ok &= (smooth <= ceiling + BOUND_SLACK).all(axis=1)
        ok &= (~constant_cols | (np.abs(smooth - ceiling) <= BOUND_SLACK)).all(axis=1)
        equality_checks += int(np.count_nonzero(constant_cols.any(axis=1)))
        failures += int(np.count_nonzero(~ok))
    return {
        "name": "score_sandwich",
        "trials": trials,
        "failures": failures,
        "equality_checks": equality_checks,
    }


def _stability_tally(rng: np.random.Generator, trials: int) -> dict:
    failures = 0
    premise_count = 0
    for size in _chunk_sizes(trials):
        # -inf padding: nothing past a trial's query rows, -inf (last) past its tokens.
        sims = np.full((size, 6, 64), -np.inf)
        widths = np.empty(size, dtype=np.int64)
        ks = np.empty(size, dtype=np.int64)
        log_nq = np.empty(size)
        for t in range(size):
            n_query = int(rng.integers(1, 7))
            n_tokens = int(rng.integers(2, 65))
            trial = sims[t, :n_query, :n_tokens]
            if rng.random() < 0.5:
                trial[:] = rng.uniform(-1.0, 1.0, size=(n_query, n_tokens))
                k = int(rng.integers(1, n_tokens))
            else:
                # Planted margin: k high-similarity columns against a low block,
                # so the gap premise actually fires on a healthy share of trials.
                k = int(rng.integers(1, n_tokens))
                trial[:] = rng.uniform(-1.0, -0.93, size=(n_query, n_tokens))
                trial[:, :k] = rng.uniform(0.93, 1.0, size=(n_query, k))
            widths[t], ks[t], log_nq[t] = n_tokens, k, math.log(n_query)
        _, guaranteed, sets_equal = topk_stability_rows(*_pool(sims), ks, widths, log_nq)
        premise_count += int(np.count_nonzero(guaranteed))
        failures += int(np.count_nonzero(guaranteed & ~sets_equal))
    return {
        "name": "topk_stability",
        "trials": trials,
        "failures": failures,
        "premise_count": premise_count,
    }


def _pruning_error_tally(
    rng: np.random.Generator, trials: int, constant: float, selftest_trials: int = 0,
    selftest_constant: float = ERROR_BOUND_CONSTANT,
) -> dict:
    """Bound failures at constant among the first `trials` trials and at
    selftest_constant among the first `selftest_trials`, drawing the larger count once."""
    failures = selftest_failures = start = 0
    for size in _chunk_sizes(max(trials, selftest_trials)):
        alpha = np.zeros((size, 64))
        values = np.zeros((size, 64, 16))
        kept = np.zeros((size, 64), dtype=bool)
        for t in range(size):
            if rng.random() < 0.2:
                # Antipodal worst case: removed mass points one way, kept mass the
                # other, which attains the bound with equality.
                tail = float(rng.uniform(0.1, 0.5))
                scale = float(rng.uniform(0.5, 2.0))
                dim = int(rng.integers(1, 9))
                direction = rng.standard_normal(dim)
                direction /= np.linalg.norm(direction)
                values[t, 0, :dim] = scale * direction
                values[t, 1, :dim] = -scale * direction
                alpha[t, :2] = (tail, 1.0 - tail)
                kept[t, 1] = True
            else:
                n_tokens = int(rng.integers(2, 65))
                dim = int(rng.integers(1, 17))
                weights = rng.dirichlet(np.full(n_tokens, float(rng.uniform(0.2, 2.0))))
                values[t, :n_tokens, :dim] = rng.standard_normal((n_tokens, dim)) * float(
                    rng.uniform(0.1, 3.0)
                )
                size_kept = int(rng.integers(1, n_tokens + 1))
                chosen = rng.choice(n_tokens, size=size_kept, replace=False)
                if weights[chosen].sum() < 1e-9:
                    chosen = np.append(chosen, int(np.argmax(weights)))
                alpha[t, :n_tokens] = weights
                kept[t, chosen] = True
        *_, holds = pruning_error_rows(alpha, values, kept, (constant, selftest_constant))
        main, selftest = max(trials - start, 0), max(selftest_trials - start, 0)
        failures += int(np.count_nonzero(~holds[0, :main]))
        selftest_failures += int(np.count_nonzero(~holds[1, :selftest]))
        start += size
    return {
        "name": "pruning_error_bound",
        "trials": trials,
        "failures": failures,
        "constant": constant,
        "selftest_failures": selftest_failures,
    }


def _tail_gap_tally(rng: np.random.Generator, trials: int) -> dict:
    failures = 0
    for size in _chunk_sizes(trials):
        scores = np.full((size, 128), -np.inf)
        widths = np.empty(size, dtype=np.int64)
        ks = np.empty(size, dtype=np.int64)
        for t in range(size):
            n_scores = int(rng.integers(2, 129))
            draw = rng.random()
            if draw < 0.15:
                scores[t, :n_scores] = float(rng.uniform(-3.0, 3.0))
            elif draw < 0.3:
                row = rng.normal(0.0, 1.0, size=n_scores)
                boosted = int(rng.integers(1, n_scores))
                row[:boosted] += float(rng.uniform(2.0, 6.0))
                scores[t, :n_scores] = row
            else:
                scores[t, :n_scores] = rng.normal(0.0, float(rng.uniform(0.3, 3.0)), size=n_scores)
            widths[t], ks[t] = n_scores, int(rng.integers(1, n_scores))
        *_, holds = tail_gap_rows(scores, ks, widths)
        failures += int(np.count_nonzero(~holds))
    return {"name": "tail_gap_bound", "trials": trials, "failures": failures}


def _tally_rngs(seed: int) -> list[np.random.Generator]:
    """One generator per tally, in the order sandwich, stability, pruning error, tail gap."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(4)]


def run_bound_verification(
    trials: int, seed: int, selftest_trials: int = 0, selftest_constant: float = ERROR_BOUND_CONSTANT
) -> tuple[dict, int]:
    """Run all four randomized bound checks; return their tallies and the self-test count.

    With the proven ERROR_BOUND_CONSTANT the expected failure count is zero for
    every seed; any failure indicates an implementation bug. The self-test
    count is the violations at a weakened selftest_constant among the first
    selftest_trials pruning-error trials, drawn in the same pass; a constant
    below the proven one must report some.
    """
    rngs = _tally_rngs(seed)
    checks = [
        _sandwich_tally(rngs[0], trials),
        _stability_tally(rngs[1], trials),
        _pruning_error_tally(rngs[2], trials, ERROR_BOUND_CONSTANT, selftest_trials, selftest_constant),
        _tail_gap_tally(rngs[3], trials),
    ]
    selftest_failures = checks[2].pop("selftest_failures")
    return {
        "trials": trials,
        "seed": seed,
        "error_bound_constant": ERROR_BOUND_CONSTANT,
        "checks": {check["name"]: check for check in checks},
        "total_failures": sum(check["failures"] for check in checks),
    }, selftest_failures


def _instances(cfg: SyntheticConfig, n_instances: int, query: np.ndarray | None):
    """The master generator and a lazy stream of n_instances seeded instances.

    Each instance comes with unit_rows of its query; an explicit query is
    scaled once per run. The instance seeds are the master's first draw;
    callers may draw more from the master afterwards, before or while
    consuming the stream.
    """
    master = np.random.default_rng(cfg.seed)
    return master, _with_unit_query(cfg, master.integers(2**63, size=n_instances), query)


def _with_unit_query(cfg: SyntheticConfig, seeds: np.ndarray, query: np.ndarray | None):
    unit = None
    for seed in seeds:
        instance = generate_instance(dataclasses.replace(cfg, seed=int(seed)), query=query)
        if unit is None or query is None:
            unit = unit_rows(instance.query)
        yield instance, unit


def run_pruning_comparison(
    cfg: SyntheticConfig,
    keep_ratios: Sequence[float],
    n_instances: int = 1000,
    query: np.ndarray | None = None,
) -> dict:
    """Planted-token retention of query-aware (t2i) vs uniform random pruning.

    Both strategies keep the same per-image budget keep_count(rho, n); they
    differ only in which indices survive. Retention is the fraction of planted
    tokens that survive pruning of the relevant image, pooled over instances.
    An explicit query matrix replaces the per-instance sampled one.

    Each instance is scored and sorted once: a token survives query-aware
    pruning at every ratio whose budget exceeds its rank in the stable
    descending score order (the lower index first on ties). The budgets are
    computed once per image size.
    """
    ratios = [float(r) for r in keep_ratios]
    master, instances = _instances(cfg, n_instances, query)
    random_seeds = master.integers(2**63, size=(n_instances, len(ratios)))
    budgets: dict[int, np.ndarray] = {}
    kept_t2i = np.zeros(len(ratios), dtype=np.int64)
    kept_random = np.zeros(len(ratios), dtype=np.int64)
    total_planted = 0
    for i, (instance, unit) in enumerate(instances):
        image = instance.images[instance.relevant_image]
        planted = instance.planted[instance.relevant_image]
        total_planted += len(planted)
        n_tokens = image.shape[0]
        if n_tokens not in budgets:
            budgets[n_tokens] = np.array([keep_count(rho, n_tokens) for rho in ratios])
        order = np.argsort(-maxsim_scores(cosine_to_unit(unit, image)), kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(n_tokens)
        kept_t2i += np.count_nonzero(rank[list(planted), None] < budgets[n_tokens], axis=0)
        for j, budget in enumerate(budgets[n_tokens].tolist()):
            rand = random_prune(n_tokens, budget, int(random_seeds[i, j]))
            kept_random[j] += len(set(planted).intersection(rand.tolist()))
    t2i_retention = (kept_t2i / total_planted).tolist()
    random_retention = (kept_random / total_planted).tolist()
    rows = []
    for j, rho in enumerate(ratios):
        rows.append({"keep_ratio": rho, "strategy": "t2i", "retention": t2i_retention[j]})
        rows.append({"keep_ratio": rho, "strategy": "random", "retention": random_retention[j]})
    return {
        "n_instances": n_instances,
        "keep_ratios": ratios,
        "t2i_retention": t2i_retention,
        "random_retention": random_retention,
        "rows": rows,
        "t2i_ge_random": bool(
            all(t >= r for t, r in zip(t2i_retention, random_retention))
        ),
    }


def run_correlation_probe(
    cfg: SyntheticConfig,
    n_instances: int = 200,
    n_heads: int = 4,
    attention_noise: float = 0.5,
    query: np.ndarray | None = None,
) -> dict:
    """Spearman correlation between pruning scores and simulated attention mass.

    Per instance, per-head attention rows at the scoring position are softmax
    distributions over the smooth pooling scores plus head-specific noise; the
    head average is then rank-correlated against the hard-max pruning scores.
    The value is reported without an acceptance threshold. An instance's noise
    for all heads is one (n_heads, n_tokens) draw, softmaxed in one call.
    """
    master, instances = _instances(cfg, n_instances, query)
    correlations = []
    for instance, unit in instances:
        image = instance.images[instance.relevant_image]
        hard, smooth = _pool(cosine_to_unit(unit, image))
        noise = master.normal(0.0, attention_noise, size=(n_heads, image.shape[0]))
        mass = attention_mass_per_token(softmax(smooth + noise)[:, None, :], position=0)
        correlations.append(spearman(hard, mass))
    return {
        "n_instances": n_instances,
        "n_heads": n_heads,
        "attention_noise": attention_noise,
        "spearman_mean": float(np.mean(correlations)),
        "spearman_min": float(np.min(correlations)),
        "spearman_max": float(np.max(correlations)),
    }


def run_synthetic_ranking(
    cfg: SyntheticConfig,
    n_instances: int = 300,
    k_values: Sequence[int] = (1, 3, 5),
    query: np.ndarray | None = None,
) -> dict:
    """End-to-end synthetic reranking quality from best-token scores.

    Each candidate image is scored by its best token score, the largest
    query-token similarity in the image; candidates are ranked by descending
    score and judged against the planted relevant image. No keep ratio enters:
    query-aware pruning always keeps an image's best token, so pruning first
    would not change any score.

    An instance's images are stacked and scored in one cosine GEMM, and each
    image's best token is a max over its row span. The candidate ids are the
    image indices, so the ranked ids are the permutation itself.
    """
    _, instances = _instances(cfg, n_instances, query)
    judgments = []
    for instance, unit in instances:
        starts = np.cumsum([0] + [image.shape[0] for image in instance.images[:-1]])
        tokens = maxsim_scores(cosine_to_unit(unit, np.concatenate(instance.images)))
        ranked = rank_from_logits(np.maximum.reduceat(tokens, starts)).tolist()
        judgments.append(
            QueryJudgment(relevant=frozenset({instance.relevant_image}), ranked=tuple(ranked))
        )
    evaluation = evaluate_judgments({"synthetic": judgments}, k_values=k_values)
    return {
        "n_instances": n_instances,
        "metrics": evaluation["per_subset"]["synthetic"],
        "failure_taxonomy": evaluation["failure_taxonomy"],
    }


def run_cost_sweep(
    arch: ArchParams,
    n_text: int,
    tokens_per_candidate: int,
    n_query: int,
    beta: float,
    u_reason: int,
    rho_values: Sequence[float],
    k_values: Sequence[int],
) -> dict:
    """Grid of baseline/pruned FLOPs and speedup over keep ratios and list sizes."""
    ratios = [float(r) for r in rho_values]
    ks = [int(k) for k in k_values]
    rows = []
    for k in ks:
        for rho in ratios:
            workload = WorkloadSpec(
                n_text=n_text,
                n_vis=tokens_per_candidate * k,
                n_query=n_query,
                k=k,
                beta=beta,
                u_reason=u_reason,
                rho=rho,
                image_sizes=((tokens_per_candidate, k),),
            )
            rows.append(
                {
                    "k": k,
                    "rho": rho,
                    "n_full": workload.n_full,
                    "n_rho": workload.n_rho,
                    "u_base": workload.u_base,
                    "f_base": f_base(workload, arch),
                    "f_zip": f_zip(workload, arch),
                    "speedup": speedup(workload, arch),
                    "prefill_ratio": longcontext_prefill_ratio(rho, n_text, workload.n_vis),
                }
            )
    return {
        "arch": dataclasses.asdict(arch),
        "template": {
            "n_text": n_text,
            "tokens_per_candidate": tokens_per_candidate,
            "n_query": n_query,
            "beta": beta,
            "u_reason": u_reason,
        },
        "rho_values": ratios,
        "k_values": ks,
        "rows": rows,
    }


_encode_str = json.encoder.encode_basestring_ascii
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _encode_scalar(value) -> str:
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is float:
        if not math.isfinite(value):
            raise NonFiniteError(f"report holds a NaN or infinite value: {value!r}")
        return float.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    return "null"


def _encode(value, newline: str) -> str:
    """The JSON of value, its nested lines starting with newline plus two spaces."""
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return _encode_scalar(value)
    inner = newline + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds <= _SCALAR_TYPES:
            items = map(_encode_scalar, value)
        else:
            items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict and set(map(type, value)) <= {str}:
        if not value:
            return "{}"
        items = [_encode_str(key) + ": " + _encode(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    # Subclasses, numpy scalars and non-str keys: json.dumps knows how it
    # prints them, and its lines only need this depth's indent.
    try:
        text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"report holds a NaN or infinite value: {exc}") from exc
    return text.replace("\n", newline)


def report_json_bytes(report: Mapping) -> bytes:
    """Canonical JSON encoding: sorted keys, two-space indent, trailing newline.

    The bytes equal json.dumps(report, sort_keys=True, indent=2,
    allow_nan=False) + "\\n" in UTF-8. Exact JSON types (dicts with str
    keys, lists, tuples, str, int, float, bool, None) are encoded here, a
    list of scalars in a single join; any other value is handed to json.dumps
    and re-indented. Identical report dicts serialize to identical bytes,
    which is what the determinism checks compare. JSON has no NaN or
    infinity, so a report holding one at any depth raises NonFiniteError.
    """
    return (_encode(report, "\n") + "\n").encode("utf-8")


def write_report(out_dir, report: Mapping, tables: Mapping[str, tuple] = ()) -> Path:
    """Write report.json plus optional tables/<name>.csv under out_dir.

    Each table is (header, rows) with rows as sequences matching the header.
    Returns the report path.
    """
    data = report_json_bytes(report)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    report_path.write_bytes(data)
    if tables:
        table_dir = out / "tables"
        table_dir.mkdir(exist_ok=True)
        for name, (header, rows) in tables.items():
            with open(table_dir / f"{name}.csv", "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
    return report_path
