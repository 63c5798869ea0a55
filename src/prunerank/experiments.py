"""Experiment kernels and deterministic report serialization.

Four randomized bound checks (score sandwich, top-k stability margin,
pruning-error tail-mass bound, tail-gap decay), each a tally over the
generator and trial count it is given (cli._cmd_verify_bounds spawns the
generators from --seed and calls the four), a pruning-strategy retention
comparison on planted-relevance instances, a synthetic ranking-quality run, a
score-vs-attention correlation probe, and rho/k cost sweeps. Every kernel is
deterministic given its seed, and only in its draw order: each bound check
draws its trials in order from one generator of its own, and the correlation
probe draws each chunk's attention noise from its master generator, in stream
order. Only the synthetic instances and the random-pruning draws have seeds of
their own, drawn in bulk as synthetic states (_generators, _random_masks).
Each bound check draws its trials once and scores each chunk of them with one
call of its bound's row kernel (pruning._topk_stability_rows,
attention._pruning_error_rows, attention._tail_gap_rows), the kernel the public
per-trial checks call with one row; the verify-bounds self-test is scored in
the pruning-error check's pass. The tallies draw each scalar uniform with
synthetic._uniform; the pruning-error tally normalizes a direction by
math.sqrt of its dot product, np.linalg.norm's 1-D path, and sums the kept
weights only when the first is below the zero-mass guard, bit for bit as the
full sum decides. Each simulate section draws a chunk's instances straight
into arrays (synthetic._draw_chunk); a chunk's stacks
(tokens, queries, similarities, head noise) hold at most CHUNK_BYTES (1 MiB)
unless one instance's do. A chunk splits into groups whose tokens stack to one
shape (one group, the chunk's own token array, when every image has the same
size), and each group is scored with one call of each kernel on the stack: one
cosine GEMM per instance inside one matmul, one keep-rule sort
(pruning._ranks) for every keep ratio or for the ranking, one softmax for
every head, one Spearman row kernel (metrics._spearman_rows), one reduceat for
every image. Results that depend on order are put back in stream order. The
kernels take their counts, ratios and noise scales as cli._merge has checked
them and check none again, and return only what they computed, each fact
once: the report's config holds their inputs. A report is written as
json.dumps gives it, with sorted keys and a two-space indent, after its
tables; no report holds bulk data, so the standard encoder is fast enough.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from itertools import starmap
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .attention import BOUND_SLACK, ERROR_BOUND_CONSTANT, _pruning_error_rows, _tail_gap_rows, softmax
from .cost_model import ArchParams, WorkloadSpec, cost_report
from .errors import DegenerateConstantError, EmptyInputError, NonFiniteError
from .linalg import cosine_to_unit, unit_rows
from .metrics import QueryJudgment, _spearman_rows, evaluate_judgments, spearman
from .pruning import _pool, _ranks, _token_scores, _topk_stability_rows, keep_count
from .synthetic import SyntheticConfig, _Chunk, _draw_chunk, _generators, _random_masks, _uniform

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
    return {"trials": trials, "failures": failures, "equality_checks": equality_checks}


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
        _, guaranteed, sets_equal = _topk_stability_rows(*_pool(sims), ks, widths, log_nq)
        premise_count += int(np.count_nonzero(guaranteed))
        failures += int(np.count_nonzero(guaranteed & ~sets_equal))
    return {"trials": trials, "failures": failures, "premise_count": premise_count}


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
                tail = _uniform(rng, 0.1, 0.5)
                scale = _uniform(rng, 0.5, 2.0)
                dim = int(rng.integers(1, 9))
                direction = rng.standard_normal(dim)
                direction /= math.sqrt(direction.dot(direction))
                values[t, 0, :dim] = scale * direction
                values[t, 1, :dim] = -scale * direction
                alpha[t, :2] = (tail, 1.0 - tail)
                kept[t, 1] = True
            else:
                n_tokens = int(rng.integers(2, 65))
                dim = int(rng.integers(1, 17))
                weights = rng.dirichlet(np.full(n_tokens, _uniform(rng, 0.2, 2.0)))
                values[t, :n_tokens, :dim] = rng.standard_normal((n_tokens, dim)) * _uniform(rng, 0.1, 3.0)
                size_kept = int(rng.integers(1, n_tokens + 1))
                chosen = rng.choice(n_tokens, size=size_kept, replace=False)
                # A rounded sum of non-negative weights is never below one of its terms.
                if weights[chosen[0]] < 1e-9 and weights[chosen].sum() < 1e-9:
                    chosen = np.append(chosen, int(np.argmax(weights)))
                alpha[t, :n_tokens] = weights
                kept[t, chosen] = True
        *_, holds = _pruning_error_rows(alpha, values, kept, (constant, selftest_constant))
        main, selftest = max(trials - start, 0), max(selftest_trials - start, 0)
        failures += int(np.count_nonzero(~holds[0, :main]))
        selftest_failures += int(np.count_nonzero(~holds[1, :selftest]))
        start += size
    return {
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
                scores[t, :n_scores] = _uniform(rng, -3.0, 3.0)
            elif draw < 0.3:
                row = rng.normal(0.0, 1.0, size=n_scores)
                boosted = int(rng.integers(1, n_scores))
                row[:boosted] += _uniform(rng, 2.0, 6.0)
                scores[t, :n_scores] = row
            else:
                scores[t, :n_scores] = rng.normal(0.0, _uniform(rng, 0.3, 3.0), size=n_scores)
            widths[t], ks[t] = n_scores, int(rng.integers(1, n_scores))
        *_, holds = _tail_gap_rows(scores, ks, widths)
        failures += int(np.count_nonzero(~holds))
    return {"trials": trials, "failures": failures}


# Bytes of float64 stacks one simulate chunk may hold: its tokens, queries,
# similarities and, in the correlation, head noise together, kept only until
# the chunk is scored. The count per chunk is fixed per section by what its
# largest possible instance adds to those stacks, and is at least one: at the
# default config a comparison chunk holds 282 instances, a correlation chunk
# 240 and a ranking chunk 40. The bound keeps simulate's memory independent of
# its instance counts (a default run's traced peak: 1.6 MiB).
CHUNK_BYTES = 1 << 20


def _chunk_instances(instance_floats: int) -> int:
    """Instances per chunk when each adds instance_floats float64 values to the
    chunk's stacks: as many as fit CHUNK_BYTES, and at least one."""
    return max(1, CHUNK_BYTES // (8 * instance_floats))


def _stacked_floats(cfg: SyntheticConfig, tokens: int) -> int:
    """Floats an instance adds to a chunk's stacks when it keeps up to `tokens`
    tokens: the tokens, its query and their similarities."""
    query = cfg.n_query_tokens
    return (tokens + query) * cfg.embed_dim + query * tokens


class _Group(NamedTuple):
    """The instances of one chunk whose scored tokens stack to the same shape."""

    members: np.ndarray  # their rows in the chunk, ascending
    query: tuple[np.ndarray, np.ndarray]  # unit_rows of their (g, t, d) query stack
    tokens: np.ndarray  # (g, T, d): each instance's scored tokens


def _instances(
    cfg: SyntheticConfig, n_instances: int, query: np.ndarray | None, all_images: bool, instance_floats: int
):
    """The master generator and a lazy stream of n_instances seeded instances,
    one chunk, as (_Chunk, its _Groups), at a time.

    all_images scores every image of an instance, end to end, else only the
    relevant one. instance_floats bounds what one instance adds to the chunk's
    stacks, as _stacked_floats counts it, and sizes the chunks. The instance
    seeds are the master's first draw; callers may draw more from it as they
    score each chunk. The stream keeps no chunk after yielding it, so a
    consumer that keeps none either (starmap) holds one chunk at a time.
    """
    master = np.random.default_rng(cfg.seed)
    seeds = master.integers(2**63, size=n_instances)
    size = _chunk_instances(instance_floats)
    return master, (_chunk(cfg, seeds[i : i + size], query, all_images) for i in range(0, n_instances, size))


def _chunk(cfg: SyntheticConfig, seeds: np.ndarray, query, all_images: bool):
    """The _Chunk of the instances seeded by seeds, and its _Groups, one per
    scored token count in order of first appearance."""
    chunk = _draw_chunk(cfg, _generators(seeds), len(seeds), query, all_images)
    groups = []
    for n_tokens in dict.fromkeys(chunk.lengths.tolist()):
        members = np.flatnonzero(chunk.lengths == n_tokens)
        rows = slice(None) if members.size == chunk.lengths.size else members
        # A copy of the tokens only when the rows are padded or some of them left out.
        tokens = np.ascontiguousarray(chunk.tokens[rows, :n_tokens])
        groups.append(_Group(members, unit_rows(chunk.query[rows], stack=True), tokens))
    return chunk, groups


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

    A group of relevant images is scored with one cosine call and ranked with
    one pruning._ranks call: a token survives query-aware pruning at every
    ratio whose budget exceeds its rank in the descending score order (the
    lower index first on ties). The budgets are computed once per image size.
    The random baseline keeps, per instance and ratio, the set numpy's choice
    draws from a seed of its own, which each chunk draws from the master as it
    is scored: one synthetic._random_masks call per group gives masks by
    ratio, whose planted entries are the hits.
    """
    master, chunks = _instances(cfg, n_instances, query, False, _stacked_floats(cfg, cfg.tokens_per_image[1]))
    budgets: dict[int, np.ndarray] = {}

    def count(chunk: _Chunk, groups: list[_Group]) -> tuple[int, np.ndarray, np.ndarray]:
        """A chunk's planted tokens, and those kept at each ratio by t2i and by random."""
        random_seeds = master.integers(2**63, size=(len(chunk.relevant), len(keep_ratios)))
        kept_t2i, kept_random = np.zeros((2, len(keep_ratios)), dtype=np.int64)
        for group in groups:
            n_tokens = group.tokens.shape[1]
            if n_tokens not in budgets:
                budgets[n_tokens] = np.array([keep_count(rho, n_tokens) for rho in keep_ratios])
            _, rank = _ranks(_token_scores(group.query, group.tokens, stack=True))
            planted = chunk.planted[group.members]
            planted_rank = np.take_along_axis(rank, planted, axis=-1)
            kept_t2i += np.count_nonzero(planted_rank[..., None] < budgets[n_tokens], axis=(0, 1))
            masks = _random_masks(random_seeds[group.members], n_tokens, budgets[n_tokens].tolist())
            for rows, j, kept in masks:
                kept_random[j] += np.count_nonzero(np.take_along_axis(kept, planted[rows], axis=-1))
        return chunk.planted.size, kept_t2i, kept_random

    total_planted = kept_t2i = kept_random = 0
    # starmap hands each chunk to count and keeps no reference to it.
    for planted, t2i, rand in starmap(count, chunks):
        total_planted, kept_t2i, kept_random = total_planted + planted, kept_t2i + t2i, kept_random + rand
    t2i_retention = (kept_t2i / total_planted).tolist()
    random_retention = (kept_random / total_planted).tolist()
    return {
        "t2i_retention": t2i_retention,
        "random_retention": random_retention,
        "t2i_ge_random": all(t >= r for t, r in zip(t2i_retention, random_retention)),
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
    The value is reported without an acceptance threshold. A chunk's head
    noise is one master draw, each instance's (n_heads, n_tokens) block in
    stream order, the values per-instance draws would give; a group is pooled,
    softmaxed and correlated (metrics._spearman_rows) with one call each. A
    degenerate instance raises what spearman raises for the first one in
    stream order.
    """
    high = cfg.tokens_per_image[1]
    master, chunks = _instances(cfg, n_instances, query, False, _stacked_floats(cfg, high) + n_heads * high)

    def correlate(chunk: _Chunk, groups: list[_Group]) -> np.ndarray:
        """The chunk's correlations, in stream order."""
        widths = n_heads * chunk.lengths
        noise = master.normal(0.0, attention_noise, size=int(widths.sum()))
        offsets = np.cumsum(widths) - widths
        pooled = []
        for group in groups:
            n_tokens = group.tokens.shape[1]
            hard, smooth = _pool(cosine_to_unit(group.query, group.tokens, stack=True))
            heads = noise[offsets[group.members, None] + np.arange(n_heads * n_tokens)]
            mass = softmax(smooth[:, None, :] + heads.reshape(-1, n_heads, n_tokens)).mean(axis=1)
            pooled.append((group.members, hard, mass))
        correlations = np.empty(widths.size)
        try:
            for members, hard, mass in pooled:
                correlations[members] = _spearman_rows(hard, mass)
        except (EmptyInputError, DegenerateConstantError):  # raised by the first bad instance, as spearman
            rows = {i: row for members, *group in pooled for i, row in zip(members.tolist(), zip(*group))}
            for i in sorted(rows):
                spearman(*rows[i])
            raise
        return correlations

    correlations = np.concatenate(list(starmap(correlate, chunks)))
    return {
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

    Each instance's images are stacked end to end, a group of such stacks is
    scored in one cosine call, and each image's best token is a max over its
    row span, for the whole group in one reduceat, and the group's images are
    ranked by one pruning._ranks call. The candidate ids are the image
    indices, so each instance's ranked ids are its row of the order. The
    judgments are kept in stream order.
    """
    _, chunks = _instances(
        cfg, n_instances, query, True, _stacked_floats(cfg, cfg.n_images * cfg.tokens_per_image[1])
    )

    def judge(chunk: _Chunk, groups: list[_Group]) -> list[QueryJudgment]:
        """The chunk's judgments, in stream order."""
        relevant = chunk.relevant.tolist()
        firsts = np.cumsum(chunk.counts, axis=1) - chunk.counts  # each image's first row
        ranked = [None] * len(relevant)
        for group in groups:
            n_tokens = group.tokens.shape[1]
            offsets = np.arange(group.members.size)[:, None] * n_tokens + firsts[group.members]
            tokens = _token_scores(group.query, group.tokens, stack=True)
            best = np.maximum.reduceat(tokens.ravel(), offsets.ravel()).reshape(group.members.size, -1)
            order, _ = _ranks(best)
            for i, row in zip(group.members.tolist(), order.tolist()):
                ranked[i] = QueryJudgment(relevant=frozenset({relevant[i]}), ranked=tuple(row))
        return ranked

    judgments = [judgment for chunk in starmap(judge, chunks) for judgment in chunk]
    evaluation = evaluate_judgments({"synthetic": judgments}, k_values=k_values)
    # The one subset's metrics hold the failure counts and n_unranked.
    return {
        "metrics": evaluation["per_subset"]["synthetic"],
        "failure_taxonomy": {"fractions": evaluation["failure_taxonomy"]["fractions"]},
    }


def run_cost_sweep(
    arch: ArchParams,
    workload: WorkloadSpec,
    tokens_per_candidate: int,
    rho_values: Sequence[float],
    k_values: Sequence[int],
) -> dict:
    """Grid of baseline/pruned FLOPs and speedup over keep ratios and list sizes.

    Each row is the workload with k candidates of tokens_per_candidate tokens
    each at keep ratio rho, its other fields unchanged: cost_report of that
    spec, its regime estimates replaced by the long-context prefill ratio.
    """
    rows = []
    for k in k_values:
        for rho in map(float, rho_values):
            row = dataclasses.replace(workload, rho=rho, image_sizes=((tokens_per_candidate, k),))
            cost = cost_report(row, arch)
            regimes = cost.pop("regime_estimates")
            rows.append({"k": k, "rho": rho, **cost, "prefill_ratio": regimes["longcontext_prefill_ratio"]})
    return {"rows": rows}


def report_json_bytes(report: Mapping) -> bytes:
    """Canonical JSON encoding: sorted keys, two-space indent, trailing newline.

    Identical report dicts serialize to identical bytes, which is what the
    determinism checks compare. JSON has no NaN or infinity, so a report
    holding one at any depth raises NonFiniteError.
    """
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"report holds a NaN or infinite value: {exc}") from exc
    return (text + "\n").encode("utf-8")


# Every table a command writes, as tables/<name>.csv: the one list of them.
# A run removes those it does not write, so no table outlives its report.
TABLES = frozenset({
    "aggregate", "bound_tallies", "cost_sweep", "failure_taxonomy",
    "metrics_by_subset", "pruning_comparison", "ranking_quality",
})


def write_report(out_dir, report: Mapping, tables: Mapping[str, tuple] = ()) -> Path:
    """Write tables/<name>.csv for each of tables, then report.json, under out_dir.

    Each table is (header, rows) with rows as sequences matching the header.
    The old report.json is removed first and the new one written last, so a
    write that fails leaves none. A table of TABLES that this run does not
    write is removed; no other file is touched. Returns the report path.
    """
    data = report_json_bytes(report)
    tables = dict(tables)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    report_path.unlink(missing_ok=True)
    table_dir = out / "tables"
    if tables:
        table_dir.mkdir(exist_ok=True)
    if table_dir.is_dir():
        for name in TABLES - tables.keys():
            (table_dir / f"{name}.csv").unlink(missing_ok=True)
        for name, (header, rows) in tables.items():
            with open(table_dir / f"{name}.csv", "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
    report_path.write_bytes(data)
    return report_path
