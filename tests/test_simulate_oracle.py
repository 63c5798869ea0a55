"""The simulate drivers as they scored before the one-pass rewrite, as oracles.

Each reference below scores one image, one keep ratio or one head at a time:
per-image similarity_matrix calls, a lexsort_top_k selection per keep ratio,
and a noise draw and softmax per head. Their bodies are kept as they were in
prunerank.experiments, but for two changes: their return values no longer
echo the inputs, as the drivers' no longer do, and the comparison selects
through lexsort_top_k, the keep rule written apart from pruning._ranks. Each
instance and random draw is still seeded one at a time, by default_rng(seed)
inside generate_instance and random_prune, which checks the drivers' seeding
in bulk. The chunked drivers must return dicts equal to these under ==, so
every retention, correlation and metric is bit for bit the same, at their
own chunk size and at one and three instances per chunk; the ragged configs
put several shape groups in a chunk.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np
import pytest

from library_oracles import lexsort_top_k
from prunerank import experiments
from prunerank.attention import attention_mass_per_token, softmax
from prunerank.cli import DEFAULTS, _merge
from prunerank.errors import ConfigError, DegenerateConstantError, EmptyInputError, PrunerankError
from prunerank.experiments import (
    run_correlation_probe,
    run_pruning_comparison,
    run_synthetic_ranking,
)
from prunerank.linalg import similarity_matrix
from prunerank.metrics import QueryJudgment, evaluate_judgments, spearman
from prunerank.pruning import (
    _pool,
    as_keep_ratio,
    keep_count,
    maxsim_scores,
    random_prune,
)
from prunerank.scoring import apply_permutation, rank_from_logits
from prunerank.synthetic import SyntheticConfig, generate_instance
from test_scoring import CandidateList


def _instances(cfg: SyntheticConfig, n_instances: int, query: np.ndarray | None):
    """The master generator and a lazy stream of n_instances seeded instances.

    The instance seeds are the master's first draw; callers may draw more from
    the master afterwards, before or while consuming the stream.
    """
    if n_instances < 1:
        raise ConfigError(f"n_instances must be >= 1, got {n_instances}")
    master = np.random.default_rng(cfg.seed)
    seeds = master.integers(2**63, size=n_instances)
    instances = (
        generate_instance(dataclasses.replace(cfg, seed=int(seed)), query=query) for seed in seeds
    )
    return master, instances


def reference_pruning_comparison(
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
    """
    ratios = [as_keep_ratio(r) for r in keep_ratios]
    if not ratios:
        raise ConfigError("need at least one keep ratio")
    master, instances = _instances(cfg, n_instances, query)
    random_seeds = master.integers(2**63, size=(n_instances, len(ratios)))
    kept_t2i = np.zeros(len(ratios), dtype=np.int64)
    kept_random = np.zeros(len(ratios), dtype=np.int64)
    total_planted = 0
    for i, instance in enumerate(instances):
        image = instance.images[instance.relevant_image]
        planted = set(instance.planted[instance.relevant_image])
        total_planted += len(planted)
        scores = maxsim_scores(similarity_matrix(instance.query, image))
        n_tokens = image.shape[0]
        for j, rho in enumerate(ratios):
            budget = keep_count(rho, n_tokens)
            t2i = lexsort_top_k(scores, budget)
            rand = random_prune(n_tokens, budget, int(random_seeds[i, j]))
            kept_t2i[j] += len(planted.intersection(t2i.tolist()))
            kept_random[j] += len(planted.intersection(rand.tolist()))
    t2i_retention = (kept_t2i / total_planted).tolist()
    random_retention = (kept_random / total_planted).tolist()
    return {
        "t2i_retention": t2i_retention,
        "random_retention": random_retention,
        "t2i_ge_random": bool(
            all(t >= r for t, r in zip(t2i_retention, random_retention))
        ),
    }


def reference_correlation_probe(
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
    The value is reported without an acceptance threshold.
    """
    if n_heads < 1:
        raise ConfigError(f"n_heads must be >= 1, got {n_heads}")
    if attention_noise < 0:
        raise ConfigError(f"attention_noise must be nonnegative, got {attention_noise}")
    master, instances = _instances(cfg, n_instances, query)
    correlations = []
    for instance in instances:
        image = instance.images[instance.relevant_image]
        sims = similarity_matrix(instance.query, image)
        hard, smooth = _pool(sims)
        n_tokens = image.shape[0]
        heads = np.stack(
            [
                softmax(smooth + master.normal(0.0, attention_noise, size=n_tokens))[None, :]
                for _ in range(n_heads)
            ]
        )
        mass = attention_mass_per_token(heads, position=0)
        correlations.append(spearman(hard, mass))
    return {
        "spearman_mean": float(np.mean(correlations)),
        "spearman_min": float(np.min(correlations)),
        "spearman_max": float(np.max(correlations)),
    }


def reference_synthetic_ranking(
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
    """
    _, instances = _instances(cfg, n_instances, query)
    judgments = []
    for instance in instances:
        candidates = CandidateList.from_ids(range(len(instance.images)))
        logits = [
            float(similarity_matrix(instance.query, image).max()) for image in instance.images
        ]
        permutation = rank_from_logits(logits)
        reranked = apply_permutation(list(candidates.ids), permutation)
        judgments.append(
            QueryJudgment(relevant=frozenset({instance.relevant_image}), ranked=tuple(reranked))
        )
    evaluation = evaluate_judgments({"synthetic": judgments}, k_values=k_values)
    return {
        "metrics": evaluation["per_subset"]["synthetic"],
        "failure_taxonomy": evaluation["failure_taxonomy"],
    }


# Ragged images, noisy planted copies, several query rows.
RAGGED = SyntheticConfig(
    n_images=6, tokens_per_image=(12, 30), embed_dim=8, n_query_tokens=3,
    planted_per_image=2, noise_scale=0.3,
)
# Three exact planted copies per relevant image: their scores tie, often at
# exactly 1.0.
TIED = SyntheticConfig(n_images=5, tokens_per_image=(6, 12), planted_per_image=3)
# Width 1: every cosine is exactly +-1, so most of each image ties, and the
# hard scores of an image may all be 1.0, which spearman rejects as constant.
WIDTH_ONE = SyntheticConfig(n_images=4, tokens_per_image=(2, 7), embed_dim=1, n_query_tokens=2)
# One query row.
ONE_ROW = SyntheticConfig(n_images=7, tokens_per_image=(5, 15), n_query_tokens=1, noise_scale=0.5)
CONFIGS = {
    "default": SyntheticConfig(),
    "ragged": RAGGED,
    "tied": TIED,
    "width-one": WIDTH_ONE,
    "one-row": ONE_ROW,
}
SEEDS = (0, 1, 7)


def outcome(driver, *args):
    """What driver(*args) returns, or the class and message of the prunerank error it raises."""
    try:
        return driver(*args)
    except PrunerankError as exc:
        return type(exc), str(exc)


def chunked_outcomes(driver, cfg: SyntheticConfig, *args) -> list:
    """outcome(driver, cfg, *args) at the driver's own chunk size, then at one
    and three instances per chunk."""
    results = [outcome(driver, cfg, *args)]
    for per_chunk in (1, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_chunk_instances", lambda instance_floats: per_chunk)
            results.append(outcome(driver, cfg, *args))
    return results


def explicit_query(cfg: SyntheticConfig) -> np.ndarray:
    return np.random.default_rng(99).standard_normal((cfg.n_query_tokens, cfg.embed_dim))


# Budgets on both sides of synthetic._MAX_DRAWS, so a group's random baseline
# is drawn on arrays at some ratios and by numpy's choice at the others.
TWO_PATHS = SyntheticConfig(tokens_per_image=(200, 200))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", [*CONFIGS, "two-paths"])
@pytest.mark.parametrize("explicit", [False, True], ids=["sampled-query", "explicit-query"])
def test_comparison_equals_reference(name, seed, explicit):
    cfg = dataclasses.replace(CONFIGS.get(name, TWO_PATHS), seed=seed)
    query = explicit_query(cfg) if explicit else None
    ratios = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    expected = reference_pruning_comparison(cfg, ratios, 25, query)
    assert chunked_outcomes(run_pruning_comparison, cfg, ratios, 25, query) == [expected] * 3


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("n_heads, noise", [(1, 0.5), (3, 0.0), (7, 2.0)])
def test_correlation_equals_reference(name, seed, n_heads, noise):
    cfg = dataclasses.replace(CONFIGS[name], seed=seed)
    for query in (None, explicit_query(cfg)):
        results = chunked_outcomes(run_correlation_probe, cfg, 15, n_heads, noise, query)
        assert results == [outcome(reference_correlation_probe, cfg, 15, n_heads, noise, query)] * 3
        assert isinstance(results[0], dict) or name == "width-one"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CONFIGS)
def test_ranking_equals_reference(name, seed):
    cfg = dataclasses.replace(CONFIGS[name], seed=seed)
    for query in (None, explicit_query(cfg)):
        expected = reference_synthetic_ranking(cfg, 20, (1, 2, 4), query)
        assert chunked_outcomes(run_synthetic_ranking, cfg, 20, (1, 2, 4), query) == [expected] * 3


# One-token images, which spearman rejects for having one observation, beside
# width-1 images whose hard scores are often constant: in one chunk the two
# errors interleave in stream order.
DEGENERATE = SyntheticConfig(n_images=3, tokens_per_image=(1, 3), embed_dim=1, n_query_tokens=1)


def test_correlation_raises_the_first_degenerate_instance_in_stream_order():
    """The probe correlates a group at once, but raises what the per-instance
    reference raises: the error of the first degenerate instance."""
    errors = set()
    for seed in range(12):
        cfg = dataclasses.replace(DEGENERATE, seed=seed)
        expected = outcome(reference_correlation_probe, cfg, 15, 2, 0.5, None)
        assert chunked_outcomes(run_correlation_probe, cfg, 15, 2, 0.5, None) == [expected] * 3
        errors.add(expected[0])
    assert errors == {EmptyInputError, DegenerateConstantError}


def test_tie_configs_tie():
    """TIED's planted copies mostly tie, some at exactly 1.0; at width 1 every score is +-1."""
    tied = at_one = 0
    for seed in range(20):
        instance = generate_instance(dataclasses.replace(TIED, seed=seed))
        image = instance.images[instance.relevant_image]
        planted = maxsim_scores(similarity_matrix(instance.query, image))[
            list(instance.planted[instance.relevant_image])
        ]
        tied += len(set(planted.tolist())) < planted.size
        at_one += bool((planted == 1.0).all())
        instance = generate_instance(dataclasses.replace(WIDTH_ONE, seed=seed))
        for image in instance.images:
            assert set(maxsim_scores(similarity_matrix(instance.query, image)).tolist()) <= {-1.0, 1.0}
    assert tied >= 15 and at_one >= 3


def test_one_pass_drivers_check_their_inputs_like_the_references():
    """The references check their inputs themselves; the one-pass drivers' inputs
    are checked once, in cli._merge, before any driver runs."""
    with pytest.raises(ConfigError):
        reference_correlation_probe(SyntheticConfig(), 5, n_heads=0)
    with pytest.raises(ConfigError):
        reference_synthetic_ranking(SyntheticConfig(), 0)
    for override in ({"correlation": {"n_heads": 0}}, {"ranking": {"n_instances": 0}}):
        with pytest.raises(ConfigError, match="must be >= 1"):
            _merge(DEFAULTS["simulate"], override)


@pytest.mark.parametrize("per_chunk, sizes", [(1, [1] * 25), (3, [3] * 8 + [1]), (None, [25])])
def test_chunks_cover_the_stream_in_order(monkeypatch, per_chunk, sizes):
    """A ragged run's chunks hold their share of the stream, in order, and a
    chunk of several instances splits into shape groups, one per token count,
    each stacking its instances' relevant images."""
    instance_floats = experiments._stacked_floats(RAGGED, RAGGED.tokens_per_image[1])
    if per_chunk is not None:
        monkeypatch.setattr(experiments, "CHUNK_BYTES", per_chunk * 8 * instance_floats)
    seeds = np.random.default_rng(RAGGED.seed).integers(2**63, size=25)
    _, chunks = experiments._instances(RAGGED, 25, None, False, instance_floats)
    index, n_groups, start = [], [], 0
    for chunk, groups in chunks:
        index.append(sorted(start + i for group in groups for i in group.members.tolist()))
        n_groups.append(len(groups))
        assert len({group.tokens.shape[1] for group in groups}) == len(groups)
        for group in groups:
            for i, tokens, planted in zip(group.members, group.tokens, chunk.planted[group.members]):
                instance = generate_instance(RAGGED, seed=int(seeds[start + i]))
                assert np.array_equal(tokens, instance.images[instance.relevant_image])
                assert tuple(planted.tolist()) == instance.planted[instance.relevant_image]
        start += len(chunk.relevant)
    assert [len(chunk) for chunk in index] == sizes
    assert sum(index, []) == list(range(25))
    assert max(n_groups) == min(3, max(sizes)) if per_chunk else max(n_groups) > 3
