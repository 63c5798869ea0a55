import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from library_oracles import cosine_similarity
from peak_memory import traced_peak
from prunerank.cli import DEFAULTS, _merge
from prunerank import synthetic
from prunerank.errors import ConfigError, KOutOfRangeError
from prunerank.pruning import maxsim_scores
from prunerank.linalg import similarity_matrix
from prunerank.synthetic import (
    _MAX_DRAWS,
    _MIN_STREAMS,
    _STREAM_DRAWS,
    SyntheticConfig,
    _draw_chunk,
    _floyd,
    _generators,
    _pcg64_outputs,
    _pcg64_seeding,
    _random_masks,
    generate_instance,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = SyntheticConfig()
        assert cfg.tokens_per_image == (20, 20)

    def test_planted_must_fit_smallest_image(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(tokens_per_image=(3, 10), planted_per_image=4)

    def test_range_must_be_ordered(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(tokens_per_image=(10, 3))

    # The rules on a single field have one copy, in cli._merge's leaf tables.
    def test_counts_must_be_positive(self):
        for name in ("n_images", "embed_dim", "n_query_tokens", "planted_per_image"):
            with pytest.raises(ConfigError, match="must be >= 1"):
                _merge(DEFAULTS["simulate"], {"synthetic": {name: 0}})

    def test_noise_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match="must be >= 0"):
            _merge(DEFAULTS["simulate"], {"synthetic": {"noise_scale": -0.1}})


class TestGenerateInstance:
    def test_deterministic_per_seed(self):
        cfg = SyntheticConfig(seed=42, tokens_per_image=(5, 15))
        a = generate_instance(cfg)
        b = generate_instance(cfg)
        np.testing.assert_array_equal(a.query, b.query)
        assert a.relevant_image == b.relevant_image
        assert a.planted == b.planted
        for left, right in zip(a.images, b.images):
            np.testing.assert_array_equal(left, right)

    def test_different_seeds_differ(self):
        a = generate_instance(SyntheticConfig(seed=0))
        b = generate_instance(SyntheticConfig(seed=1))
        assert not np.array_equal(a.query, b.query)

    def test_shapes_match_config(self):
        cfg = SyntheticConfig(n_images=5, tokens_per_image=(4, 9), embed_dim=7, n_query_tokens=3)
        inst = generate_instance(cfg)
        assert inst.query.shape == (3, 7)
        assert len(inst.images) == 5
        for image in inst.images:
            assert 4 <= image.shape[0] <= 9
            assert image.shape[1] == 7

    def test_zero_noise_plants_exact_query_rows(self):
        cfg = SyntheticConfig(seed=7, noise_scale=0.0, planted_per_image=2, n_query_tokens=3)
        inst = generate_instance(cfg)
        image = inst.images[inst.relevant_image]
        for pos in inst.planted:
            best = max(cosine_similarity(image[pos], q) for q in inst.query)
            assert best == pytest.approx(1.0, abs=1e-12)

    def test_only_relevant_image_has_planted_tokens(self):
        inst = generate_instance(SyntheticConfig(seed=3, n_images=6, planted_per_image=2))
        for j, image in enumerate(inst.images):
            scores = maxsim_scores(similarity_matrix(inst.query, image))
            copies = tuple(np.flatnonzero(np.isclose(scores, 1.0, rtol=0, atol=1e-12)).tolist())
            assert copies == (inst.planted if j == inst.relevant_image else ())

    def test_planted_scores_dominate_noise(self):
        # At noise 0.05 and dim 64 the planted tokens should clear the 99th
        # percentile of every non-planted max-similarity score.
        cfg = SyntheticConfig(
            n_images=1,
            tokens_per_image=(20, 20),
            embed_dim=64,
            n_query_tokens=4,
            planted_per_image=1,
            noise_scale=0.05,
        )
        planted_scores, background = [], []
        for seed in range(1000):
            inst = generate_instance(SyntheticConfig(**{**cfg.__dict__, "seed": seed}))
            image = inst.images[inst.relevant_image]
            scores = maxsim_scores(similarity_matrix(inst.query, image))
            planted = set(inst.planted)
            for j, score in enumerate(scores):
                (planted_scores if j in planted else background).append(score)
        threshold = np.percentile(background, 99)
        assert min(planted_scores) > threshold

    def test_external_query_used_verbatim(self):
        cfg = SyntheticConfig(seed=11, n_query_tokens=2, embed_dim=4)
        query = np.arange(8, dtype=float).reshape(2, 4) + 1.0
        inst = generate_instance(cfg, query=query)
        np.testing.assert_array_equal(inst.query, query)

    def test_external_query_shape_checked(self):
        with pytest.raises(ConfigError):
            generate_instance(SyntheticConfig(n_query_tokens=2, embed_dim=4), query=np.ones((3, 4)))


def instance_by_draw_order(cfg, query=None):
    """generate_instance's documented draw order, drawing a count before every
    image even when low == high: (query, images, relevant image, planted positions)."""
    rng = np.random.default_rng(cfg.seed)
    if query is None:
        query = rng.standard_normal((cfg.n_query_tokens, cfg.embed_dim))
    relevant = int(rng.integers(cfg.n_images))
    low, high = cfg.tokens_per_image
    images = []
    for _ in range(cfg.n_images):
        images.append(rng.standard_normal((int(rng.integers(low, high + 1)), cfg.embed_dim)))
    target = images[relevant]
    positions = np.sort(rng.choice(target.shape[0], size=cfg.planted_per_image, replace=False))
    sources = rng.integers(cfg.n_query_tokens, size=cfg.planted_per_image)
    noise = rng.standard_normal((cfg.planted_per_image, cfg.embed_dim)) * cfg.noise_scale
    for row, (pos, src) in enumerate(zip(positions, sources)):
        target[pos] = query[src] + noise[row]
    return query, images, relevant, tuple(int(p) for p in positions)


class TestDrawOrder:
    """A fixed image size draws no count; numpy's integers(low, low + 1) draws
    no bits either, and its one block of all images' tokens holds the values
    one draw per image gives, so the stream matches the documented order."""

    @staticmethod
    def assert_matches_documented_draw_order(cfg, seed, query):
        want_query, want_images, relevant, positions = instance_by_draw_order(cfg, query)
        reseeded = generate_instance(dataclasses.replace(cfg, seed=5), query, seed=seed)
        bulk_seeded = next(_generators(np.array([seed])))
        bulk = generate_instance(dataclasses.replace(cfg, seed=5), query, seed=bulk_seeded)
        for inst in (generate_instance(cfg, query), reseeded, bulk):
            np.testing.assert_array_equal(inst.query, want_query)
            assert len(inst.images) == len(want_images)
            for got, want in zip(inst.images, want_images):
                np.testing.assert_array_equal(got, want)
            assert inst.relevant_image == relevant
            assert inst.planted == positions

    @pytest.mark.parametrize("tokens_per_image", [(20, 20), (3, 3), (5, 15)])
    @pytest.mark.parametrize("seed", [0, 1, 977, 2**63 - 1])
    @pytest.mark.parametrize("explicit_query", [False, True])
    def test_matches_documented_draw_order(self, tokens_per_image, seed, explicit_query):
        cfg = SyntheticConfig(
            n_images=7, tokens_per_image=tokens_per_image, embed_dim=6, n_query_tokens=3,
            planted_per_image=2, noise_scale=0.3, seed=seed,
        )
        query = np.arange(18, dtype=float).reshape(3, 6) - 4.5 if explicit_query else None
        self.assert_matches_documented_draw_order(cfg, seed, query)

    @pytest.mark.parametrize("seed", [0, 1, 977, 2**63 - 1])
    @pytest.mark.parametrize("explicit_query", [False, True])
    def test_default_simulate_config_matches_documented_draw_order(self, seed, explicit_query):
        """8 images of 20 x 16 tokens, one planted copy without noise."""
        cfg = SyntheticConfig(**DEFAULTS["simulate"]["synthetic"], seed=seed)
        query = np.arange(64, dtype=float).reshape(4, 16) - 31.5 if explicit_query else None
        self.assert_matches_documented_draw_order(cfg, seed, query)


class TestDrawChunk:
    """One _draw_chunk call over a block of seeds draws each instance as the
    documented draw order does, in either layout."""

    SEEDS = [0, 1, 977, 2**63 - 1]

    @pytest.mark.parametrize("tokens_per_image", [(20, 20), (5, 15)])
    @pytest.mark.parametrize("explicit_query", [False, True])
    @pytest.mark.parametrize("all_images", [False, True])
    def test_each_row_matches_documented_draw_order(self, tokens_per_image, explicit_query, all_images):
        cfg = SyntheticConfig(
            n_images=7, tokens_per_image=tokens_per_image, embed_dim=6, n_query_tokens=3,
            planted_per_image=2, noise_scale=0.3,
        )
        query = np.arange(18, dtype=float).reshape(3, 6) - 4.5 if explicit_query else None
        seeds = np.array(self.SEEDS, dtype=np.int64)
        chunk = _draw_chunk(cfg, _generators(seeds), len(seeds), query, all_images)
        high = tokens_per_image[1]
        assert chunk.tokens.shape == (len(seeds), 7 * high if all_images else high, 6)
        for row, seed in enumerate(self.SEEDS):
            want_query, images, relevant, positions = instance_by_draw_order(
                dataclasses.replace(cfg, seed=seed), query
            )
            np.testing.assert_array_equal(chunk.query[row], want_query)
            assert chunk.relevant[row] == relevant
            assert chunk.counts[row].tolist() == [len(image) for image in images]
            scored = np.concatenate(images) if all_images else images[relevant]
            np.testing.assert_array_equal(chunk.tokens[row, : len(scored)], scored)
            assert tuple(chunk.planted[row].tolist()) == positions


class TestGenerators:
    """_generators seeds in bulk exactly as np.random.default_rng seeds one at a time."""

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]

    @staticmethod
    def assert_match_default_rng(seeds, dtype):
        rngs = _generators(np.array(seeds, dtype=dtype))
        for seed in seeds:
            rng, reference = next(rngs), np.random.default_rng(seed)
            assert rng.bit_generator.state == reference.bit_generator.state
            np.testing.assert_array_equal(rng.random(8), reference.random(8))
            np.testing.assert_array_equal(
                rng.choice(20, 7, replace=False), reference.choice(20, 7, replace=False)
            )
        assert next(rngs, None) is None

    def test_edge_seeds(self):
        self.assert_match_default_rng(self.EDGE_SEEDS, np.uint64)
        self.assert_match_default_rng([s for s in self.EDGE_SEEDS if s < 2**63], np.int64)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_sampled_seeds(self, seeds):
        self.assert_match_default_rng(seeds, np.uint64)

    def test_a_2d_int64_seed_table_in_row_order(self):
        """int64 seeds as simulate draws them, 2-D as the random baseline's table is."""
        table = np.random.default_rng(3).integers(2**63, size=(40, 5))
        rngs = _generators(table)
        for seed in table.ravel().tolist():
            assert next(rngs).bit_generator.state == np.random.default_rng(seed).bit_generator.state
        assert next(rngs, None) is None

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_no_seeds_yield_nothing(self, dtype):
        assert list(_generators(np.array([], dtype=dtype))) == []


def choice_masks(seeds, n_tokens: int, k: int) -> np.ndarray:
    """The kept sets of np.random.default_rng(seed).choice(n_tokens, k, replace=False), as mask rows."""
    masks = np.zeros((len(seeds), n_tokens), dtype=bool)
    for row, seed in zip(masks, np.asarray(seeds).tolist()):
        row[np.random.default_rng(seed).choice(n_tokens, k, replace=False)] = True
    return masks


def keep_calls(monkeypatch) -> list:
    """The (n_tokens, k) of every synthetic._random_keep call from here on."""
    calls, keep = [], synthetic._random_keep
    monkeypatch.setattr(synthetic, "_random_keep", lambda rng, n, k: calls.append((n, k)) or keep(rng, n, k))
    return calls


def random_masks(seeds, n_tokens: int, budgets) -> np.ndarray:
    """_random_masks' slices of a (streams, len(budgets)) seed block put
    together: (len(budgets), streams, n_tokens)."""
    masks = np.zeros((len(budgets), len(seeds), n_tokens), dtype=bool)
    for rows, j, mask in _random_masks(seeds, n_tokens, budgets):
        masks[j, rows] = mask
    return masks


class TestRandomMasks:
    """_random_masks and its array kernel _floyd draw numpy's own choice sets, bit for bit."""

    # Both seed ends, then simulate's kind of seeds: enough streams for the
    # array path at every budget up to _MAX_DRAWS.
    STREAMS = _MIN_STREAMS + _MAX_DRAWS // _STREAM_DRAWS
    SEEDS = np.array([0, 2**63 - 1, *np.random.default_rng(11).integers(2**63, size=STREAMS - 2)])
    # k = n draws its first token from range(1), which takes no word; n = 10 000
    # is tokens_per_image's bound and still Floyd's in numpy.
    SHAPES = [
        (1, 1), (2, 1), (2, 2), (7, 3), (20, 2), (20, 18), (20, 20), (_MAX_DRAWS, _MAX_DRAWS),
        (200, _MAX_DRAWS), (200, _MAX_DRAWS + 1), (10_000, 1), (10_000, _MAX_DRAWS), (10_000, 300),
    ]

    @pytest.mark.parametrize("n_tokens, k", SHAPES)
    def test_matches_numpy_choice(self, monkeypatch, n_tokens, k):
        calls = keep_calls(monkeypatch)
        expected = choice_masks(self.SEEDS, n_tokens, k)
        assert np.array_equal(random_masks(self.SEEDS[:, None], n_tokens, [k])[0], expected)
        assert len(calls) == (len(self.SEEDS) if k > _MAX_DRAWS else 0)
        if k <= _MAX_DRAWS:
            out = np.zeros_like(expected)
            assert not _floyd(_pcg64_seeding(self.SEEDS), n_tokens, k, out).any()
            assert np.array_equal(out, expected)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_sampled_streams(self, data):
        n_tokens = data.draw(st.integers(1, 300))
        k = data.draw(st.integers(1, min(n_tokens, _MAX_DRAWS)))
        seeds = np.array(data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12)), dtype=np.uint64)
        out = np.zeros((len(seeds), n_tokens), dtype=bool)
        rejected = _floyd(_pcg64_seeding(seeds), n_tokens, k, out)
        expected = choice_masks(seeds, n_tokens, k)
        assert np.array_equal(out[~rejected], expected[~rejected])
        assert np.array_equal(random_masks(seeds[:, None], n_tokens, [k])[0], expected)

    def test_a_seed_block_is_hashed_once_in_slices(self, monkeypatch):
        """50 streams in slices of 20, 20 and 10 rows: the array path takes a
        budget up to _STREAM_DRAWS * (rows - _MIN_STREAMS) and _MAX_DRAWS, 24 and
        4 here, numpy the rest. Each column matches numpy, and each seed is
        hashed once, with its row."""
        budgets = [1, 4, 5, 24, 25, _MAX_DRAWS + 1, 200]
        seeds = np.random.default_rng(7).integers(2**63, size=(50, len(budgets)))
        monkeypatch.setattr(synthetic, "_SLICE_BYTES", 20 * 80 * (_MAX_DRAWS + 1))
        hashed, seeding = [], synthetic._pcg64_seeding
        monkeypatch.setattr(synthetic, "_pcg64_seeding", lambda block: hashed.append(block.shape) or seeding(block))
        calls = keep_calls(monkeypatch)
        masks = random_masks(seeds, 200, budgets)
        for mask, column, k in zip(masks, seeds.T, budgets):
            assert np.array_equal(mask, choice_masks(column, 200, k))
        assert hashed == [(20, len(budgets))] * 2 + [(10, len(budgets))]
        assert sorted(set(calls)) == [(200, k) for k in (5, 24, 25, _MAX_DRAWS + 1, 200)]
        assert len(calls) == 2 * 20 * 3 + 10 * 5

    def test_a_lemire_rejection_is_flagged_and_redrawn_by_numpy(self, monkeypatch):
        """Seed 4729's 96 draws from 10 000 tokens hit a rejected word, which shifts
        every later draw; the kernel flags the stream and numpy's own call redraws it."""
        assert 96 <= _MAX_DRAWS
        seeds = np.arange(4726, 4726 + _MIN_STREAMS + 96 // _STREAM_DRAWS)
        out = np.zeros((len(seeds), 10_000), dtype=bool)
        rejected = _floyd(_pcg64_seeding(seeds), 10_000, 96, out)
        expected = choice_masks(seeds, 10_000, 96)
        assert seeds[rejected].tolist() == [4729]
        assert not np.array_equal(out[rejected], expected[rejected])
        calls = keep_calls(monkeypatch)
        assert np.array_equal(random_masks(seeds[:, None], 10_000, [96])[0], expected)
        assert calls == [(10_000, 96)]

    def test_few_streams_for_the_draws_and_more_than_10_000_tokens_take_numpy(self, monkeypatch):
        calls = keep_calls(monkeypatch)
        k = 20
        enough = self.SEEDS[: _MIN_STREAMS + k // _STREAM_DRAWS]
        few = enough[:-1]
        for seeds in (enough, few):
            assert np.array_equal(random_masks(seeds[:, None], 30, [k])[0], choice_masks(seeds, 30, k))
        assert len(calls) == len(few)
        assert np.array_equal(random_masks(self.SEEDS[:, None], 10_001, [5])[0], choice_masks(self.SEEDS, 10_001, 5))
        assert len(calls) == len(few) + len(self.SEEDS)
        with pytest.raises(KOutOfRangeError, match="10000"):
            _floyd(_pcg64_seeding(self.SEEDS), 10_001, 5, np.zeros((len(self.SEEDS), 10_001), dtype=bool))

    @pytest.mark.parametrize(
        "n_tokens, budgets, streams",
        [
            (20, [18], 5000), (20, [1], 20_000), (200, [_MAX_DRAWS], 2000),
            (20, [2, 6, 10, 14, 18], 3000), (20, [1] * 100, 300),
        ],
    )
    def test_temporaries_stay_below_one_mib(self, n_tokens, budgets, streams):
        seeds = np.random.default_rng(5).integers(2**63, size=(streams, len(budgets)))

        def drain():
            for _ in _random_masks(seeds, n_tokens, budgets):
                pass

        assert traced_peak(drain) < 2**20


@given(st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=6), st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_pcg64_outputs_are_random_raw(seeds, count):
    """_pcg64_outputs jumps to each output as numpy's PCG64 steps to it."""
    seeds = [0, 2**63 - 1, 2**64 - 1, *seeds]
    outputs = _pcg64_outputs(_pcg64_seeding(np.array(seeds, dtype=np.uint64)), count)
    assert outputs.shape == (len(seeds), count)
    for row, seed in zip(outputs, seeds):
        assert np.array_equal(row, np.random.default_rng(seed).bit_generator.random_raw(count))
