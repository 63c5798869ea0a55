"""Synthetic embedding instances with planted relevance.

Gaussian embeddings stand in for real query/page-token hidden states. One
designated relevant image carries planted tokens that copy query rows (plus
optional Gaussian noise), so query-aware pruning has an unambiguous signal to
find while every other token is pure noise. Generation is deterministic per
seed; the draw order below is part of the contract. _generators seeds a whole
array of seeds in one pass, each bit for bit as np.random.default_rng(seed)
over [0, 2**64), which is how simulate seeds its instances and random draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SyntheticConfig:
    """Shape and randomness of one synthetic retrieval instance.

    tokens_per_image is an inclusive (low, high) range sampled per image. The
    constructor checks only the rules that tie fields together; the bounds on
    each single field are cli._merge's.
    """

    n_images: int = 8
    tokens_per_image: tuple[int, int] = (20, 20)
    embed_dim: int = 16
    n_query_tokens: int = 4
    planted_per_image: int = 1
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tokens_per_image", tuple(int(t) for t in self.tokens_per_image))
        if len(self.tokens_per_image) != 2:
            raise ConfigError("tokens_per_image must be an inclusive (low, high) pair")
        low, high = self.tokens_per_image
        if high < low:
            raise ConfigError(f"invalid tokens_per_image range ({low}, {high})")
        if self.planted_per_image > low:
            raise ConfigError(
                f"planted_per_image ({self.planted_per_image}) exceeds the smallest "
                f"possible image ({low} tokens)"
            )


@dataclass(frozen=True)
class SyntheticInstance:
    """One generated query with candidate images and planted-token bookkeeping."""

    query: np.ndarray
    images: tuple[np.ndarray, ...]
    planted: dict
    relevant_image: int


def generate_instance(
    cfg: SyntheticConfig, query: Optional[np.ndarray] = None, seed: int | np.random.Generator | None = None
) -> SyntheticInstance:
    """Draw one instance: Gaussian tokens everywhere, planted copies of query
    rows (plus noise_scale * Gaussian noise) inside the single relevant image.

    Draw order per seed: query rows, relevant-image index, per-image token
    counts and tokens, planted positions, planted source rows, planted noise.
    Passing an explicit query skips the first draw; its shape must match the
    configured (n_query_tokens, embed_dim). A fixed image size (low == high)
    draws no count, as numpy's integers(low, low + 1) draws nothing, and draws
    all images' tokens as one (n_images, low, embed_dim) block: the same
    values, in C order, as one draw per image, and each image is a view of
    the block. seed, when given, replaces cfg.seed; a Generator given as seed
    is drawn from as it stands, as np.random.default_rng returns it.
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    if query is None:
        query = rng.standard_normal((cfg.n_query_tokens, cfg.embed_dim))
    else:
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (cfg.n_query_tokens, cfg.embed_dim):
            raise ConfigError(
                f"query shape {query.shape} does not match configured "
                f"({cfg.n_query_tokens}, {cfg.embed_dim})"
            )
    relevant = int(rng.integers(cfg.n_images))
    low, high = cfg.tokens_per_image
    if low == high:
        images = tuple(rng.standard_normal((cfg.n_images, low, cfg.embed_dim)))
    else:
        images = tuple(
            rng.standard_normal((int(rng.integers(low, high + 1)), cfg.embed_dim))
            for _ in range(cfg.n_images)
        )
    target = images[relevant]
    positions = np.sort(rng.choice(target.shape[0], size=cfg.planted_per_image, replace=False))
    sources = rng.integers(cfg.n_query_tokens, size=cfg.planted_per_image)
    noise = rng.standard_normal((cfg.planted_per_image, cfg.embed_dim)) * cfg.noise_scale
    # The positions are distinct, so one fancy assignment plants every copy.
    target[positions] = query[sources] + noise
    return SyntheticInstance(
        query=query,
        images=images,
        planted={relevant: tuple(positions.tolist())},
        relevant_image=relevant,
    )


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier, which
# NEP 19 keeps stable so that default_rng(seed) draws the same in every numpy.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, (2549297995355413924 << 64) + 4865540595714422341


def _hashmix(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words under the running constant, and the next constant."""
    step = const * mult & 0xFFFFFFFF
    words = (words ^ const) * step
    return words ^ words >> 16, step


def _generators(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    """A generator for each of seeds (int64 or uint64, in [0, 2**64)), in
    order, drawing bit for bit as np.random.default_rng(seed).

    SeedSequence(seed)'s hashing (the seed's two 32-bit words, an absent high
    word as 0, into a pool of four, then generate_state(4, uint64)) runs on
    whole uint32 arrays. Each seed's PCG64 seeding (inc = (i0:i1 << 1) | 1,
    one LCG step from 0, add s0:s1, step again) is then set on one Generator
    through the public state setter, so each generator yielded is valid until
    the next is.
    """
    seeds = np.ravel(seeds).astype(np.uint64)
    zero = np.zeros(seeds.size, dtype=np.uint32)
    pool = [seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero]
    const = _INIT_A
    for i in range(4):
        pool[i], const = _hashmix(pool[i], const, _MULT_A)
    for src, dst in permutations(range(4), 2):
        hashed, const = _hashmix(pool[src], const, _MULT_A)
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        pool[dst] = mixed ^ mixed >> 16
    words, const = [], _INIT_B
    for i in range(8):  # generate_state(4, uint64): the pool cycled, each uint64 low word first
        word, const = _hashmix(pool[i % 4], const, _MULT_B)
        words.append(word.astype(np.uint64))
    halves = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    bit_generator = np.random.PCG64(0)
    state = bit_generator.state  # has_uint32 and uinteger are 0, as after any seeding
    rng = np.random.Generator(bit_generator)
    for s0, s1, i0, i1 in zip(*(half.tolist() for half in halves)):
        inc = ((i0 << 64 | i1) << 1 | 1) % 2**128
        state["state"] = {"state": (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) % 2**128, "inc": inc}
        bit_generator.state = state
        yield rng
