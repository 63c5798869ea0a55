"""Synthetic embedding instances with planted relevance.

Gaussian embeddings stand in for real query/page-token hidden states. One
designated relevant image carries planted tokens that copy query rows (plus
optional Gaussian noise), so query-aware pruning has an unambiguous signal to
find while every other token is pure noise. Generation is deterministic per
seed; the draw order below is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    cfg: SyntheticConfig, query: Optional[np.ndarray] = None, seed: Optional[int] = None
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
    the block. seed, when given, replaces cfg.seed.
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
