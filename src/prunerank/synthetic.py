"""Synthetic embedding instances with planted relevance, and numpy's streams.

Gaussian embeddings stand in for real query/page-token hidden states. One
designated relevant image carries planted tokens that copy query rows (plus
optional Gaussian noise), so query-aware pruning has an unambiguous signal to
find while every other token is pure noise. Generation is deterministic per
seed, and _draw_chunk's draw order is part of the contract: it draws a chunk
of instances into arrays, and generate_instance is its one-instance case.

This is the one module that knows how np.random.default_rng(seed) draws, and
it replays that bit for bit for a whole array of seeds in [0, 2**64) at once.
_pcg64_seeding is SeedSequence's hash and PCG64's seeding, which NEP 19 keeps
stable; _generators re-states a Generator to each seed for _draw_chunk.
_random_masks replays numpy's choice (pruning._random_keep) with _floyd:
Floyd's sampling over Lemire's bounded integers, which NEP 19 does not cover
and only the tests' TestRandomMasks ties to numpy. _uniform is numpy's scalar
uniform() drawn from one rng.random(), for the bound tallies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, KOutOfRangeError
from .linalg import _as_seed
from .pruning import _random_keep


@dataclass(frozen=True)
class SyntheticConfig:
    """Shape and randomness of one synthetic retrieval instance.

    tokens_per_image is an inclusive (low, high) range sampled per image. The
    constructor checks one single field, the seed (linalg._as_seed), and the
    rules that tie fields together; cli._merge bounds every other field.
    """

    n_images: int = 8
    tokens_per_image: tuple[int, int] = (20, 20)
    embed_dim: int = 16
    n_query_tokens: int = 4
    planted_per_image: int = 1
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_seed(self.seed))
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
    """One generated query with candidate images; planted holds the relevant
    image's planted token positions, ascending."""

    query: np.ndarray
    images: tuple[np.ndarray, ...]
    planted: tuple[int, ...]
    relevant_image: int


def generate_instance(
    cfg: SyntheticConfig, query: Optional[np.ndarray] = None, seed: int | np.random.Generator | None = None
) -> SyntheticInstance:
    """Draw one instance: Gaussian tokens everywhere, planted copies of query
    rows (plus noise_scale * Gaussian noise) inside the single relevant image.

    _draw_chunk's one-instance case, with all images kept: each image is a
    view of the instance's row of tokens. seed, when given, replaces cfg.seed:
    an int as linalg._as_seed checks it, or a Generator, drawn from as it stands.
    """
    generator = isinstance(seed, np.random.Generator)
    rng = np.random.default_rng(seed if generator else _as_seed(cfg.seed if seed is None else seed))
    chunk = _draw_chunk(cfg, [rng], 1, query, all_images=True)
    return SyntheticInstance(
        query=chunk.query[0],
        images=tuple(np.split(chunk.tokens[0], np.cumsum(chunk.counts[0]))[:-1]),
        planted=tuple(chunk.planted[0].tolist()),
        relevant_image=int(chunk.relevant[0]),
    )


class _Chunk(NamedTuple):
    """Instances drawn by _draw_chunk, one row each, in generator order."""

    query: np.ndarray  # (g, n_query_tokens, embed_dim): drawn queries, or the explicit one broadcast
    relevant: np.ndarray  # (g,) relevant-image indices
    counts: np.ndarray  # (g, n_images) token counts
    lengths: np.ndarray  # (g,) tokens written to each row of tokens
    tokens: np.ndarray  # (g, rows, embed_dim): the relevant image, or all images end to end, then padding
    planted: np.ndarray  # (g, planted_per_image) planted positions in the relevant image, ascending


def _draw_chunk(
    cfg: SyntheticConfig, generators: Iterable[np.random.Generator], size: int, query, all_images: bool
) -> _Chunk:
    """size instances, one from each of generators, written straight into a
    _Chunk's rows: every image end to end with all_images, else the relevant one.

    Draw order per generator: query rows, relevant-image index, per-image
    token counts and tokens, planted positions, planted source rows, planted
    noise. An explicit query skips the first draw; its shape must match the
    configured (n_query_tokens, embed_dim), and it is broadcast as every
    instance's query. A fixed image size (low == high) draws no count, as
    numpy's integers(low, low + 1) draws nothing, and draws all images' tokens
    as one (n_images, low, embed_dim) block: the same values, in C order, as
    one draw per image. Tokens not kept go to scratch. One fancy assignment
    then plants every copy: query[source] + noise * noise_scale.
    """
    n, t, d, p = cfg.n_images, cfg.n_query_tokens, cfg.embed_dim, cfg.planted_per_image
    low, high = cfg.tokens_per_image
    queries = np.empty((size, t, d)) if query is None else np.asarray(query, dtype=np.float64)
    if query is not None and queries.shape != (t, d):
        raise ConfigError(f"query shape {queries.shape} does not match configured ({t}, {d})")
    queries = queries if query is None else np.broadcast_to(queries, (size, t, d))
    relevant = np.empty(size, dtype=np.int64)
    counts = np.full((size, n), low, dtype=np.int64)
    tokens = np.empty((size, n * high if all_images else high, d))
    scratch = None if all_images else np.empty((n, low, d) if low == high else (high, d))
    positions, sources = np.empty((2, size, p), dtype=np.int64)
    noise = np.empty((size, p, d))
    for i, rng in enumerate(generators):
        if query is None:
            rng.standard_normal(out=queries[i])
        relevant[i] = target = int(rng.integers(n))
        if low == high and all_images:
            rng.standard_normal(out=tokens[i].reshape(n, low, d))
        elif low == high:
            tokens[i] = rng.standard_normal(out=scratch)[target]
        else:
            start = 0
            for j in range(n):
                counts[i, j] = count = int(rng.integers(low, high + 1))
                if all_images:
                    out, start = tokens[i, start : start + count], start + count
                else:
                    out = tokens[i, :count] if j == target else scratch[:count]
                rng.standard_normal(out=out)
        positions[i] = rng.choice(int(counts[i, target]), size=p, replace=False)
        sources[i] = rng.integers(t, size=p)
        rng.standard_normal(out=noise[i])
    positions.sort(axis=1)
    noise *= cfg.noise_scale
    rows = np.arange(size)[:, None]
    # Where the relevant image starts in its row; the positions are distinct.
    offset = (np.cumsum(counts, axis=1) - counts)[rows, relevant[:, None]] if all_images else 0
    tokens[rows, offset + positions] = queries[rows, sources] + noise
    lengths = counts.sum(axis=1) if all_images else counts[rows[:, 0], relevant]
    return _Chunk(queries, relevant, counts, lengths, tokens, positions)


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """float(rng.uniform(low, high)) bit for bit, value and stream, at one random()'s
    cost: numpy's random_uniform returns low + range * next_double, range = high - low."""
    return low + (high - low) * rng.random()


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, (2549297995355413924 << 64) + 4865540595714422341
_WORD = 0xFFFFFFFF


def _hashmix(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of (rows, n) uint32 words, row by row under the
    running constant, and the constant after the last row."""
    consts = list(accumulate([const] + [mult] * len(words), lambda c, m: c * m & _WORD))
    xors, mults = (np.array(part, dtype=np.uint32)[:, None] for part in (consts[:-1], consts[1:]))
    words = (words ^ xors) * mults
    return words ^ words >> 16, consts[-1]


def _mul128(x_hi, x_lo, c_hi, c_lo) -> tuple[np.ndarray, np.ndarray]:
    """(x * c) mod 2**128 on uint64 (hi, lo) halves: x_lo * c_lo in full, from
    32-bit pieces, plus the low words of the cross terms."""
    a0, a1, b0, b1 = x_lo & _WORD, x_lo >> 32, c_lo & _WORD, c_lo >> 32
    low = a0 * b0
    mid = a1 * b0 + (low >> 32)
    mid2 = a0 * b1 + (mid & _WORD)
    hi = a1 * b1 + (mid >> 32) + (mid2 >> 32) + x_hi * c_lo + x_lo * c_hi
    return hi, mid2 << 32 | low & _WORD


def _pcg64_seeding(seeds: np.ndarray) -> np.ndarray:
    """(*seeds.shape, 4) uint64: for each of seeds (int64 or uint64, in
    [0, 2**64)), the halves (state_hi, state_lo, inc_hi, inc_lo) of the state
    and increment np.random.default_rng(seed) seeds its PCG64 with.

    SeedSequence(seed) hashes the seed's two 32-bit words (an absent high word
    as 0) into a pool of four and gives generate_state(4, uint64): s and the
    stream i. PCG64 takes inc = (i << 1) | 1, steps the LCG (x -> M * x + inc)
    from 0, adds s and steps again: M * s + (1 + M) * inc. The hash runs
    row-wise on a (4, seeds.size) pool; its constants do not depend on the data.
    """
    flat = np.ravel(seeds).astype(np.uint64)
    pool = np.zeros((4, flat.size), dtype=np.uint32)
    pool[0], pool[1] = flat & _WORD, flat >> 32
    pool, const = _hashmix(pool, _INIT_A, _MULT_A)
    for src in range(4):  # each word is mixed into the three others, which it does not read
        dst = [d for d in range(4) if d != src]
        hashed, const = _hashmix(pool[[src] * 3], const, _MULT_A)
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        pool[dst] = mixed ^ mixed >> 16
    # generate_state(4, uint64): the pool cycled twice, each uint64 low word first.
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _INIT_B, _MULT_B)[0].astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = words[0::2] | words[1::2] << 32
    seeding = np.stack([s_hi, s_lo, i_hi << 1 | i_lo >> 63, i_lo << 1 | 1], axis=-1)
    seeding[:, :2] = np.concatenate(_affine(seeding, [(_PCG_MULT, 1 + _PCG_MULT)]), axis=-1)
    return seeding.reshape(*np.shape(seeds), 4)


def _affine(seeding: np.ndarray, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo), each (*seeding.shape[:-1], len(coeffs)) uint64: a * x + b * inc
    mod 2**128 for each (a, b) of coeffs, x and inc as seeding's columns hold them."""
    # One product for both terms: (x, inc) times (a, b), as (2, len(coeffs), 2) halves.
    coeff = np.array([[[c >> 64, c & 2**64 - 1] for c in part] for part in zip(*coeffs)], dtype=np.uint64)
    coeff = coeff.reshape(2, -1, 2)
    hi, lo = _mul128(seeding[..., 0::2, None], seeding[..., 1::2, None], coeff[..., 0], coeff[..., 1])
    lo_sum = lo[..., 0, :] + lo[..., 1, :]
    return hi[..., 0, :] + hi[..., 1, :] + (lo_sum < lo[..., 0, :]), lo_sum


def _pcg64_states(seeding: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """(state_hi, state_lo), each (*seeding.shape[:-1], len(steps)) uint64: the
    PCG64 state of each of _pcg64_seeding's rows after each of steps draws,
    M**t * x + (1 + M + ... + M**(t-1)) * inc. The geometric sum is
    (M**t - 1) / (M - 1), exact from a power mod (M - 1) * 2**128."""
    sums = ((pow(_PCG_MULT, t, (_PCG_MULT - 1) << 128) - 1) // (_PCG_MULT - 1) for t in steps)
    return _affine(seeding, list(zip((pow(_PCG_MULT, t, 2**128) for t in steps), sums)))


def _pcg64_outputs(seeding: np.ndarray, count: int) -> np.ndarray:
    """(len(seeding), count) uint64: the first count outputs of each row's
    PCG64, as np.random.default_rng(seed).bit_generator.random_raw gives them.
    PCG64 steps, then outputs hi ^ lo rotated right by the state's top six bits."""
    hi, lo = _pcg64_states(seeding, range(1, count + 1))
    mixed, rotate = hi ^ lo, hi >> 58
    return mixed >> rotate | mixed << (64 - rotate & 63)


def _restate(rng: np.random.Generator, row: list[int]) -> np.random.Generator:
    """rng with its PCG64 set, through the public state setter, to a row of
    _pcg64_seeding's, so it draws as np.random.default_rng(seed)."""
    s_hi, s_lo, i_hi, i_lo = row
    state = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    return rng


def _generators(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    """A generator for each of seeds (int64 or uint64, in [0, 2**64)), in C
    order, drawing bit for bit as np.random.default_rng(seed): one Generator
    re-stated to each seed in turn, so each is valid until the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    return (_restate(rng, row) for row in _pcg64_seeding(seeds).reshape(-1, 4).tolist())


# numpy's choice(n, k, replace=False) runs Floyd's sampling for every k up to
# n = 10 000. _random_masks replays it there (_floyd) for a budget up to
# _MAX_DRAWS and up to _STREAM_DRAWS a stream past a slice's first
# _MIN_STREAMS: on a 2-core x86 host a _floyd call costs about what choice
# does on 8 streams, and each draw about what it does on half a stream. Its
# slices of rows keep the hash (about 200 bytes a seed) or the replay (80 a
# draw) within _SLICE_BYTES.
_FLOYD_TOKENS, _MAX_DRAWS, _MIN_STREAMS, _STREAM_DRAWS, _SLICE_BYTES = 10_000, 96, 8, 2, 1 << 19


def _random_masks(seeds: np.ndarray, n_tokens: int, budgets) -> Iterator[tuple[slice, int, np.ndarray]]:
    """(rows, j, mask) for each slice of rows of a (streams, len(budgets)) seed
    block and each budgets[j] = k: row i of the (rows, n_tokens) bool mask
    marks the k tokens _random_keep(np.random.default_rng(seeds[rows][i, j]),
    n_tokens, k) keeps, from _floyd or, where that does not apply or rejects,
    from _random_keep itself. Each seed is hashed once."""
    draws = min(max(budgets, default=0), _MAX_DRAWS) + 1
    step = max(1, _SLICE_BYTES // max(200 * len(budgets), 80 * draws))
    rng = np.random.Generator(np.random.PCG64(0))
    for start in range(0, len(seeds), step):
        rows = slice(start, start + step)
        seeding = _pcg64_seeding(seeds[rows])
        for j, k in enumerate(budgets):
            mask = np.zeros((len(seeding), n_tokens), dtype=bool)
            redo = range(len(seeding))
            if n_tokens <= _FLOYD_TOKENS and k <= min(_MAX_DRAWS, _STREAM_DRAWS * (len(seeding) - _MIN_STREAMS)):
                redo = np.flatnonzero(_floyd(seeding[:, j], n_tokens, k, mask)).tolist()
            for row in redo:
                mask[row] = False
                mask[row, _random_keep(_restate(rng, seeding[row, j].tolist()), n_tokens, k)] = True
            yield rows, j, mask


def _floyd(seeding: np.ndarray, n_tokens: int, k: int, out: np.ndarray) -> np.ndarray:
    """Mark in out's rows the k-sets numpy's Floyd sampling draws from
    range(n_tokens) for _pcg64_seeding's rows; return which streams hit a
    Lemire rejection, whose rows are wrong.

    Draw t picks v from range(j + 1), j = n_tokens - k + t, as numpy's bounded
    integers do: the next 32-bit output word u (two per PCG64 output, low
    first) scaled to (u * (j + 1)) >> 32, unless the product's low word falls
    below 2**32 mod (j + 1), where numpy rejects u and draws again. A draw
    from range(1) takes no word. Floyd keeps v, or j when v is already kept;
    the draws are replayed in order, each over all streams at once.
    """
    if n_tokens > _FLOYD_TOKENS:
        raise KOutOfRangeError(f"Floyd sampling needs n_tokens <= {_FLOYD_TOKENS}, got {n_tokens}")
    first = n_tokens - k
    skip = int(first == 0)
    raw = _pcg64_outputs(seeding, (k - skip + 1) // 2)
    words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=-1).reshape(len(seeding), -1)[:, : k - skip]
    span = np.arange(first + skip + 1, n_tokens + 1, dtype=np.uint64)
    scaled = words * span
    rejected = ((scaled & 0xFFFFFFFF) < (1 << 32) % span).any(axis=1)
    drawn = np.zeros((len(seeding), k), dtype=np.int64)
    drawn[:, skip:] = scaled >> 32
    rows = np.arange(len(seeding))
    for j, v in enumerate(drawn.T, first):
        out[rows, np.where(out[rows, v], j, v)] = True
    return rejected
