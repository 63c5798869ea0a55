"""Decoder inference FLOPs model.

Prefill is quadratic in context length (attention) plus a linear feed-forward
term; KV-cached decoding is linear in both context length and generated
tokens. The model compares a baseline autoregressive listwise pipeline
against the pruned single-pass pipeline (token scoring + compressed prefill +
one decode step) and evaluates two closed-form regime approximations. FLOPs
are reported as 64-bit reals since realistic values exceed 1e14; no wall-clock
or hardware behavior is modeled. The helpers take counts and keep ratios as
cli._merge has checked them; only the three ratios whose denominator can be
zero (speedup and the two regime estimates) raise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import ConfigError
from .pruning import keep_count, round_half_away_from_zero

N_RHO_PER_IMAGE = "per_image_exact"
N_RHO_APPROX = "ratio_approximation"


@dataclass(frozen=True)
class ArchParams:
    """Decoder architecture constants.

    The c_* factors fold heads, projections and kernel constants into single
    coefficients. They may be zero so individual cost terms can be isolated
    when studying regimes. cli._merge requires a positive layer count and
    width and nonnegative factors; nothing here checks them again.
    """

    layers: int
    width: int
    c_att: float = 1.0
    c_ffn: float = 1.0
    c_dec: float = 1.0
    c_score: float = 1.0


@dataclass(frozen=True)
class WorkloadSpec:
    """Token accounting for one reranking request.

    The images are described by (size, count) pairs, image_sizes, one per
    distinct image token count; a uniform list of k images of n tokens is
    the single pair ((n, k),), so no structure grows with k. A config's
    image_token_counts list, one count per candidate, is grouped into those
    pairs here, in first-seen order; pass one of the two, not both. When
    pairs are given, the compressed context length uses the exact per-image
    keep rule; otherwise it falls back to the smooth rho * n_vis
    approximation, and the mode is recorded in reports. The constructor
    checks only that the counts add up to k and the tokens to n_vis; the
    bounds on each single field are cli._merge's.
    """

    n_text: int
    n_vis: int
    n_query: int
    k: int
    beta: float
    u_reason: int
    rho: float
    image_token_counts: InitVar[Optional[Sequence[int]]] = None
    image_sizes: Optional[tuple[tuple[int, int], ...]] = None

    def __post_init__(self, image_token_counts):
        if image_token_counts is not None:
            if self.image_sizes is not None:
                raise TypeError("pass image_token_counts or image_sizes, not both")
            sizes = tuple(Counter(int(c) for c in image_token_counts).items())
            object.__setattr__(self, "image_sizes", sizes)
        sizes = self.image_sizes
        if sizes is not None:
            n_images = sum(m for _, m in sizes)
            if n_images != self.k:
                raise ConfigError(f"{n_images} image token counts for k={self.k} candidates")
            n_tokens = sum(n * m for n, m in sizes)
            if n_tokens != self.n_vis:
                raise ConfigError(
                    f"image token counts sum to {n_tokens}, expected n_vis={self.n_vis}"
                )

    @property
    def n_full(self) -> int:
        return self.n_text + self.n_vis

    @property
    def u_base(self) -> int:
        """Baseline generated tokens: ranking output (~beta*k) plus reasoning."""
        return round_half_away_from_zero(self.beta * self.k) + self.u_reason

    @cached_property
    def n_rho(self) -> float:
        """Compressed context length, computed once per spec with one keep_count per image size."""
        if self.image_sizes is not None:
            return float(self.n_text + sum(keep_count(self.rho, n) * m for n, m in self.image_sizes))
        return self.n_text + self.rho * self.n_vis

    @property
    def n_rho_mode(self) -> str:
        return N_RHO_PER_IMAGE if self.image_sizes is not None else N_RHO_APPROX


def prefill_flops(n: float, p: ArchParams) -> float:
    """Context-ingestion cost: layers * (c_att * d * n^2 + c_ffn * d^2 * n)."""
    return p.layers * (p.c_att * p.width * n * n + p.c_ffn * p.width * p.width * n)


def decode_flops(n: float, u: float, p: ArchParams) -> float:
    """KV-cached generation cost: u * layers * c_dec * d * n."""
    return u * p.layers * p.c_dec * p.width * n


def total_flops(n: float, u: float, p: ArchParams) -> float:
    """Prefill plus decode for one request."""
    return prefill_flops(n, p) + decode_flops(n, u, p)


def score_flops(n_query: int, n_vis: int, p: ArchParams) -> float:
    """Early-interaction token scoring cost: c_score * d * n_query * n_vis.

    This is an upper-bound style proxy evaluated as an equality; the real
    kernel is highly parallel and typically lower-order than prefill.
    """
    return p.c_score * p.width * n_query * n_vis


def f_base(w: WorkloadSpec, p: ArchParams) -> float:
    """Baseline pipeline: full-context prefill plus u_base decode steps."""
    return total_flops(w.n_full, w.u_base, p)


def f_zip(w: WorkloadSpec, p: ArchParams) -> float:
    """Pruned single-pass pipeline: scoring + compressed prefill + one decode step."""
    return (
        score_flops(w.n_query, w.n_vis, p)
        + prefill_flops(w.n_rho, p)
        + decode_flops(w.n_rho, 1, p)
    )


def speedup(w: WorkloadSpec, p: ArchParams) -> float:
    """FLOPs ratio of the baseline pipeline over the pruned single-pass one."""
    denom = f_zip(w, p)
    if denom == 0.0:
        raise ConfigError("pruned-pipeline FLOPs are zero; speedup undefined")
    return f_base(w, p) / denom


def longcontext_prefill_ratio(rho: float, n_text: int, n_vis: int) -> float:
    """Closed-form prefill ratio ((n_text + n_vis) / (n_text + rho*n_vis))^2.

    When visual tokens dominate the context this approaches 1 / rho^2. rho is
    taken as a float, so a config's integer 1 computes as 1.0.
    """
    full = n_text + n_vis
    compressed = n_text + float(rho) * n_vis
    if compressed == 0:
        raise ConfigError("empty context; prefill ratio undefined")
    return (full / compressed) ** 2


def generation_heavy_decode_ratio(w: WorkloadSpec) -> float:
    """Closed-form decode ratio u_base * n_full / n_rho.

    Exact when decoding dominates both pipelines; equals u_base at rho = 1.
    """
    n_rho = w.n_rho
    if n_rho == 0:
        raise ConfigError("empty compressed context; decode ratio undefined")
    return w.u_base * w.n_full / n_rho


def cost_report(w: WorkloadSpec, p: ArchParams) -> dict:
    """Full cost summary for one workload, including regime estimates."""
    return {
        "f_base": f_base(w, p),
        "f_zip": f_zip(w, p),
        "speedup": speedup(w, p),
        "n_full": w.n_full,
        "n_rho": w.n_rho,
        "n_rho_mode": w.n_rho_mode,
        "u_base": w.u_base,
        "regime_estimates": {
            "longcontext_prefill_ratio": longcontext_prefill_ratio(w.rho, w.n_text, w.n_vis),
            "generation_heavy_decode_ratio": generation_heavy_decode_ratio(w),
        },
    }
