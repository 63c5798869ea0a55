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

from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError
from .pruning import _round_product, keep_count


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

    The candidate images are image_sizes, (tokens, count) pairs: a uniform
    list of k images of n tokens is the single pair ((n, k),), so no structure
    grows with k. n_vis and k are their sums. The compressed context keeps
    keep_count(rho, tokens) tokens of each image, the rule pruning applies.
    The bounds on each field are cli._merge's; nothing here checks them again.
    """

    n_text: int
    image_sizes: tuple[tuple[int, int], ...]
    n_query: int
    beta: float
    u_reason: int
    rho: float

    def __post_init__(self):
        # A tuple of tuples, so that a spec built from JSON lists hashes and
        # compares equal to the same spec built from tuples.
        object.__setattr__(self, "image_sizes", tuple(tuple(pair) for pair in self.image_sizes))

    @property
    def n_vis(self) -> int:
        return sum(n * m for n, m in self.image_sizes)

    @property
    def k(self) -> int:
        return sum(m for _, m in self.image_sizes)

    @property
    def n_full(self) -> int:
        return self.n_text + self.n_vis

    @property
    def u_base(self) -> int:
        """Baseline generated tokens: ranking output (~beta*k, keep_count's rounding) plus reasoning."""
        return _round_product(float(self.beta), self.k) + self.u_reason

    @cached_property
    def n_rho(self) -> float:
        """Compressed context length, computed once per spec with one keep_count per image size."""
        return float(self.n_text + sum(keep_count(self.rho, n) * m for n, m in self.image_sizes))


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


def longcontext_prefill_ratio(w: WorkloadSpec) -> float:
    """Closed-form prefill ratio (n_full / (n_text + rho*n_vis))^2.

    When visual tokens dominate the context this approaches 1 / rho^2. The
    denominator is the smooth rho * n_vis, not the per-image n_rho: this is
    the closed form of the limit. rho is taken as a float, so a config's
    integer 1 computes as 1.0. The square is a product, which overflows to
    inf where float ** raises OverflowError.
    """
    compressed = w.n_text + float(w.rho) * w.n_vis
    if compressed == 0:
        raise ConfigError("empty context; prefill ratio undefined")
    ratio = w.n_full / compressed
    return ratio * ratio


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
        "u_base": w.u_base,
        "regime_estimates": {
            "longcontext_prefill_ratio": longcontext_prefill_ratio(w),
            "generation_heavy_decode_ratio": generation_heavy_decode_ratio(w),
        },
    }
