"""In-memory span tracer wrapped around prunerank's public functions.

Only the traced run installs it. A span wrapper records one span per call
(name, start, end, parent span, op id); a count wrapper only counts calls.
Wrappers replace the function in every prunerank module that binds it, so
re-bound names (``from .linalg import similarity_matrix``) are traced too.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np


def _trials(args, kwargs, result):
    return args[1]  # every tally is called as (rng, trials, ...)


def _similarity_flops(args, kwargs, result):
    # 2 * t * n * d multiply-adds of the cosine GEMM; a computed count, not measured.
    t, n = result.shape
    return 2 * t * n * np.shape(args[0])[1]


def _judgments(args, kwargs, result):
    return sum(len(js) for js in args[0].values())


def _report_bytes(args, kwargs, result):
    return Path(result).stat().st_size


# (module, function, work counter or None). Each gets a span per call.
SPANS = [
    ("linalg", "similarity_matrix", _similarity_flops),
    ("pruning", "prune_images", None),
    ("pruning", "maxsim_scores", None),
    ("pruning", "lse_scores", None),
    ("pruning", "select_topk_preserve_order", None),
    ("pruning", "keep_count", None),
    ("pruning", "random_prune", None),
    ("pruning", "topk_stability_check", None),
    ("attention", "check_pruning_error_bound", None),
    ("attention", "tail_gap_bound_check", None),
    ("attention", "softmax", None),
    ("attention", "attention_mass_per_token", None),
    ("experiments", "_sandwich_tally", _trials),
    ("experiments", "_stability_tally", _trials),
    ("experiments", "_pruning_error_tally", _trials),
    ("experiments", "_tail_gap_tally", _trials),
    ("experiments", "run_pruning_comparison", None),
    ("experiments", "run_correlation_probe", None),
    ("experiments", "run_synthetic_ranking", None),
    ("experiments", "run_cost_sweep", None),
    ("experiments", "write_report", _report_bytes),
    ("synthetic", "generate_instance", None),
    ("scoring", "rank_from_logits", None),
    ("scoring", "apply_permutation", None),
    ("metrics", "evaluate_judgments", _judgments),
    ("metrics", "spearman", None),
    ("cost_model", "cost_report", None),
    ("losses", "weighted_ranknet_loss", None),
    ("losses", "soft_rank_loss", None),
    ("losses", "geometric_target", None),
]

# Validation helpers called so often that a span each would dominate the trace.
COUNTS = [
    ("linalg", "as_embedding"),
    ("linalg", "as_vector"),
    ("attention", "as_attention_weights"),
]

# cli.main gets one span named after its subcommand: config merge, printing
# and dispatch are its self time.
CLI_SUBCOMMANDS = ["verify-bounds", "simulate", "cost-model", "metrics"]

# Rates derived from a work counter and the span's self time.
RATES = {
    "linalg.similarity_matrix": ("gflops", "GFLOP/s", 1e-9),
    "experiments._sandwich_tally": ("trials_per_s", "1/s", 1.0),
    "experiments._stability_tally": ("trials_per_s", "1/s", 1.0),
    "experiments._pruning_error_tally": ("trials_per_s", "1/s", 1.0),
    "experiments._tail_gap_tally": ("trials_per_s", "1/s", 1.0),
    "metrics.evaluate_judgments": ("judgments_per_s", "1/s", 1.0),
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    names = []
    span_names = [f"{m}.{f}" for m, f, _ in SPANS] + [f"cli.{c}" for c in CLI_SUBCOMMANDS]
    for name in span_names:
        names += [(f"{name}.calls", "count/op"), (f"{name}.self_s", "s/op")]
        if name in RATES:
            stat, unit, _ = RATES[name]
            names.append((f"{name}.{stat}", unit))
    names.append(("experiments.write_report.bytes", "B/op"))
    names += [(f"{m}.{f}.calls", "count/op") for m, f in COUNTS]
    names += [
        ("trace.op_s", "s/op"),
        ("trace.unattributed_s", "s/op"),
        ("trace.overhead_ms", "ms"),
    ]
    return names


class Tracer:
    """Collects spans and call counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1
        self._undo: list[tuple] = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op_id])
        self._stack.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op_id = op_id
        return self._begin("op")

    end_op = _end

    def _span_wrapper(self, fn, name, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = self._begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if work is not None:
                self.work[label] += work(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "prunerank" and not mod_name.startswith("prunerank."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        import prunerank.cli
        import prunerank.experiments  # noqa: F401  (loads every traced module)

        for mod, fn, work in SPANS:
            original = getattr(sys.modules[f"prunerank.{mod}"], fn)
            self._replace(original, self._span_wrapper(original, f"{mod}.{fn}", work))
        for mod, fn in COUNTS:
            original = getattr(sys.modules[f"prunerank.{mod}"], fn)
            self._replace(original, self._count_wrapper(original, f"{mod}.{fn}"))
        original = prunerank.cli.main
        self._replace(original, self._span_wrapper(original, lambda args: f"cli.{args[0][0]}", None))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-op calls, self time and derived rates for every traced name.

        Self time is a span's duration minus its children's; the op spans'
        self time is the unattributed remainder, so the self times of all
        names plus trace.unattributed_s add up to trace.op_s.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        op_s = 0.0
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
            if name == "op":
                op_s += end - start
        ops = max(n_ops, 1)
        out: dict[str, float] = {}
        for metric, _unit in per_layer_metrics():
            base, _, stat = metric.rpartition(".")
            if base == "trace":
                continue
            if stat == "calls":
                total = calls[base] + self.counts[base]
                out[metric] = total // ops if total % ops == 0 else total / ops
            elif stat == "self_s":
                out[metric] = self_s[base] / ops
            elif stat == "bytes":
                out[metric] = self.work[base] / ops
            else:
                scale = RATES[base][2]
                out[metric] = self.work[base] * scale / self_s[base] if self_s[base] > 0 else 0.0
        out["trace.op_s"] = op_s / ops
        out["trace.unattributed_s"] = self_s["op"] / ops
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as handle:
            handle.write("op\tparent\tname\tstart\tend\n")
            for name, start, end, parent, op_id in self.spans:
                handle.write(f"{op_id}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
