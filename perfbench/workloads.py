"""The four benchmark workloads: seeded inputs, one op, and the op's check.

Each workload is built from (seed, size, out_dir). ``setup()`` generates the
inputs and any oracle; ``op(i)`` is the timed request; ``check(output)``
compares its output with the oracle or the pinned values and returns a Check.
The benchmark calls into prunerank through module attributes only, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference
from prunerank import cli, losses, pruning, scoring

RHOS = (0.1, 0.3, 0.5, 0.7, 0.9)

# Two scores closer than this at the keep boundary are a near-tie: either
# token may be kept, since the oracle and the library round differently.
TIE_TOL = 1e-12

# Relative tolerance for floats that two computation orders may round apart.
REL_TOL = 1e-9


@dataclass
class Check:
    ok: bool
    detail: str = ""
    near_ties: int = 0


def _close(a, b, rel=REL_TOL, abs_tol=1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _first_mismatch(report: dict, pins: dict, prefix: str = "") -> str:
    """Name of the first pinned field whose report value differs, or ''."""
    for key, want in pins.items():
        got = report.get(key) if isinstance(report, dict) else None
        where = f"{prefix}{key}"
        if isinstance(want, dict):
            bad = _first_mismatch(got, want, where + ".")
            if bad:
                return bad
        elif isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                return where
            if not all(_close(g, w) for g, w in zip(got, want)):
                return where
        elif isinstance(want, float):
            if not isinstance(got, (int, float)) or not _close(got, want):
                return where
        elif got != want:
            return where
    return ""


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.seed = seed
        self.size = size
        self.out_dir = Path(out_dir)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, output) -> Check:
        raise NotImplementedError

    def provenance(self) -> dict:
        """Input sizes and computed (not measured) work per op."""
        raise NotImplementedError

    def reference_kernel(self):
        """The host-speed reference kernel (reference.py) that resembles this op."""
        return reference.small_arrays()


# ---------------------------------------------------------------- paper-prune


@dataclass
class _Expected:
    kept: tuple
    keep_count: int
    sure: frozenset = frozenset()  # kept whatever the rounding, when there is a near-tie
    band: frozenset = frozenset()  # near-tied at the boundary; empty when none


@dataclass
class _Request:
    H: np.ndarray
    rho: float
    expected: list


def oracle_keep_count(rho: float, n: int) -> int:
    """max(1, round-half-away(rho * n)) on the decimal value of rho, capped at n."""
    return min(n, max(1, math.floor(Fraction(repr(rho)) * n + Fraction(1, 2))))


def oracle_prune(H: np.ndarray, image: np.ndarray, rho: float) -> _Expected:
    """Brute-force kept indices of one image, by a path independent of pruning.py.

    Token score is max over query rows of (v . h) / (|v| |h|), computed as
    image @ H.T with norms divided out afterwards; the top k are chosen by a
    lexsort that puts the lower index first on equal scores.
    """
    h_norms = np.sqrt(np.einsum("td,td->t", H, H))
    v_norms = np.sqrt(np.einsum("nd,nd->n", image, image))
    scores = (image @ H.T / h_norms[None, :]).max(axis=1) / v_norms
    n = scores.size
    k = oracle_keep_count(rho, n)
    order = np.lexsort((np.arange(n), -scores))
    kept = tuple(int(i) for i in np.sort(order[:k]))
    if k == n or scores[order[k - 1]] - scores[order[k]] > TIE_TOL:
        return _Expected(kept, k)
    edge = scores[order[k - 1]]
    band = frozenset(int(i) for i in np.flatnonzero(np.abs(scores - edge) <= TIE_TOL))
    return _Expected(kept, k, sure=frozenset(kept) - band, band=band)


def check_prune(result, expected: _Expected) -> tuple[bool, bool]:
    """(ok, near_tie) for one image's PruneResult against the oracle."""
    got = tuple(result.kept_indices)
    if result.keep_count != expected.keep_count or len(got) != expected.keep_count:
        return False, False
    if got == expected.kept:
        return True, False
    if not expected.band or list(got) != sorted(set(got)):
        return False, False
    kept = set(got)
    ok = expected.sure <= kept and kept <= expected.sure | expected.band
    return ok, ok


class PaperPrune(Workload):
    """One prune_images request at paper scale, cycled from a seeded pool.

    The pool holds one request per rho, in a seeded order, so every seed
    mixes the same keep ratios; the ratio changes the cost of an op.
    """

    name = "paper-prune"
    SIZES = {
        "full": dict(n_query=32, n_images=20, n_tokens=1024, dim=4096),
        "tiny": dict(n_query=4, n_images=3, n_tokens=16, dim=8),
    }

    def setup(self) -> None:
        s = self.SIZES[self.size]
        rng = np.random.default_rng(self.seed)
        # One token set shared by the pool keeps memory at one request (671 MB
        # at full size, above the L3 cache); each request has its own query and rho.
        self.tokens = np.empty((s["n_images"], s["n_tokens"], s["dim"]))
        rng.standard_normal(out=self.tokens)
        self.images = list(self.tokens)
        self.requests = []
        for rho in rng.permutation(RHOS).tolist():
            H = rng.standard_normal((s["n_query"], s["dim"]))
            expected = [oracle_prune(H, image, rho) for image in self.images]
            self.requests.append(_Request(H, rho, expected))

    def reference_kernel(self):
        return reference.image_stream(self.images)

    def op(self, i: int):
        request = self.requests[i % len(self.requests)]
        return request, pruning.prune_images(request.H, self.images, request.rho)

    def check(self, output) -> Check:
        request, results = output
        if len(results) != len(request.expected):
            return Check(False, f"{len(results)} results for {len(request.expected)} images")
        near = 0
        for i, (result, expected) in enumerate(zip(results, request.expected)):
            ok, tie = check_prune(result, expected)
            if not ok:
                return Check(False, f"image {i}: kept indices differ from the oracle")
            near += tie
        return Check(True, near_ties=near)

    def provenance(self) -> dict:
        s = self.SIZES[self.size]
        t, m, n, d = s["n_query"], s["n_images"], s["n_tokens"], s["dim"]
        return {
            "inputs": {**s, "dtype": "float64", "rhos": [r.rho for r in self.requests]},
            "computed_per_op": {
                "similarity_gemm_flops": 2 * t * m * n * d,
                "image_bytes": m * n * d * 8,
                "query_bytes": t * d * 8,
            },
        }


# ------------------------------------------------------------ CLI workloads


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class _CliWorkload(Workload):
    """Shared plumbing: report bytes of every op must equal the first op's."""

    def _report(self, out: Path, code: int, reference_key: str) -> tuple[dict | None, str]:
        if code != 0:
            return None, f"{reference_key}: exit code {code}"
        data = (out / "report.json").read_bytes()
        reference = self.reference.setdefault(reference_key, data)
        if data != reference:
            return None, f"{reference_key}: report.json bytes differ from the first op"
        return json.loads(data), ""


# verify-bounds fields at the full-size config and seed 0.
BOUNDS_PINS_SEED0 = {
    "bounds": {
        "checks": {
            "score_sandwich": {"equality_checks": 1238},
            "topk_stability": {"premise_count": 1417},
        }
    },
    "selftest": {"failures_detected": 104},
}


class BoundsCli(_CliWorkload):
    """One in-process verify-bounds run at a quarter of the default trial counts.

    The default config (4 x 10 000 trials and a 2 000-trial self-test) takes
    about 4 s, so a run would time only five ops; every trial does the same
    work at a quarter of the count, and a run times four times as many ops.
    """

    name = "bounds-cli"
    SIZES = {"full": {"trials": 2500, "selftest_trials": 500}, "tiny": {"trials": 200, "selftest_trials": 400}}

    def setup(self) -> None:
        self.reference = {}
        self.out = self.out_dir / "verify-bounds"
        self.cfg = dict(cli.DEFAULTS["verify-bounds"], **self.SIZES[self.size])
        path = self.out_dir / "verify-bounds.json"
        path.write_text(json.dumps(self.SIZES[self.size]))
        self.argv = ["verify-bounds", "--seed", str(self.seed), "--out", str(self.out), "--config", str(path)]

    def op(self, i: int):
        return run_cli(self.argv)

    def check(self, output) -> Check:
        report, why = self._report(self.out, output, "verify-bounds")
        if report is None:
            return Check(False, why)
        trials = self.cfg["trials"]
        checks = report["bounds"]["checks"]
        pins = {
            "pass": True,
            "bounds": {
                "total_failures": 0,
                "checks": {
                    name: {"trials": trials, "failures": 0}
                    for name in ("score_sandwich", "topk_stability", "pruning_error_bound", "tail_gap_bound")
                },
            },
            "selftest": {"pass": True, "trials": self.cfg["selftest_trials"]},
        }
        bad = _first_mismatch(report, pins)
        if not bad and self.seed == 0 and self.size == "full":
            bad = _first_mismatch(report, BOUNDS_PINS_SEED0)
        if bad:
            return Check(False, f"verify-bounds: {bad}")
        counts = (
            checks["score_sandwich"]["equality_checks"],
            checks["topk_stability"]["premise_count"],
        )
        if not all(0 < c <= trials for c in counts) or report["selftest"]["failures_detected"] < 1:
            return Check(False, "verify-bounds: premise or self-test counts out of range")
        return Check(True)

    def provenance(self) -> dict:
        cfg = self.cfg
        return {
            "inputs": {"argv": self.argv, **cfg},
            "computed_per_op": {"bound_trials": 4 * cfg["trials"] + 4 * cfg["selftest_trials"]},
        }


# simulate fields at default config and seed 0; cost-model does not depend on the seed.
SIMULATE_PINS_SEED0 = {
    "pruning_comparison": {"random_retention": [0.096, 0.317, 0.485, 0.708, 0.897]},
    "correlation": {
        "spearman_mean": 0.3708045112781955,
        "spearman_min": -0.26165413533834586,
        "spearman_max": 0.8105263157894737,
    },
    "ranking_quality": {
        "metrics": {
            "failure_counts": {"success": 184, "near_miss": 69, "moderate_miss": 33, "catastrophic_miss": 14},
            "mean_rank": 1.9233333333333333,
            "p@1": 0.6133333333333333,
            "recall@1": 0.6133333333333333,
            "recall@3": 0.8433333333333334,
            "recall@5": 0.9533333333333334,
            "ndcg@1": 0.6133333333333333,
            "ndcg@3": 0.748409228880957,
            "ndcg@5": 0.7950532544217158,
        }
    },
}
COST_PINS = {"cost": {"f_base": 160707475668992.0, "f_zip": 53403220705280.0, "n_full": 20992}}


def oracle_metrics(judgments: list[dict], k_values) -> dict:
    """Micro and macro recall@k, ndcg@k, p@1, failure counts, by brute force."""
    per_subset: dict[str, dict[str, list]] = {}
    counts = {"success": 0, "near_miss": 0, "moderate_miss": 0, "catastrophic_miss": 0}
    unranked = 0
    for entry in judgments:
        relevant, ranked = set(entry["relevant"]), entry["ranked"]
        values = per_subset.setdefault(entry["subset"], {})
        hits = [item in relevant for item in ranked]
        for k in k_values:
            values.setdefault(f"recall@{k}", []).append(sum(hits[:k]) / len(relevant))
            dcg = sum(1 / math.log2(p + 2) for p, hit in enumerate(hits[:k]) if hit)
            ideal = sum(1 / math.log2(p + 2) for p in range(min(k, len(relevant))))
            values.setdefault(f"ndcg@{k}", []).append(dcg / ideal)
        values.setdefault("p@1", []).append(float(hits[0]))
        if not any(hits):
            unranked += 1
            continue
        rank = hits.index(True) + 1
        label = ("success" if rank == 1 else "near_miss" if rank <= 3
                 else "moderate_miss" if rank <= 5 else "catastrophic_miss")
        counts[label] += 1
    overall = {}
    for metric in per_subset[next(iter(per_subset))]:
        pooled = [v for values in per_subset.values() for v in values[metric]]
        means = [math.fsum(values[metric]) / len(values[metric]) for values in per_subset.values()]
        overall[metric] = {"micro": math.fsum(pooled) / len(pooled), "macro": math.fsum(means) / len(means)}
    return {"overall": overall, "failure_taxonomy": {"counts": counts, "n_unranked": unranked}}


class SmallCli(_CliWorkload):
    """simulate and cost-model at default config, plus metrics on generated judgments."""

    name = "small-cli"
    SIZES = {
        "full": dict(subsets=10, judgments=1000, ranked=20, simulate={}),
        "tiny": dict(
            subsets=2, judgments=20, ranked=20,
            simulate={"n_instances": 20, "correlation": {"n_instances": 10}, "ranking": {"n_instances": 10}},
        ),
    }
    K_VALUES = [1, 3, 5]

    def setup(self) -> None:
        s = self.SIZES[self.size]
        self.reference = {}
        rng = np.random.default_rng(self.seed)
        # Candidates come from a pool a little larger than the ranked list, so
        # some queries have no relevant item ranked at all.
        pool = s["ranked"] + 4
        self.judgments = []
        for subset in range(s["subsets"]):
            for _ in range(s["judgments"]):
                n_relevant = int(rng.integers(1, 4))
                self.judgments.append({
                    "subset": f"s{subset}",
                    "relevant": rng.choice(pool, size=n_relevant, replace=False).tolist(),
                    "ranked": rng.permutation(pool)[: s["ranked"]].tolist(),
                })
        self.expected_metrics = oracle_metrics(self.judgments, self.K_VALUES)
        metrics_cfg = self.out_dir / "metrics-config.json"
        metrics_cfg.write_text(json.dumps({"k_values": self.K_VALUES, "judgments": self.judgments}))
        self.outs = {name: self.out_dir / name for name in ("simulate", "cost-model", "metrics")}
        seed = ["--seed", str(self.seed)]
        self.argvs = {name: [name, *seed, "--out", str(out)] for name, out in self.outs.items()}
        self.argvs["metrics"] += ["--config", str(metrics_cfg)]
        self.simulate_cfg = s["simulate"]
        if self.simulate_cfg:
            path = self.out_dir / "simulate.json"
            path.write_text(json.dumps(self.simulate_cfg))
            self.argvs["simulate"] += ["--config", str(path)]

    def reference_kernel(self):
        return reference.cli_mix()

    def op(self, i: int):
        return {name: run_cli(argv) for name, argv in self.argvs.items()}

    def check(self, output) -> Check:
        reports = {}
        for name, code in output.items():
            report, why = self._report(self.outs[name], code, name)
            if report is None:
                return Check(False, why)
            reports[name] = report
        sim = reports["simulate"]
        n_ratios = len(cli.DEFAULTS["simulate"]["keep_ratios"])
        # Planted tokens copy a query row exactly, so query-aware pruning keeps them all.
        bad = _first_mismatch(sim, {"pass": True, "pruning_comparison": {"t2i_retention": [1.0] * n_ratios}})
        if not bad and self.seed == 0 and self.size == "full":
            bad = _first_mismatch(sim, SIMULATE_PINS_SEED0)
        bad = bad or _first_mismatch(reports["cost-model"], COST_PINS)
        bad = bad or _first_mismatch(reports["metrics"]["evaluation"], self.expected_metrics)
        if bad:
            return Check(False, bad)
        return Check(True)

    def provenance(self) -> dict:
        s = self.SIZES[self.size]
        return {
            "inputs": {
                "argvs": self.argvs,
                "simulate_overrides": self.simulate_cfg,
                "judgments": {k: s[k] for k in ("subsets", "judgments", "ranked")},
            },
            "computed_per_op": {"judgments_evaluated": s["subsets"] * s["judgments"]},
        }


# ------------------------------------------------------------ listwise-train


def oracle_ranknet(s: list[float], ranks: list[int]) -> tuple[float, list[float]]:
    value, grad = 0.0, [0.0] * len(s)
    for i in range(len(s)):
        for j in range(len(s)):
            if ranks[i] < ranks[j]:
                w = 1.0 / (ranks[i] + ranks[j])
                x = s[j] - s[i]
                value += w * (max(x, 0.0) + math.log1p(math.exp(-abs(x))))
                g = w / (1.0 + math.exp(-x))
                grad[j] += g
                grad[i] -= g
    return value, grad


def oracle_soft_rank(s: list[float], teacher: list[int], gamma: float) -> tuple[float, list[float]]:
    raw = [gamma**p for p in range(len(s))]
    total = math.fsum(raw)
    q = [0.0] * len(s)
    for p, item in enumerate(teacher):
        q[item] = raw[p] / total
    shift = max(s)
    log_norm = shift + math.log(math.fsum(math.exp(x - shift) for x in s))
    value = log_norm - math.fsum(qi * si for qi, si in zip(q, s))
    return value, [math.exp(x - log_norm) - qi for x, qi in zip(s, q)]


class ListwiseTrain(Workload):
    """One batch of identifier-logit lists through scoring and every loss."""

    name = "listwise-train"
    SIZES = {"full": dict(lists=1000, m=20, checked=16), "tiny": dict(lists=10, m=20, checked=4)}
    GAMMA = 0.7
    LAMBDA = 0.5

    def setup(self) -> None:
        s = self.SIZES[self.size]
        rng = np.random.default_rng(self.seed)
        n, m = s["lists"], s["m"]
        self.logits = rng.standard_normal((n, m)) * 2.0
        self.teachers = np.argsort(rng.standard_normal((n, m)), axis=1)
        self.ranks = np.empty_like(self.teachers)
        np.put_along_axis(self.ranks, self.teachers, np.arange(1, m + 1)[None, :], axis=1)
        self.step_probs = rng.uniform(0.05, 1.0, size=(n, m))
        self.candidates = [chr(ord("A") + j) for j in range(m)]
        self.expected = []
        for b in range(s["checked"]):
            logits = self.logits[b].tolist()
            rn_value, rn_grad = oracle_ranknet(logits, self.ranks[b].tolist())
            sr_value, sr_grad = oracle_soft_rank(logits, self.teachers[b].tolist(), self.GAMMA)
            base = -math.fsum(math.log(p) for p in self.step_probs[b])
            order = sorted(range(m), key=lambda j: (-logits[j], j))
            self.expected.append({
                "reranked": [self.candidates[j] for j in order],
                "ranknet": (rn_value, rn_grad),
                "soft_rank": (sr_value, sr_grad),
                "stage": base + self.LAMBDA * rn_value,
            })

    def op(self, i: int):
        out = []
        for b in range(self.logits.shape[0]):
            s = self.logits[b]
            permutation = scoring.rank_from_logits(s)
            reranked = scoring.apply_permutation(self.candidates, permutation)
            target = losses.geometric_target(self.teachers[b], self.GAMMA)
            ranknet = losses.weighted_ranknet_loss(s, self.ranks[b])
            soft = losses.soft_rank_loss(s, target)
            stage = losses.stage_loss(losses.nll_loss(self.step_probs[b]), ranknet, self.LAMBDA)
            out.append((reranked, ranknet, soft, stage))
        return out

    def check(self, output) -> Check:
        if len(output) != self.logits.shape[0]:
            return Check(False, f"{len(output)} results for {self.logits.shape[0]} lists")
        for b, (reranked, ranknet, soft, stage) in enumerate(output):
            for name, loss in (("ranknet", ranknet), ("soft_rank", soft)):
                if abs(float(np.sum(loss.gradient))) > 1e-9:
                    return Check(False, f"list {b}: {name} gradient does not sum to zero")
            if b >= len(self.expected):
                continue
            want = self.expected[b]
            if reranked != want["reranked"]:
                return Check(False, f"list {b}: ranking differs from the oracle")
            for name, loss in (("ranknet", ranknet), ("soft_rank", soft)):
                value, grad = want[name]
                if not _close(loss.value, value) or not all(
                    _close(g, w) for g, w in zip(loss.gradient.tolist(), grad)
                ):
                    return Check(False, f"list {b}: {name} differs from the double-loop oracle")
            if not _close(stage, want["stage"]):
                return Check(False, f"list {b}: stage loss differs from the oracle")
        return Check(True)

    def provenance(self) -> dict:
        s = self.SIZES[self.size]
        m = s["m"]
        return {
            "inputs": {**s, "gamma": self.GAMMA, "lambda": self.LAMBDA},
            "computed_per_op": {"ranknet_pairs": s["lists"] * m * (m - 1) // 2},
        }


WORKLOADS = {w.name: w for w in (PaperPrune, BoundsCli, SmallCli, ListwiseTrain)}
