"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. The randomized checks use fixed seeds; every bound they exercise is
a proven inequality, so any failure indicates an implementation bug rather
than bad luck.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from library_oracles import finite_difference_gradcheck, ndcg_at_k, recall_at_k
from prunerank.attention import check_pruning_error_bound, tail_gap_bound_check
from prunerank.cli import DEFAULTS, _cmd_verify_bounds
from prunerank.cli import main as cli_main
from prunerank.cost_model import ArchParams, WorkloadSpec, speedup
from prunerank.experiments import run_pruning_comparison
from prunerank.losses import geometric_target, soft_rank_loss, weighted_ranknet_loss
from prunerank.metrics import QueryJudgment, aggregate, spearman
from prunerank.synthetic import SyntheticConfig

MASTER_SEED = 20260810
TRIALS = 10000


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"\n[acceptance] FAIL criterion {num:2d}: {label}")
        raise
    print(f"\n[acceptance] PASS criterion {num:2d}: {label}")


@pytest.fixture(scope="module")
def bound_tallies():
    cfg = {**DEFAULTS["verify-bounds"], "trials": TRIALS}
    return _cmd_verify_bounds(cfg, MASTER_SEED)[0]["bounds"]["checks"]


def test_criterion_01_score_sandwich(bound_tallies):
    with criterion(1, "max <= lse <= max + log(n_query) on 10k random matrices"):
        tally = bound_tallies["score_sandwich"]
        assert tally["trials"] == TRIALS
        assert tally["failures"] == 0
        # Equality on constant columns was checked on a large subset of trials.
        assert tally["equality_checks"] > 1000


def test_criterion_02_topk_stability(bound_tallies):
    with criterion(2, "gap > log(n_query) forces identical top-k sets, 10k instances"):
        tally = bound_tallies["topk_stability"]
        assert tally["trials"] == TRIALS
        assert tally["failures"] == 0
        assert tally["premise_count"] > 1000  # the guarantee actually fired


def test_criterion_03_pruning_error_bound(bound_tallies):
    with criterion(3, "||c - c'|| <= 2*eps*v_max on 10k random triples + hand example"):
        tally = bound_tallies["pruning_error_bound"]
        assert tally["trials"] == TRIALS
        assert tally["failures"] == 0
        report = check_pruning_error_bound(
            [0.5, 0.3, 0.2], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 1]
        )
        assert report.error_norm == pytest.approx(0.14577, abs=5e-6)
        assert report.bound == pytest.approx(0.56569, abs=5e-6)
        assert report.error_norm <= report.bound
        assert report.holds


def test_criterion_04_tail_gap_bound(bound_tallies):
    with criterion(4, "eps <= ((n-k)/k) * exp(-delta) on 10k random vectors + hand example"):
        tally = bound_tallies["tail_gap_bound"]
        assert tally["trials"] == TRIALS
        assert tally["failures"] == 0
        report = tail_gap_bound_check([3.0, 3.0, 0.0], k=2)
        assert report.epsilon == pytest.approx(1.0 / (2.0 * math.e**3 + 1.0), rel=1e-12)
        assert report.epsilon == pytest.approx(0.0243, abs=5e-4)
        assert report.bound == pytest.approx(0.02489, abs=5e-6)
        assert report.epsilon <= report.bound + 1e-9
        assert report.holds


def test_criterion_05_gradient_checks():
    with criterion(5, "analytic gradients match central differences (rel err < 1e-5)"):
        rng = np.random.default_rng(MASTER_SEED + 5)
        for m in (2, 5, 20):
            for _ in range(100):
                s = rng.standard_normal(m) * 2.0
                ranks = rng.permutation(m) + 1
                pair_loss = weighted_ranknet_loss(s, ranks)
                assert abs(pair_loss.gradient.sum()) < 1e-9
                err = finite_difference_gradcheck(
                    lambda x: weighted_ranknet_loss(x, ranks), s
                )
                assert err < 1e-5

                target = geometric_target(rng.permutation(m), float(rng.uniform(0.2, 0.9)))
                list_loss = soft_rank_loss(s, target)
                assert abs(list_loss.gradient.sum()) < 1e-9
                err = finite_difference_gradcheck(lambda x: soft_rank_loss(x, target), s)
                assert err < 1e-5


def test_criterion_06_geometric_target():
    with criterion(6, "geometric target exact for (m=3, gamma=0.5); sums to 1 for 1k draws"):
        target = geometric_target([0, 1, 2], gamma=0.5)
        np.testing.assert_allclose(target.q, [4 / 7, 2 / 7, 1 / 7], atol=1e-12)
        rng = np.random.default_rng(MASTER_SEED + 6)
        for _ in range(1000):
            m = int(rng.integers(1, 41))
            gamma = float(rng.uniform(0.02, 0.98))
            q = geometric_target(rng.permutation(m), gamma).q
            assert abs(q.sum() - 1.0) <= 1e-12
            assert np.all(q > 0)


def test_criterion_07_cost_model_regimes():
    with criterion(7, "long-context speedup ~ 1/rho^2 (5%); generation-heavy speedup = u_base"):
        longctx = ArchParams(layers=4, width=64, c_att=2.0, c_ffn=0.0, c_dec=0.0, c_score=0.0)
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
            w = WorkloadSpec(
                n_text=10, image_sizes=((5000, 20),), n_query=8, beta=1.0, u_reason=0, rho=rho
            )
            assert speedup(w, longctx) == pytest.approx(1.0 / rho**2, rel=0.05)

        genheavy = ArchParams(layers=2, width=8, c_att=0.0, c_ffn=0.0, c_dec=1.0, c_score=0.0)
        w = WorkloadSpec(n_text=7, image_sizes=((64, 20),), n_query=4, beta=1.0, u_reason=0, rho=1.0)
        assert w.u_base == 20
        assert speedup(w, genheavy) == 20.0


def test_criterion_08_macro_aggregation():
    with criterion(8, "ten per-domain recall values aggregate to macro 64.2 +- 0.05"):
        values = [61.6, 65.3, 64.1, 67.6, 65.7, 56.1, 70.6, 68.8, 76.1, 46.0]
        out = aggregate({f"domain_{i}": [v] for i, v in enumerate(values)})
        assert out["macro"] == pytest.approx(64.2, abs=0.05)


def test_criterion_09_pruning_comparison():
    with criterion(9, "query-aware retention 1.00 and random ~ rho (+-0.03) on planted family"):
        cfg = SyntheticConfig(
            n_images=1,
            tokens_per_image=(20, 20),
            embed_dim=16,
            n_query_tokens=4,
            planted_per_image=1,
            noise_scale=0.0,
            seed=MASTER_SEED + 9,
        )
        keep_ratios = [0.1, 0.3, 0.5, 0.7, 0.9]
        report = run_pruning_comparison(cfg, keep_ratios=keep_ratios, n_instances=2000)
        for rho, t2i, rand in zip(keep_ratios, report["t2i_retention"], report["random_retention"]):
            assert t2i == 1.0
            assert abs(rand - rho) <= 0.03
            assert t2i >= rand
        assert report["t2i_ge_random"]


def test_criterion_10_metric_oracles():
    with criterion(10, "recall/ndcg/spearman agree with brute-force oracles within 1e-12"):
        rng = np.random.default_rng(MASTER_SEED + 10)
        for _ in range(1000):
            universe = int(rng.integers(2, 30))
            ranked = rng.permutation(universe).tolist()
            relevant = set(
                rng.choice(universe, size=int(rng.integers(1, universe + 1)), replace=False).tolist()
            )
            j = QueryJudgment(relevant=frozenset(relevant), ranked=tuple(ranked))
            k = int(rng.integers(1, universe + 2))

            # Exhaustive set-intersection recall.
            hits = sum(1 for item in ranked[:k] if item in relevant)
            assert recall_at_k(j, k) == pytest.approx(hits / len(relevant), abs=1e-12)

            # Direct DCG summation.
            dcg = sum(
                1.0 / math.log2(p + 1)
                for p, item in enumerate(ranked[:k], start=1)
                if item in relevant
            )
            idcg = sum(1.0 / math.log2(p + 1) for p in range(1, min(k, len(relevant)) + 1))
            assert ndcg_at_k(j, k) == pytest.approx(dcg / idcg, abs=1e-12)

            # Monotonicity of recall in k.
            previous = 0.0
            for kk in range(1, universe + 1):
                value = recall_at_k(j, kk)
                assert value >= previous - 1e-15
                previous = value

            # Rank-then-Pearson oracle for the correlation.
            x = rng.integers(0, 6, size=int(rng.integers(3, 20))).astype(float)
            y = rng.integers(0, 6, size=x.size).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert spearman(x, y) == pytest.approx(_rank_then_pearson(x, y), abs=1e-12)


def _rank_then_pearson(x, y):
    def avg_ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(values):
            j = i
            while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
                j += 1
            mean_pos = sum(range(i + 1, j + 2)) / (j - i + 1)
            for p in range(i, j + 1):
                out[order[p]] = mean_pos
            i = j + 1
        return out

    rx = avg_ranks(list(x))
    ry = avg_ranks(list(y))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    )
    return num / den


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "verify-bounds and simulate are byte-reproducible per config+seed"):
        verify_cfg = tmp_path / "verify.json"
        verify_cfg.write_text(json.dumps({"trials": 400, "selftest_trials": 200}))
        simulate_cfg = tmp_path / "simulate.json"
        simulate_cfg.write_text(
            json.dumps({"n_instances": 150, "correlation": {"n_instances": 25},
                        "ranking": {"n_instances": 40}})
        )
        for name, cfg in (("verify-bounds", verify_cfg), ("simulate", simulate_cfg)):
            first = tmp_path / f"{name}-a"
            second = tmp_path / f"{name}-b"
            assert cli_main([name, "--config", str(cfg), "--seed", "77", "--out", str(first)]) == 0
            assert cli_main([name, "--config", str(cfg), "--seed", "77", "--out", str(second)]) == 0
            assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
