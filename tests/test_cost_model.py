import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunerank.cli import DEFAULTS, _merge
from prunerank.cost_model import (
    ArchParams,
    WorkloadSpec,
    cost_report,
    decode_flops,
    f_base,
    f_zip,
    longcontext_prefill_ratio,
    prefill_flops,
    score_flops,
    speedup,
    total_flops,
)
from prunerank.errors import ConfigError, InvalidRatioError
from prunerank.pruning import keep_count

UNIT = ArchParams(layers=1, width=1)


def workload(**kwargs):
    base = dict(n_text=0, image_sizes=((10, 1),), n_query=2, beta=0.0, u_reason=0, rho=1.0)
    base.update(kwargs)
    return WorkloadSpec(**base)


class TestParamValidation:
    """The rules on a single arch or workload value have one copy, in cli._merge's
    leaf tables; n_vis and k are sums over the image sizes, so no two fields
    can disagree."""

    def test_arch_requires_positive_layers_width(self):
        for arch in ({"layers": 0}, {"width": 0}):
            with pytest.raises(ConfigError, match="must be >= 1"):
                _merge(DEFAULTS["cost-model"], {"arch": arch})

    def test_arch_allows_zero_constants(self):
        arch = ArchParams(layers=1, width=1, c_att=0.0, c_ffn=0.0, c_dec=0.0, c_score=0.0)
        assert total_flops(100, 10, arch) == 0.0

    def test_arch_rejects_negative_constants(self):
        with pytest.raises(ConfigError, match="must be >= 0"):
            _merge(DEFAULTS["cost-model"], {"arch": {"c_att": -1.0}})

    def test_workload_ratio_validated(self):
        with pytest.raises(InvalidRatioError):
            _merge(DEFAULTS["cost-model"], {"workload": {"rho": 0.0}})

    def test_image_counts_must_sum_to_n_vis(self):
        assert workload(image_sizes=((4, 1), (6, 2))).n_vis == 4 + 12

    def test_image_counts_must_match_k(self):
        assert workload(image_sizes=((4, 1), (6, 2))).k == 3

    def test_spec_from_json_lists_hashes_and_equals_its_tuple_form(self):
        # The CLI builds the spec from the config's JSON lists; it once kept
        # them, so hash() raised TypeError and the tuple form compared unequal.
        spec = WorkloadSpec(**_merge(DEFAULTS["cost-model"], {})["workload"])
        tuples = dataclasses.replace(spec, image_sizes=((1024, 20),))
        assert spec == tuples
        assert hash(spec) == hash(tuples)
        assert spec.image_sizes == ((1024, 20),)


class TestPerImageNRho:
    def test_unit_ratio_keeps_everything(self):
        w = workload(n_text=10, image_sizes=((4, 1), (6, 1)), rho=1.0)
        assert w.n_rho == w.n_full == 10 + 10

    def test_derived_per_image_keep_counts(self):
        w = workload(n_text=10, image_sizes=((4, 1), (6, 1)), rho=0.5)
        assert w.n_rho == 10 + 2 + 3

    def test_invalid_ratio(self):
        # The per-image count is keep_count's, which takes only a ratio in (0, 1].
        w = workload(n_text=10, image_sizes=((4, 1),), n_query=1, rho=0.0)
        with pytest.raises(InvalidRatioError):
            w.n_rho

    def test_ragged_counts_equal_the_per_image_sum(self):
        counts = (1, 7, 333, 1024, 2, 7, 1024)
        w = workload(n_text=512, image_sizes=[(c, 1) for c in counts], rho=0.45)
        assert w.n_rho == 512 + sum(keep_count(0.45, c) for c in counts)

    def test_one_pair_equals_the_uniform_counts(self):
        pairs = workload(n_text=7, image_sizes=((9, 6),), rho=0.45)
        counts = workload(n_text=7, image_sizes=((9, 1),) * 6, rho=0.45)
        assert (pairs.n_vis, pairs.k, pairs.n_full) == (counts.n_vis, counts.k, counts.n_full) == (54, 6, 61)
        assert pairs.n_rho == counts.n_rho == 7 + 6 * keep_count(0.45, 9)

    def test_keep_count_runs_once_per_image_size(self, monkeypatch):
        calls = []

        def counted(rho, n_tokens):
            calls.append(n_tokens)
            return keep_count(rho, n_tokens)

        monkeypatch.setattr("prunerank.cost_model.keep_count", counted)
        w = workload(n_text=3, image_sizes=((20, 3), (5, 2)), rho=0.3)
        f_zip(w, UNIT), f_zip(w, UNIT), cost_report(w, UNIT)
        assert sorted(calls) == [5, 20]
        assert w.n_rho == 3 + 3 * keep_count(0.3, 20) + 2 * keep_count(0.3, 5)

    @given(
        st.integers(0, 50),
        st.lists(st.integers(1, 40), min_size=1, max_size=8),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounds_invariant(self, n_text, counts, rho):
        w = workload(n_text=n_text, image_sizes=[(c, 1) for c in counts], rho=rho)
        assert w.n_rho <= w.n_full
        assert w.n_rho >= n_text + len(counts)  # every image keeps >= 1 token


class TestPrefillFlops:
    def test_unit_example(self):
        assert prefill_flops(10, UNIT) == 110.0

    def test_empty_context(self):
        assert prefill_flops(0, UNIT) == 0.0

    def test_pure_quadratic_when_ffn_off(self):
        arch = ArchParams(layers=2, width=3, c_att=1.5, c_ffn=0.0)
        assert prefill_flops(20, arch) == 4.0 * prefill_flops(10, arch)


class TestDecodeFlops:
    def test_no_generation_no_cost(self):
        assert decode_flops(10, 0, UNIT) == 0.0

    def test_unit_example(self):
        assert decode_flops(10, 1, UNIT) == 10.0

    def test_linear_in_generated_tokens(self):
        assert decode_flops(10, 5, UNIT) == 5.0 * decode_flops(10, 1, UNIT)


class TestTotalFlops:
    def test_unit_example(self):
        assert total_flops(10, 1, UNIT) == 120.0

    def test_zero_generation_is_prefill_only(self):
        assert total_flops(10, 0, UNIT) == prefill_flops(10, UNIT)

    def test_additivity_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            arch = ArchParams(
                layers=int(rng.integers(1, 50)),
                width=int(rng.integers(1, 512)),
                c_att=float(rng.uniform(0, 3)),
                c_ffn=float(rng.uniform(0, 3)),
                c_dec=float(rng.uniform(0, 3)),
            )
            n = int(rng.integers(0, 10000))
            u = int(rng.integers(0, 100))
            assert total_flops(n, u, arch) == prefill_flops(n, arch) + decode_flops(n, u, arch)


class TestScoreFlops:
    def test_no_visual_tokens(self):
        assert score_flops(3, 0, UNIT) == 0.0

    def test_unit_example(self):
        assert score_flops(3, 4, UNIT) == 12.0

    def test_bilinear(self):
        assert score_flops(6, 4, UNIT) == 2.0 * score_flops(3, 4, UNIT)
        assert score_flops(3, 8, UNIT) == 2.0 * score_flops(3, 4, UNIT)


class TestFBase:
    def test_no_generation_is_prefill_only(self):
        w = workload(beta=0.0, u_reason=0)
        assert w.u_base == 0
        assert f_base(w, UNIT) == prefill_flops(10, UNIT)

    def test_derived_arithmetic(self):
        w = workload(image_sizes=((5, 2),), beta=1.0)
        assert f_base(w, UNIT) == 130.0

    def test_reasoning_tokens_add_linear_cost(self):
        base = f_base(workload(), UNIT)
        heavy = f_base(workload(u_reason=100), UNIT)
        assert heavy - base == 100.0 * UNIT.layers * UNIT.width * UNIT.c_dec * 10

    def test_u_base_rounds_half_away_from_zero(self):
        assert workload(beta=0.5, image_sizes=((10, 7),)).u_base == 4  # round(3.5) -> 4

    @pytest.mark.parametrize(
        "beta,k,expected",
        [
            (3, 2**62 + 1, 3 * (2**62 + 1)),  # exact, where the float product is 3 * 2**62
            (0.7, 45, 32),  # the decimal 31.5, where the float product is 31.499999999999996
            (0.49999999999999994, 1, 0),  # below .5, where the float sum with 0.5 is 1.0
        ],
    )
    def test_u_base_rounds_the_decimal_product(self, beta, k, expected):
        assert workload(beta=beta, image_sizes=((1, k),)).u_base == expected


class TestFZip:
    def test_no_pruning_no_score_cost(self):
        arch = ArchParams(layers=1, width=1, c_score=0.0)
        w = workload(rho=1.0)
        assert f_zip(w, arch) == prefill_flops(10, arch) + decode_flops(10, 1, arch)

    def test_derived_arithmetic(self):
        w = workload(rho=0.5, n_query=2)
        assert f_zip(w, UNIT) == 20.0 + 30.0 + 5.0

    def test_monotone_nonincreasing_as_rho_shrinks(self):
        values = [
            f_zip(workload(rho=rho, image_sizes=((50, 2),)), UNIT)
            for rho in (1.0, 0.9, 0.7, 0.5, 0.3, 0.1)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_each_image_keeps_a_whole_number_of_tokens(self):
        # At rho 0.3 an image of 1024 tokens keeps 307, not rho * 1024 = 307.2.
        w = workload(n_text=512, image_sizes=((1024, 20),), rho=0.3)
        assert w.n_rho == 512 + 20 * 307 == 6652.0


class TestSpeedup:
    def test_identical_workloads_give_one(self):
        # One decode step on both sides, full context kept, no scoring cost.
        arch = ArchParams(layers=1, width=1, c_score=0.0)
        w = workload(rho=1.0, beta=0.0, u_reason=1)
        assert w.u_base == 1
        assert speedup(w, arch) == 1.0

    def test_speedup_at_least_one_without_pruning(self):
        arch = ArchParams(layers=2, width=8, c_score=0.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            w = workload(
                n_text=int(rng.integers(0, 50)),
                image_sizes=((int(rng.integers(1, 500)), int(rng.integers(1, 30))),),
                rho=1.0,
                beta=float(rng.uniform(0.1, 3.0)),
                u_reason=int(rng.integers(0, 50)),
            )
            if w.u_base >= 1:
                assert speedup(w, arch) >= 1.0

    def test_longcontext_limit_inverse_rho_squared(self):
        arch = ArchParams(layers=4, width=64, c_att=2.0, c_ffn=0.0, c_dec=0.0, c_score=0.0)
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
            w = workload(n_text=10, image_sizes=((5000, 20),), rho=rho, beta=1.0)
            assert speedup(w, arch) == pytest.approx(1.0 / rho**2, rel=0.05)

    def test_generation_heavy_equals_u_base(self):
        arch = ArchParams(layers=3, width=16, c_att=0.0, c_ffn=0.0, c_dec=1.5, c_score=0.0)
        w = workload(rho=1.0, beta=1.0, image_sizes=((10, 20),), u_reason=0)
        assert w.u_base == 20
        assert speedup(w, arch) == 20.0

    def test_zero_denominator(self):
        with pytest.raises(ConfigError):
            speedup(workload(n_text=0, image_sizes=()), UNIT)


class TestLongcontextPrefillRatio:
    def test_pure_visual_context(self):
        assert longcontext_prefill_ratio(workload(rho=0.5, n_text=0, image_sizes=((1000, 1),))) == pytest.approx(4.0)

    def test_unit_ratio(self):
        assert longcontext_prefill_ratio(workload(rho=1.0, n_text=123, image_sizes=((456, 1),))) == 1.0

    def test_mixed_context(self):
        ratio = longcontext_prefill_ratio(workload(rho=0.5, n_text=100, image_sizes=((100, 1),)))
        assert ratio == pytest.approx((2.0 / 1.5) ** 2)


class TestCostReport:
    def test_fields_and_consistency(self):
        w = workload(rho=0.5, beta=1.0)
        report = cost_report(w, UNIT)
        assert report["speedup"] == pytest.approx(report["f_base"] / report["f_zip"])
        assert set(report["regime_estimates"]) == {
            "longcontext_prefill_ratio",
            "generation_heavy_decode_ratio",
        }
