"""The error family and the one array input rule.

Every error the package raises derives from PrunerankError, and every public
array entry point reports a bad shape or a non-numeric entry, an empty input
and a non-finite entry with the same three classes. Each public bound check
raises, for every bad input, the class its per-trial reference raises.
"""

import ast
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bound_reference
from prunerank import errors
from prunerank.attention import (
    as_attention_weights,
    attention_mass_per_token,
    check_pruning_error_bound,
    softmax,
    tail_gap_bound_check,
)
from prunerank.errors import (
    AllMassPrunedError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidGammaError,
    InvalidProbabilityError,
    InvalidRatioError,
    KOutOfRangeError,
    NonFiniteError,
)
from prunerank.linalg import as_vector, similarity_matrix
from prunerank.losses import geometric_target, nll_loss, soft_rank_loss, weighted_ranknet_loss
from prunerank.metrics import QueryJudgment, evaluate_judgments, spearman
from prunerank.pruning import (
    as_keep_ratio,
    keep_count,
    lse_scores,
    maxsim_scores,
    prune_by_scores,
    prune_images,
    random_prune,
    select_topk_preserve_order,
    topk_stability_check,
)
from prunerank.scoring import rank_from_logits
from prunerank.synthetic import SyntheticConfig, generate_instance

SRC = Path(__file__).resolve().parents[1] / "src" / "prunerank"

# The public bound checks, one-row calls of the bound kernels, and their
# per-trial references, which must raise the same class.
BOUND_CHECKS = {
    "public": {
        "check_pruning_error_bound": check_pruning_error_bound,
        "tail_gap_bound_check": tail_gap_bound_check,
        "topk_stability_check": topk_stability_check,
    },
    "reference": {
        "check_pruning_error_bound": bound_reference.check_pruning_error_bound,
        "tail_gap_bound_check": bound_reference.tail_gap_bound_check,
        "topk_stability_check": bound_reference.topk_stability_check,
    },
}

VECTOR_CASES = {
    "2-D": ([[0.5, 0.5]], DimensionMismatchError),
    "empty": ([], EmptyInputError),
    "nan": ([0.5, np.nan], NonFiniteError),
    "non-numeric": (["x", 0.5], DimensionMismatchError),
}
# A matrix entry point's wrong number of dimensions is a 3-D input.
MATRIX_CASES = {
    "3-D": ([[[0.5, 0.5]]], DimensionMismatchError),
    "empty": (np.zeros((0, 2)), EmptyInputError),
    "nan": ([[0.5, np.nan]], NonFiniteError),
    "non-numeric": ([["x", 0.5]], DimensionMismatchError),
}

VECTOR_ENTRY_POINTS = {
    "as_vector": as_vector,
    "softmax": softmax,
    "as_attention_weights": as_attention_weights,
    "tail_gap_bound_check": lambda x: tail_gap_bound_check(x, 1),
    "check_pruning_error_bound": lambda x: check_pruning_error_bound(x, [[1.0], [2.0]], [0]),
    "topk_stability_check-max_sim": lambda x: topk_stability_check(x, [1.0, 2.0], 1, 1),
    "topk_stability_check-lse": lambda x: topk_stability_check([1.0, 2.0], x, 1, 1),
    "reference.check_pruning_error_bound": lambda x: bound_reference.check_pruning_error_bound(
        x, [[1.0], [2.0]], [0]
    ),
    "reference.tail_gap_bound_check": lambda x: bound_reference.tail_gap_bound_check(x, 1),
    "reference.topk_stability_check-max_sim": lambda x: bound_reference.topk_stability_check(
        x, [1.0, 2.0], 1, 1
    ),
    "reference.topk_stability_check-lse": lambda x: bound_reference.topk_stability_check(
        [1.0, 2.0], x, 1, 1
    ),
    "rank_from_logits": rank_from_logits,
    "spearman": lambda x: spearman(x, [1.0, 2.0]),
    "weighted_ranknet_loss": lambda x: weighted_ranknet_loss(x, [1, 2]),
    "soft_rank_loss": lambda x: soft_rank_loss(x, [0.5, 0.5]),
    "nll_loss": nll_loss,
}
# maxsim_scores and lse_scores scan no similarity matrix for NaN.
MATRIX_ENTRY_POINTS = {
    "similarity_matrix": (
        lambda x: similarity_matrix(x, [[1.0, 0.0]]),
        ("3-D", "empty", "nan", "non-numeric"),
    ),
    "similarity_matrix-V": (
        lambda x: similarity_matrix([[1.0, 0.0]], x),
        ("3-D", "empty", "nan", "non-numeric"),
    ),
    "check_pruning_error_bound-V": (
        lambda x: check_pruning_error_bound([0.5, 0.5], x, [0]),
        ("3-D", "empty", "nan", "non-numeric"),
    ),
    "maxsim_scores": (maxsim_scores, ("3-D", "empty", "non-numeric")),
    "lse_scores": (lse_scores, ("3-D", "empty", "non-numeric")),
}

# softmax also takes a 2-D array, one distribution per row, and a 3-D stack
# of them, so its wrong number of dimensions is a 4-D input.
ONE_TO_THREE_D = {"softmax"}

ARRAY_CASES = [
    pytest.param(fn, *VECTOR_CASES[case], id=f"{name}-{case}")
    for name, fn in VECTOR_ENTRY_POINTS.items()
    for case in VECTOR_CASES
    if not (case == "2-D" and name in ONE_TO_THREE_D)
] + [
    pytest.param(VECTOR_ENTRY_POINTS[name], [[[[0.5, 0.5]]]], DimensionMismatchError, id=f"{name}-4-D")
    for name in sorted(ONE_TO_THREE_D)
] + [
    pytest.param(fn, *MATRIX_CASES[case], id=f"{name}-{case}")
    for name, (fn, cases) in MATRIX_ENTRY_POINTS.items()
    for case in cases
]


@pytest.mark.parametrize("entry_point,bad_input,expected", ARRAY_CASES)
def test_array_error_classes(entry_point, bad_input, expected):
    with pytest.raises(expected):
        entry_point(bad_input)


# Bad bound-check inputs past the vector rule, each with its one error class.
TWO_ROWS = [[1.0, 0.0], [0.0, 1.0]]
BOUND_CHECK_CASES = {
    "tail-gap-k-0": ("tail_gap_bound_check", ([1.0, 2.0], 0), KOutOfRangeError),
    "tail-gap-k-n": ("tail_gap_bound_check", ([1.0, 2.0], 2), KOutOfRangeError),
    "stability-k-0": ("topk_stability_check", ([1.0, 2.0], [1.0, 2.0], 0, 1), KOutOfRangeError),
    "stability-k-n": ("topk_stability_check", ([1.0, 2.0], [1.0, 2.0], 2, 1), KOutOfRangeError),
    "stability-lengths-differ": (
        "topk_stability_check",
        ([1.0, 2.0], [1.0, 2.0, 3.0], 1, 1),
        DimensionMismatchError,
    ),
    "stability-n-query-0": ("topk_stability_check", ([1.0, 2.0], [1.0, 2.0], 1, 0), EmptyInputError),
    "pruning-negative-weight": (
        "check_pruning_error_bound",
        ([1.25, -0.25], TWO_ROWS, [0]),
        InvalidProbabilityError,
    ),
    "pruning-weights-sum-to-0.9": (
        "check_pruning_error_bound",
        ([0.5, 0.4], TWO_ROWS, [0]),
        InvalidProbabilityError,
    ),
    "pruning-empty-kept": ("check_pruning_error_bound", ([0.5, 0.5], TWO_ROWS, []), EmptyInputError),
    "pruning-kept-n": ("check_pruning_error_bound", ([0.5, 0.5], TWO_ROWS, [0, 2]), KOutOfRangeError),
    "pruning-kept-minus-1": ("check_pruning_error_bound", ([0.5, 0.5], TWO_ROWS, [-1]), KOutOfRangeError),
    "pruning-all-mass-pruned": ("check_pruning_error_bound", ([1.0, 0.0], TWO_ROWS, [1]), AllMassPrunedError),
    "pruning-weights-vs-value-rows": (
        "check_pruning_error_bound",
        ([0.5, 0.5], [[1.0, 0.0]], [0]),
        DimensionMismatchError,
    ),
    # A k or kept index that is not an integer once escaped as numpy's
    # IndexError, a TypeError or ValueError, or was truncated (0.7 kept index 0).
    "tail-gap-k-float": ("tail_gap_bound_check", ([1.0, 2.0, 3.0], 1.0), KOutOfRangeError),
    "stability-k-float": ("topk_stability_check", ([1.0, 2.0], [1.0, 2.0], 1.0, 1), KOutOfRangeError),
    **{
        f"pruning-kept-{bad!r}": ("check_pruning_error_bound", ([0.5, 0.5], TWO_ROWS, [bad]), KOutOfRangeError)
        for bad in (0.7, "a", float("nan"), float("inf"), 1e30, 2**70, None)
    },
}


@pytest.mark.parametrize("kind", BOUND_CHECKS)
@pytest.mark.parametrize("case", BOUND_CHECK_CASES)
def test_bound_check_error_classes(case, kind):
    name, args, expected = BOUND_CHECK_CASES[case]
    with pytest.raises(errors.PrunerankError) as raised:
        BOUND_CHECKS[kind][name](*args)
    assert type(raised.value) is expected


# The other entry points that take a k, a position, a count or a seed: a
# non-integer is out of range. The counts and the seed once escaped as a bare
# ValueError or TypeError, or (keep_count's 2.5 tokens) passed without a word.
S = np.full((1, 2, 2), 0.5)
NON_INTEGER_CASES = {
    "select_topk_preserve_order": lambda k: select_topk_preserve_order([1.0, 2.0, 3.0], k),
    "random_prune": lambda k: random_prune(5, k, 0),
    "attention_mass_per_token": lambda k: attention_mass_per_token(S, k),
    "evaluate_judgments": lambda k: evaluate_judgments(
        {"a": [QueryJudgment(relevant={0}, ranked=(0, 1))]}, k_values=[k]
    ),
    "random_prune-n_tokens": lambda n: random_prune(n, 1, 0),
    "random_prune-seed": lambda seed: random_prune(5, 2, seed),
    "SyntheticConfig-seed": lambda seed: SyntheticConfig(seed=seed),
    "keep_count-n_tokens": lambda n: keep_count(0.5, n),
    "topk_stability_check-n_query": lambda n: topk_stability_check([1.0, 2.0], [1.0, 2.0], 1, n),
}


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", None], ids=repr)
@pytest.mark.parametrize("name", NON_INTEGER_CASES)
def test_non_integer_k_or_position_is_out_of_range(name, bad):
    with pytest.raises(errors.PrunerankError) as raised:
        NON_INTEGER_CASES[name](bad)
    assert type(raised.value) is KOutOfRangeError


# An integer the rule accepts is used as the int it gives: True once reached
# numpy's choice as a bool (a bare TypeError) and indexed the head stack as a
# mask (the whole stack, not row 1).
@pytest.mark.parametrize("value", [True, np.int64(1)], ids=repr)
@pytest.mark.parametrize("name", NON_INTEGER_CASES)
def test_an_integer_gives_what_its_int_gives(name, value):
    # repr tells apart type, shape, dtype and value of every result here.
    assert repr(NON_INTEGER_CASES[name](value)) == repr(NON_INTEGER_CASES[name](1))


# The entry points that take a keep ratio or a decay factor: anything but one
# real number is out of its range. These once escaped as a TypeError or, for
# an array of two ratios, numpy's bare ValueError; a numpy complex scalar
# passed as its real part, with a ComplexWarning.
NON_REAL_CASES = {
    "as_keep_ratio": (as_keep_ratio, InvalidRatioError),
    "keep_count": (lambda rho: keep_count(rho, 10), InvalidRatioError),
    "prune_by_scores": (lambda rho: prune_by_scores([1.0, 2.0], rho), InvalidRatioError),
    "prune_images": (lambda rho: prune_images([[1.0, 0.0]], [], rho), InvalidRatioError),
    "geometric_target": (lambda gamma: geometric_target([0, 1], gamma), InvalidGammaError),
}
NON_REAL = [
    "0.5", b"0.5", None, 0.5j, np.complex64(0.5), np.array(0.5 + 0j), np.array([0.5]), np.array([0.3, 0.5]), [0.5],
    Decimal("NaN"), Decimal("sNaN"),
]


@pytest.mark.parametrize("bad", NON_REAL, ids=repr)
@pytest.mark.parametrize("name", NON_REAL_CASES)
def test_a_ratio_or_decay_factor_that_is_not_one_real_number_is_out_of_range(name, bad):
    call, expected = NON_REAL_CASES[name]
    with pytest.raises(errors.PrunerankError) as raised:
        call(bad)
    assert type(raised.value) is expected


# A ratio or decay message shows the caller's value as str gives it; an
# f-string formats a numpy scalar through float, so a longdouble once read 0.0.
SHOWN_AS_STR = {
    "float": (1.5, "1.5"),
    "int": (2, "2"),
    "Fraction": (Fraction(3, 2), "3/2"),
    "Decimal": (Decimal("1.5"), "1.5"),
    "float64": (np.float64(1.5), "1.5"),
    "float32": (np.float32(-0.5), "-0.5"),
    "longdouble": (np.longdouble("1e-400"), "1e-400"),
    "str": ("0.5", "0.5"),
    "None": (None, "None"),
    "list": ([0.5], "[0.5]"),
}


@pytest.mark.parametrize("value,shown", SHOWN_AS_STR.values(), ids=SHOWN_AS_STR.keys())
def test_a_ratio_or_decay_factor_out_of_range_is_shown_as_str_gives_it(value, shown):
    with pytest.raises(InvalidRatioError) as ratio:
        as_keep_ratio(value)
    assert str(ratio.value) == f"keep ratio must be in (0, 1], got {shown}"
    with pytest.raises(InvalidGammaError) as gamma:
        geometric_target([0], value)
    assert str(gamma.value) == f"gamma must be in (0, 1), got {shown}"


# A real number inside the range whose float is not: a positive value that
# rounds to 0.0 and, for a decay factor, a value below 1 that rounds to 1.0.
# These once passed the check on the value and returned the float (0.0 kept one
# token; 1.0 gave a uniform target).
ROUNDS_TO_ZERO = {
    "Fraction": Fraction(1, 10**400),
    "Decimal": Decimal("1e-400"),
    "longdouble": np.longdouble("1e-400"),
}
ROUNDS_TO_ONE = {
    "Fraction": Fraction(10**20 - 1, 10**20),
    "longdouble": np.longdouble(1) - np.longdouble(2) ** -60,
}


# Over one candidate, so that a gamma of 0.0 would not fail as an underflow.
ROUNDS_OUT_CASES = {
    **NON_REAL_CASES,
    "geometric_target": (lambda gamma: geometric_target([0], gamma), InvalidGammaError),
}


@pytest.mark.parametrize("bad", ROUNDS_TO_ZERO.values(), ids=ROUNDS_TO_ZERO.keys())
@pytest.mark.parametrize("name", ROUNDS_OUT_CASES)
def test_a_ratio_or_decay_factor_whose_float_is_zero_is_out_of_range(name, bad):
    call, expected = ROUNDS_OUT_CASES[name]
    with pytest.raises(errors.PrunerankError) as raised:
        call(bad)
    assert type(raised.value) is expected


@pytest.mark.parametrize("value", ROUNDS_TO_ONE.values(), ids=ROUNDS_TO_ONE.keys())
def test_a_decay_factor_whose_float_is_one_is_out_of_range(value):
    with pytest.raises(errors.PrunerankError) as raised:
        geometric_target([0, 1, 2], value)
    assert type(raised.value) is InvalidGammaError
    # A keep ratio may be 1, so the same value passes as 1.0.
    assert as_keep_ratio(value) == 1.0


@pytest.mark.parametrize(
    "value",
    [
        0.5, 1, True, np.float32(0.5), np.int64(1), np.True_, np.array(0.25), Fraction(1, 3), Decimal("0.5"),
        np.array(Fraction(1, 2), dtype=object),
    ],
    ids=repr,
)
def test_every_real_ratio_and_decay_factor_passes_as_its_float(value):
    assert as_keep_ratio(value) == float(value)
    if value != 1:
        assert geometric_target([0, 1], value).gamma == float(value)


# An integer count below 1 is empty input; a negative seed is out of range.
INTEGER_RANGE_CASES = {
    "random_prune-n_tokens-0": (lambda: random_prune(0, 1, 0), EmptyInputError),
    "keep_count-n_tokens-minus-3": (lambda: keep_count(0.5, -3), EmptyInputError),
    "stability-n-query-minus-1": (
        lambda: topk_stability_check([1.0, 2.0], [1.0, 2.0], 1, -1),
        EmptyInputError,
    ),
    "random_prune-seed-minus-1": (lambda: random_prune(5, 2, -1), KOutOfRangeError),
    "SyntheticConfig-seed-minus-1": (lambda: SyntheticConfig(seed=-1), KOutOfRangeError),
    "generate_instance-seed-minus-1": (lambda: generate_instance(SyntheticConfig(), seed=-1), KOutOfRangeError),
}


@pytest.mark.parametrize("case", INTEGER_RANGE_CASES)
def test_integer_counts_below_1_are_empty_and_a_negative_seed_is_out_of_range(case):
    call, expected = INTEGER_RANGE_CASES[case]
    with pytest.raises(errors.PrunerankError) as raised:
        call()
    assert type(raised.value) is expected


@pytest.mark.parametrize("bad", [-1, 1.5, "1", 2**63 - 2**64], ids=repr)
def test_one_seed_rule_for_every_library_seed(bad):
    """random_prune, SyntheticConfig and generate_instance's int seed share
    linalg._as_seed: a bad seed raises the same class and message from each,
    where it once gave KOutOfRangeError, numpy's bare ValueError or a TypeError."""
    calls = (
        lambda: random_prune(20, 3, bad),
        lambda: SyntheticConfig(seed=bad),
        lambda: generate_instance(SyntheticConfig(), seed=bad),
    )
    messages = set()
    for call in calls:
        with pytest.raises(errors.PrunerankError) as raised:
            call()
        assert type(raised.value) is KOutOfRangeError
        messages.add(str(raised.value))
    assert len(messages) == 1


def test_numpy_integer_seeds_pass_and_a_generator_is_drawn_from_as_it_stands():
    assert SyntheticConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    rng = np.random.default_rng(7)
    drawn = generate_instance(SyntheticConfig(), seed=rng)
    np.testing.assert_array_equal(drawn.query, generate_instance(SyntheticConfig(), seed=np.int64(7)).query)
    assert rng.bit_generator.state != np.random.default_rng(7).bit_generator.state


def test_numpy_integers_and_integral_float_kept_entries_pass():
    k = np.int64(1)
    assert select_topk_preserve_order([1.0, 2.0, 3.0], k).tolist() == [2]
    assert random_prune(5, k, 0).size == 1
    assert random_prune(np.int64(5), 2, np.uint64(3)).tolist() == random_prune(5, 2, 3).tolist()
    assert keep_count(0.5, np.int64(5)) == keep_count(0.5, 5) == 3
    assert attention_mass_per_token(S, k).tolist() == [0.5, 0.5]
    assert evaluate_judgments({"a": [QueryJudgment(relevant={0}, ranked=(0, 1))]}, k_values=[k])
    assert tail_gap_bound_check([1.0, 2.0, 3.0], k) == tail_gap_bound_check([1.0, 2.0, 3.0], 1)
    assert topk_stability_check([1.0, 2.0], [1.0, 2.0], k, 1).sets_equal
    alpha, values = [0.25, 0.75], [[1.0], [2.0]]
    for check in (check_pruning_error_bound, bound_reference.check_pruning_error_bound):
        expected = check(alpha, values, [1])
        for kept in ([1.0], [np.float64(1.0)], [np.int32(1)], (1,)):
            assert check(alpha, values, kept) == expected


def _raised_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


def test_no_bare_value_or_zero_division_error_raised():
    offenders = [
        f"{path.name}:{lineno} raises {name}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, name in _raised_names(ast.parse(path.read_text()))
        if name in {"ValueError", "ZeroDivisionError"}
    ]
    assert offenders == []


def test_every_error_class_but_the_base_is_raised_in_the_package():
    """A class that only tests raise belongs with them, not in the package's family."""
    defined = {
        node.name
        for node in ast.parse((SRC / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    raised = {
        name for path in SRC.glob("*.py") for _, name in _raised_names(ast.parse(path.read_text()))
    }
    assert defined - raised == {"PrunerankError"}


def test_every_error_class_derives_from_the_family_base():
    family = {"PrunerankError"}
    strays = []
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name != "PrunerankError":
            bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
            if bases & family:
                family.add(node.name)
            else:
                strays.append(node.name)
    assert strays == []
    assert issubclass(errors.PrunerankError, ValueError)
