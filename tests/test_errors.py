"""The error family and the one array input rule.

Every error the package raises derives from PrunerankError, and every public
array entry point reports a bad shape or a non-numeric entry, an empty input
and a non-finite entry with the same three classes.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from prunerank import errors
from prunerank.attention import as_attention_weights, softmax, tail_gap_bound_check
from prunerank.errors import DimensionMismatchError, EmptyInputError, NonFiniteError
from prunerank.linalg import as_vector, similarity_matrix
from prunerank.losses import nll_loss, soft_rank_loss, weighted_ranknet_loss
from prunerank.metrics import spearman
from prunerank.pruning import lse_scores, maxsim_scores
from prunerank.scoring import rank_from_logits

SRC = Path(__file__).resolve().parents[1] / "src" / "prunerank"

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
    "maxsim_scores": (maxsim_scores, ("3-D", "empty", "non-numeric")),
    "lse_scores": (lse_scores, ("3-D", "empty", "non-numeric")),
}

# softmax also takes a 2-D array, one distribution per row, so its wrong
# number of dimensions is a 3-D input.
ONE_OR_TWO_D = {"softmax"}

ARRAY_CASES = [
    pytest.param(fn, *VECTOR_CASES[case], id=f"{name}-{case}")
    for name, fn in VECTOR_ENTRY_POINTS.items()
    for case in VECTOR_CASES
    if not (case == "2-D" and name in ONE_OR_TWO_D)
] + [
    pytest.param(VECTOR_ENTRY_POINTS[name], *MATRIX_CASES["3-D"], id=f"{name}-3-D")
    for name in sorted(ONE_OR_TWO_D)
] + [
    pytest.param(fn, *MATRIX_CASES[case], id=f"{name}-{case}")
    for name, (fn, cases) in MATRIX_ENTRY_POINTS.items()
    for case in cases
]


@pytest.mark.parametrize("entry_point,bad_input,expected", ARRAY_CASES)
def test_array_error_classes(entry_point, bad_input, expected):
    with pytest.raises(expected):
        entry_point(bad_input)


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
