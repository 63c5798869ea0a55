"""Finiteness is checked once, at the public boundary: linalg._require_finite.

The bound row kernels once scanned their arrays for NaN again after every
public check had done so (pruning._top_k and the pruning-error kernel).
Listing, by enclosing definition, every _require_finite call keeps such a
re-scan from regrowing: as_finite_array checks the vector and matrix inputs,
and _rows_and_norms the token matrices whose largest row norm is not finite.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "prunerank"


def finite_rule_sites() -> Counter:
    """module:qualified.name of the definition around each _require_finite call in src/."""
    sites = Counter()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            called = child.func if isinstance(child, ast.Call) else None
            # _require_finite(...) or linalg._require_finite(...).
            if getattr(called, "id", getattr(called, "attr", None)) == "_require_finite":
                sites[f"{module}:{'.'.join(scope)}"] += 1
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, ())
    return sites


def test_finiteness_is_checked_only_at_the_public_boundary():
    assert finite_rule_sites() == Counter({"linalg.py:as_finite_array": 1, "linalg.py:_rows_and_norms": 1})
