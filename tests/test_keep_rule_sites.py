"""The keep rule is written once: pruning._ranks.

The rule "stable descending order, the lower index first on ties, keep the
first k" was once written four times (prune_by_scores,
select_topk_preserve_order, the row kernels' _top_k and the pruning
comparison). Listing, by enclosing definition, every np.put_along_axis call
and every argsort of a negated operand keeps a copy from regrowing.
scoring.rank_from_logits is the one other descending argsort: the public
order of one candidate list.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "prunerank"


def _is_negated(node) -> bool:
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)


def _kind(call: ast.Call) -> str:
    """Which of the guarded calls call is: "put_along_axis", "negated argsort" or ""."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return ""
    if func.attr == "put_along_axis":
        return "put_along_axis"
    # np.argsort(-x, ...) or (-x).argsort(...).
    if func.attr == "argsort" and (_is_negated(func.value) or (call.args and _is_negated(call.args[0]))):
        return "negated argsort"
    return ""


def keep_rule_sites() -> Counter:
    """(kind, module:qualified.name) of the definition around each guarded call in src/."""
    sites = Counter()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and _kind(child):
                sites[_kind(child), f"{module}:{'.'.join(scope)}"] += 1
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, ())
    return sites


def test_the_keep_rule_is_written_once():
    assert keep_rule_sites() == Counter(
        {
            ("put_along_axis", "pruning.py:_ranks"): 1,
            ("negated argsort", "pruning.py:_ranks"): 1,
            ("negated argsort", "scoring.py:rank_from_logits"): 1,
        }
    )

