"""Each scalar input rule is written once: in rules.py, which imports no numpy.

The integer, seed, real-number, keep-ratio, count and rounding rules, the keep
count and the two constants cli's leaf tables read were once spread over
linalg, pruning, scoring and attention, so cli imported numpy to check a
config. Every other module imports them from rules; listing each top-level or
nested definition of their names keeps a second copy from regrowing.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "prunerank"
RULES = (
    "_as_index", "_is_real", "_as_seed", "as_keep_ratio", "_as_count", "_round_product", "keep_count",
    "IDENTIFIER_ALPHABET", "ERROR_BOUND_CONSTANT",
)


def rule_definitions() -> Counter:
    """(name, module) of every def, class or plain assignment of a RULES name in src/."""
    sites = Counter()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            else:
                continue
            sites.update((name, path.name) for name in names if name in RULES)
    return sites


def test_each_scalar_rule_is_defined_once_in_rules():
    assert rule_definitions() == Counter({(name, "rules.py"): 1 for name in RULES})

