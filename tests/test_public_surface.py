"""Every public top-level function and class in src/prunerank is reached.

A name counts as reached when another package module, its own module outside
its definition, or a benchmark module under perfbench/ (by name or by a string
constant, as perfbench/tracing.py names the functions it wraps) refers to it.
A name only tests use belongs in tests/ (tests/library_oracles.py holds the
per-item references), so the public surface cannot quietly regrow.
errors.py is exempt: the whole error family is public by design.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prunerank"
EXEMPT = {"errors.py"}


def referenced_names(nodes, strings=False):
    """Names, attribute names and imported names under nodes; with strings, string constants too."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def unreached_public_names():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    benchmark = referenced_names(
        (ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))),
        strings=True,
    )
    unreached = []
    for name, tree in modules.items():
        if name in EXEMPT:
            continue
        elsewhere = referenced_names(other for other_name, other in modules.items() if other_name != name)
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)) or definition.name.startswith("_"):
                continue
            own_module = referenced_names(node for node in tree.body if node is not definition)
            if definition.name not in elsewhere | own_module | benchmark:
                unreached.append(f"{name}:{definition.lineno} {definition.name}")
    return unreached


def test_every_public_name_is_reached_by_the_package_or_the_benchmark():
    assert unreached_public_names() == []
