"""Every top-level name in src/prunerank is reached.

A public function or class counts as reached when another package module, its
own module outside its definition, or a benchmark module under perfbench/ (by
name or by a string constant, as perfbench/tracing.py names the functions it
wraps) refers to it. A name only tests use belongs in tests/
(tests/library_oracles.py holds the per-item references), so the public
surface cannot quietly regrow. errors.py is exempt: the whole error family is
public by design.

A private function, class or constant must be referred to from src/ itself,
so a helper left behind by a refactor fails here. Dunders are exempt.
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


def top_level_names(tree):
    """(statement, name) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield node, target.id


def unreached_names(wanted, exempt=frozenset(), benchmark=frozenset()):
    """module:line name of each top-level name wanted(statement, name) selects that nothing reaches."""
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unreached = []
    for name, tree in modules.items():
        if name in exempt:
            continue
        elsewhere = referenced_names(other for other_name, other in modules.items() if other_name != name)
        for definition, defined in top_level_names(tree):
            if not wanted(definition, defined):
                continue
            own_module = referenced_names(node for node in tree.body if node is not definition)
            if defined not in elsewhere | own_module | benchmark:
                unreached.append(f"{name}:{definition.lineno} {defined}")
    return unreached


def test_every_public_name_is_reached_by_the_package_or_the_benchmark():
    benchmark = referenced_names(
        (ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))),
        strings=True,
    )

    def public(definition, name):
        return isinstance(definition, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_")

    assert unreached_names(public, EXEMPT, benchmark) == []


def test_every_private_name_is_referenced_from_src():
    def private(definition, name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    assert unreached_names(private) == []


def test_numpy_stream_format_lives_in_synthetic_alone():
    """synthetic replays numpy's seeding and choice for pruning's keep rule, so
    pruning imports nothing from it, and no other module names PCG64 or a
    generator's bit_generator."""
    imported = set()
    for node in ast.walk(ast.parse((SRC / "pruning.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            imported.update(part for name in modules + [a.name for a in node.names] for part in name.split("."))
    assert "synthetic" not in imported
    naming = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "synthetic.py"
        and {"PCG64", "bit_generator"} & referenced_names([ast.parse(path.read_text())], strings=True)
    ]
    assert naming == []
