"""Every ConfigError outside cli.py is a rule that no single config leaf holds.

cli._merge's leaf tables are the one copy of each rule on a single value. The
package may raise ConfigError elsewhere only for a rule that ties several
values together, which a section object checks when it is built, or for a
ratio whose denominator is zero. Listing the raise sites by their enclosing
definition keeps a per-leaf rule from regrowing in a constructor, a driver or
a FLOPs helper.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "prunerank"

ALLOWED = Counter(
    {
        # tokens_per_image is a (low, high) pair with low <= high, and
        # planted_per_image is at most low.
        "synthetic.py:SyntheticConfig.__post_init__": 3,
        # An explicit query has the configured (n_query_tokens, embed_dim) shape.
        "synthetic.py:_draw_chunk": 1,
        # The zero-denominator checks.
        "cost_model.py:speedup": 1,
        "cost_model.py:longcontext_prefill_ratio": 1,
        "cost_model.py:generation_heavy_decode_ratio": 1,
    }
)


def config_error_raise_sites() -> Counter:
    """module:qualified.name of the definition around each `raise ConfigError` outside cli.py."""
    sites = Counter()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "ConfigError":
                    sites[f"{module}:{'.'.join(scope)}"] += 1
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "cli.py":
            visit(ast.parse(path.read_text()), path.name, ())
    return sites


def test_config_errors_outside_cli_are_only_multi_value_and_zero_denominator_rules():
    assert config_error_raise_sites() == ALLOWED
