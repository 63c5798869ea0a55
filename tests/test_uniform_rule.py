"""One scalar-uniform rule: synthetic._uniform.

_uniform(rng, low, high) must return float(rng.uniform(low, high)) and leave
the generator in the same state, for every (low, high) pair the bound tallies
draw, also between bounded-integer draws, which leave half of a PCG64 output
buffered in the generator's state. An AST guard keeps a scalar
`.uniform(low, high)` call (one without size=) out of src/, so the rule keeps
its one site.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from prunerank.synthetic import _uniform

SRC = Path(__file__).resolve().parents[1] / "src" / "prunerank"

# Every (low, high) a tally draws a scalar uniform from.
TALLY_RANGES = ((0.1, 0.5), (0.5, 2.0), (0.2, 2.0), (0.1, 3.0), (-3.0, 3.0), (2.0, 6.0), (0.3, 3.0))


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("low,high", TALLY_RANGES)
def test_uniform_draws_as_numpy_uniform(seed, low, high):
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    for i in range(1000):
        value = _uniform(got, low, high)
        assert type(value) is float
        assert value == float(want.uniform(low, high))
        if i % 3:
            # An odd count of bounded draws leaves a 32-bit word buffered.
            assert int(got.integers(1, 33)) == int(want.integers(1, 33))
        assert got.bit_generator.state == want.bit_generator.state


def test_the_interleaved_draws_buffer_a_word():
    rng = np.random.default_rng(0)
    rng.integers(1, 33)
    assert rng.bit_generator.state["has_uint32"] == 1
    _uniform(rng, 0.1, 0.5)
    # random() draws a whole 64-bit output and leaves the buffered word as it is.
    assert rng.bit_generator.state["has_uint32"] == 1


def scalar_uniform_sites(root: Path = SRC) -> list[str]:
    """module:line of each `.uniform(...)` call under root that passes no size=."""
    sites = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "uniform"
                and not any(keyword.arg == "size" for keyword in node.keywords)
            ):
                sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_scalar_uniforms_are_drawn_only_through_the_rule():
    assert scalar_uniform_sites() == []


def test_the_guard_sees_a_scalar_uniform(tmp_path):
    (tmp_path / "module.py").write_text(
        "def f(rng):\n    return rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0, size=3)\n"
    )
    assert scalar_uniform_sites(tmp_path) == ["module.py:2"]
