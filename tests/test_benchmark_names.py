"""The names the benchmark's tracer wraps must exist in prunerank.

perfbench/tracing.py wraps functions by (module, function) name and reads a
tally's trial count from its second positional argument. It is loaded here
from its file, unchanged, so renaming a traced function or reordering a
tally's parameters fails in this suite and not only in the benchmark's own.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from prunerank import experiments

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
NAMES = [(mod, fn) for mod, fn, _ in tracing.SPANS] + list(tracing.COUNTS)
TALLIES = sorted(name for name in vars(experiments) if name.startswith("_") and name.endswith("_tally"))


@pytest.mark.parametrize("mod,fn", NAMES, ids=[f"{mod}.{fn}" for mod, fn in NAMES])
def test_traced_name_resolves_to_a_prunerank_callable(mod, fn):
    assert callable(getattr(importlib.import_module(f"prunerank.{mod}"), fn, None))


def test_every_tally_is_traced():
    traced = {fn for mod, fn in NAMES if mod == "experiments" and fn.endswith("_tally")}
    assert traced == set(TALLIES) and len(TALLIES) == 4


@pytest.mark.parametrize("name", TALLIES)
def test_tally_takes_the_trial_count_second(name):
    assert list(inspect.signature(getattr(experiments, name)).parameters)[1] == "trials"
