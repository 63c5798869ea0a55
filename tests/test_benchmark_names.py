"""The names the benchmark's tracer wraps must exist in prunerank.

perfbench/tracing.py wraps functions by (module, function) name and reads a
tally's trial count from its second positional argument. It is loaded here
from its file, unchanged, so renaming a traced function or reordering a
tally's parameters fails in this suite and not only in the benchmark's own.
Its wrappers share one span stack and are not thread-safe, so no traced name
may run off the main thread.
"""

import importlib
import importlib.util
import inspect
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from prunerank import experiments, pruning

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


def test_no_traced_name_runs_off_the_main_thread(monkeypatch):
    """prune_images's pool workers check and norm images; every traced name
    it reaches runs in the calling thread."""
    calls, workers = [], set()

    def recording(fn, name):
        def recorder(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)

        return recorder

    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "prunerank"]
    for mod, fn in NAMES:
        original = getattr(importlib.import_module(f"prunerank.{mod}"), fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording(original, f"{mod}.{fn}"))
    checked = pruning._checked_tokens

    def checked_spy(*args):
        workers.add(threading.current_thread())
        return checked(*args)

    monkeypatch.setattr(pruning, "_checked_tokens", checked_spy)
    rng = np.random.default_rng(0)
    pruning.prune_images(rng.standard_normal((2, 4)), [rng.standard_normal((n, 4)) for n in (5, 6, 7)], 0.5)
    assert workers and threading.main_thread() not in workers
    names = {name for name, _ in calls}
    assert {"pruning.prune_images", "pruning.keep_count", "linalg.as_vector"} <= names
    assert {thread for _, thread in calls} == {threading.main_thread()}
