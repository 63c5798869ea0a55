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
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from prunerank import cli, experiments, pruning

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


def record_every_binding(monkeypatch) -> list:
    """(name, thread, args) of every call of a traced name from here on, through
    each prunerank module that binds it, as the benchmark's tracer wraps them."""
    calls = []

    def recording(fn, name):
        def recorder(*args, **kwargs):
            calls.append((name, threading.current_thread(), args))
            return fn(*args, **kwargs)

        return recorder

    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "prunerank"]
    for mod, fn in NAMES:
        original = getattr(importlib.import_module(f"prunerank.{mod}"), fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording(original, f"{mod}.{fn}"))
    return calls


def test_no_traced_name_runs_off_the_main_thread(monkeypatch):
    """prune_images's pool workers check and norm images; every traced name
    it reaches runs in the calling thread."""
    calls, workers = record_every_binding(monkeypatch), set()
    checked = pruning._checked_tokens

    def checked_spy(*args):
        workers.add(threading.current_thread())
        return checked(*args)

    monkeypatch.setattr(pruning, "_checked_tokens", checked_spy)
    rng = np.random.default_rng(0)
    pruning.prune_images(rng.standard_normal((2, 4)), [rng.standard_normal((n, 4)) for n in (5, 6, 7)], 0.5)
    assert workers and threading.main_thread() not in workers
    names = {name for name, *_ in calls}
    assert {"pruning.prune_images", "pruning.keep_count", "linalg.as_vector"} <= names
    assert {thread for _, thread, _ in calls} == {threading.main_thread()}


def test_verify_bounds_runs_each_traced_tally_once_with_its_trial_count(tmp_path, monkeypatch):
    """The benchmark's per-tally rows count one call of each tally per run and
    read its trial count from the second positional argument."""
    calls = record_every_binding(monkeypatch)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"trials": 3, "selftest_trials": 5}))
    cli.main(["verify-bounds", "--config", str(config), "--out", str(tmp_path / "out")])
    tallies = [(name, args[1:2]) for name, _, args in calls if name.endswith("_tally")]
    order = ("_sandwich_tally", "_stability_tally", "_pruning_error_tally", "_tail_gap_tally")
    assert tallies == [(f"experiments.{name}", (3,)) for name in order]
