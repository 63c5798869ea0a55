"""Host-speed reference: a fixed kernel timed right after every op.

The benchmark runs on a few cores of a shared host whose speed drifts: on a
2-vCPU Xeon VM the same default verify-bounds op took 2.6 s in one minute and
4.9 s a few minutes later, and process CPU time drifted with wall time, so
neither can tell a slower program from a busier host. A reference kernel
does the same work on every run and calls nothing in prunerank, so only the
host moves its time. Dividing an op's time by the reference time measured on
either side of it cancels most of the drift; a change to the program still
moves the ratio in full. After a long op the kernel runs several times in a
row, so that it samples the host's speed for about a tenth of the op's time;
its time is always reported per run of the kernel.

Each workload picks the kernel that resembles its op, since a busy host
slows interpreted code, small numpy calls and memory streams by different
factors:

- small_arrays: numpy calls on 4x20x16 shapes, like the per-call-bound
  verify-bounds trials and listwise losses;
- cli_mix: about a third each of small_arrays, a dict-and-integer loop in
  the interpreter and a JSON round trip, like the simulate, metrics and
  report code of the small CLI commands;
- image_stream: validation, row norms, a normalized copy and a GEMM over the
  next two of the workload's own images, like prune_images, so it reads the
  op's memory from outside the cache.

Fixed inputs come from a fixed seed, never from --seed.
"""

from __future__ import annotations

import json
import time
from typing import Callable

import numpy as np

SEED = 20240531
SMALL_ITERATIONS = 1500
PYTHON_ITERATIONS = 20_000
JSON_RECORDS = 1000
STREAM_IMAGES = 2
# Reference time after each op, as a share of the op's time.
SHARE = 0.1


def small_arrays(iterations: int = SMALL_ITERATIONS) -> Callable[[], None]:
    rng = np.random.default_rng(SEED)
    query, tokens = rng.standard_normal((4, 16)), rng.standard_normal((20, 16))

    def run() -> None:
        for _ in range(iterations):
            scores = (query @ tokens.T).max(axis=0)
            np.sort(np.argsort(-scores, kind="stable")[:10])
            np.exp(scores - scores.max()).sum()

    return run


def cli_mix() -> Callable[[], None]:
    small = small_arrays(SMALL_ITERATIONS // 3)
    records = [{"subset": f"s{i % 10}", "relevant": [i % 7, i % 5], "ranked": list(range(20))} for i in range(JSON_RECORDS)]

    def run() -> None:
        small()
        counts: dict[int, int] = {}
        total = 0
        for i in range(PYTHON_ITERATIONS):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
            total += i % 7
        json.loads(json.dumps(records))

    return run


def image_stream(images: list) -> Callable[[], None]:
    query = np.random.default_rng(SEED).standard_normal((32, images[0].shape[1]))
    position = 0

    def run() -> None:
        nonlocal position
        for _ in range(STREAM_IMAGES):
            image = images[position]
            position = (position + 1) % len(images)
            np.isfinite(image).all()
            norms = np.sqrt(np.einsum("td,td->t", image, image))
            ((image / norms[:, None]) @ query.T).max(axis=1)

    return run


class Reference:
    def __init__(self, kernel: Callable[[], None], op_ms: float):
        self.run = kernel
        self.run()  # warm-up
        self.reps = 1
        self.reps = max(1, round(SHARE * op_ms / self.time()[0]))

    def time(self) -> tuple[float, float]:
        """(wall ms, process CPU ms) per run of the kernel, over self.reps runs."""
        c0, t0 = time.process_time(), time.perf_counter()
        for _ in range(self.reps):
            self.run()
        t1, c1 = time.perf_counter(), time.process_time()
        return (t1 - t0) * 1e3 / self.reps, (c1 - c0) * 1e3 / self.reps
