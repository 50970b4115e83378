"""Deterministic RNG substreams and the one process-pool fan-out.

Substreams are derived by hashing the root seed together with string/int
keys, so per-image (or per-scene) generators are independent of processing
order and parallel execution width. `map_jobs` yields results in item
order, so outputs never depend on the number of jobs either.
"""

from __future__ import annotations

import collections
import concurrent.futures
import hashlib
import itertools
import os

import numpy as np


def substream_seed(seed: int, *keys) -> np.random.SeedSequence:
    """Derive a SeedSequence from a root seed and arbitrary hashable keys."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode("utf-8"))
    for key in keys:
        h.update(b"\x1f")
        h.update(str(key).encode("utf-8"))
    # SeedSequence takes the uint32 words as they are; a list of Python
    # ints made it convert them back, five times slower
    return np.random.SeedSequence(np.frombuffer(h.digest(), dtype=np.uint32))


def substream(seed: int, *keys) -> np.random.Generator:
    """A generator seeded from (seed, *keys); identical keys -> identical stream."""
    return np.random.Generator(np.random.PCG64(substream_seed(seed, *keys)))


def _listed(fn, item) -> list:
    """A worker's task: fn(item)'s outputs as a list, which pickles."""
    return list(fn(item))


def map_jobs(fn, items, jobs: int):
    """Yield the outputs of the iterable fn(item) for each item, in item
    order. With jobs > 1 the items fan out over a pool of
    min(jobs, items, CPUs) processes, each returning list(fn(item));
    otherwise each output is made in this process as it is taken. Callers
    write each output as it comes, so the outputs are never all held at
    once.

    The pool holds one submitted item per worker: the next item is
    submitted when the oldest one's outputs are taken. Closing the
    generator early therefore waits for at most one running item per
    worker, and no worker outlives it."""
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        for item in items:
            yield from fn(item)
        return
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        rest = iter(items)
        window = collections.deque(pool.submit(_listed, fn, item)
                                   for item in itertools.islice(rest, workers))
        while window:
            outputs = window.popleft().result()
            # refill before the caller takes the outputs, so no worker waits
            for item in itertools.islice(rest, 1):
                window.append(pool.submit(_listed, fn, item))
            yield from outputs
    finally:
        pool.shutdown(cancel_futures=True)
