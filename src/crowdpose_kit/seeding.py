"""Deterministic RNG substreams and the one process-pool fan-out.

Substreams are derived by hashing the root seed together with string/int
keys, so per-image (or per-scene) generators are independent of processing
order and parallel execution width. `map_jobs` yields results in item
order, so outputs never depend on the number of jobs either. A worker's
long-running loop asks `stopped()` whether its caller has gone.
"""

from __future__ import annotations

import collections
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


# In a map_jobs worker, the Event that its map_jobs sets when it closes;
# None in any other process.
_stop = None


def _watch(stop) -> None:
    """A pool worker's initializer: keep the Event that stopped() reads."""
    global _stop
    _stop = stop


def stopped() -> bool:
    """True in a map_jobs worker whose generator has closed, so that what
    the worker makes now will never be taken; False in any other process."""
    return _stop is not None and _stop.is_set()


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

    The pool holds two submitted items per worker: the next item is
    submitted when the oldest one's outputs are taken. When the generator
    closes, early or not, it sets the Event that stopped() reads in every
    worker, so a worker's loop that checks stopped() returns soon. It then
    waits for the running items and cancels the rest: no worker outlives
    it."""
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        for item in items:
            yield from fn(item)
        return
    # only here, so that a command that only draws does not load them
    import concurrent.futures
    import multiprocessing

    stop = multiprocessing.Event()
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_watch, initargs=(stop,))
    try:
        rest = iter(items)
        # two per worker: a worker that finishes an item early starts its
        # next one while the oldest, slower item holds up the refill
        window = collections.deque(pool.submit(_listed, fn, item)
                                   for item in itertools.islice(rest, 2 * workers))
        while window:
            outputs = window.popleft().result()
            # refill before the caller takes the outputs, so no worker waits
            for item in itertools.islice(rest, 1):
                window.append(pool.submit(_listed, fn, item))
            yield from outputs
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)
