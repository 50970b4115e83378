"""Deterministic RNG substreams and the one process-pool fan-out.

Substreams are derived by hashing the root seed together with string/int
keys, so per-image (or per-scene) generators are independent of processing
order and parallel execution width. `map_jobs` yields results in item
order, so outputs never depend on the number of jobs either.
"""

from __future__ import annotations

import concurrent.futures
import hashlib

import numpy as np


def substream_seed(seed: int, *keys) -> np.random.SeedSequence:
    """Derive a SeedSequence from a root seed and arbitrary hashable keys."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode("utf-8"))
    for key in keys:
        h.update(b"\x1f")
        h.update(str(key).encode("utf-8"))
    words = np.frombuffer(h.digest(), dtype=np.uint32)
    return np.random.SeedSequence(words.tolist())


def substream(seed: int, *keys) -> np.random.Generator:
    """A generator seeded from (seed, *keys); identical keys -> identical stream."""
    return np.random.Generator(np.random.PCG64(substream_seed(seed, *keys)))


def map_jobs(fn, items, jobs: int):
    """Yield fn(item) for each item, in item order, as results arrive;
    fanned out over `jobs` processes when jobs > 1 and there is more than
    one item. Callers write each result as it comes, so the results are
    never all held at once."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, items, chunksize=max(1, len(items) // (jobs * 4)))
