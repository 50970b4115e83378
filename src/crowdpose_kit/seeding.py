"""Deterministic RNG substreams and the one process-pool fan-out.

Substreams are derived by hashing the root seed together with string/int
keys, so per-image (or per-scene) generators are independent of processing
order and parallel execution width. `map_jobs` returns results in item
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


def map_jobs(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], fanned out over `jobs` processes when
    jobs > 1 and there is more than one item; results keep item order."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (jobs * 4))))
