import multiprocessing
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdpose_kit import seeding

import oracles

KEYS = st.one_of(st.integers(-2**70, 2**70), st.text(max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.integers(-2**70, 2**70), st.lists(KEYS, max_size=4))
def test_substream_matches_list_seeded_reference(seed, keys):
    """Passing the digest words as an array seeds the same stream as the
    list of Python ints it replaced."""
    got = np.random.PCG64(seeding.substream_seed(seed, *keys)).state
    want = np.random.PCG64(oracles.substream_seed_reference(seed, *keys)).state
    assert got == want


@pytest.mark.parametrize("jobs, items, size", [
    (64, 10, 4),    # capped by the CPUs
    (3, 10, 3),     # by the jobs
    (64, 2, 2),     # by the items
    (64, 1, None),  # one item runs in this process
    (1, 10, None),
])
def test_pool_size(pool_sizes, jobs, items, size):
    out = list(seeding.map_jobs(lambda i: [i, -i], range(items), jobs))
    assert out == [v for i in range(items) for v in (i, -i)]
    assert pool_sizes == ([] if size is None else [size])


def test_unknown_cpu_count_runs_in_process(pool_sizes, monkeypatch):
    monkeypatch.setattr(seeding.os, "cpu_count", lambda: None)
    assert list(seeding.map_jobs(lambda i: [i], range(5), 8)) == list(range(5))
    assert pool_sizes == []


@pytest.mark.parametrize("jobs, items", [(2, 10), (3, 10), (64, 9), (4, 4)])
def test_one_item_in_flight_per_worker(pool_sizes, pool_in_flight, jobs, items):
    """Items are submitted in a window of two per worker, in item order."""
    out = list(seeding.map_jobs(lambda i: [i, -i], range(items), jobs))
    assert out == [v for i in range(items) for v in (i, -i)]
    assert len(pool_in_flight) == items
    assert max(pool_in_flight) == min(2 * pool_sizes[0], items)


def test_closing_early_submits_no_more(pool_sizes, pool_in_flight):
    """A caller that stops after the first output, as a failing gen does,
    has submitted only the first window and one refill."""
    outputs = seeding.map_jobs(lambda i: [i], range(100), 2)
    assert next(outputs) == 0
    outputs.close()
    assert pool_in_flight == [1, 2, 3, 4, 4]


def test_stopped_is_false_outside_a_worker(pool_sizes):
    """Neither this process nor a recorded pool ever reads as stopped."""
    outputs = seeding.map_jobs(lambda i: [seeding.stopped()], range(4), 2)
    assert next(outputs) is False
    outputs.close()
    assert not seeding.stopped()


# How long the looping item below may run before it gives up on the stop.
STOP_TIMEOUT_S = 10.0


def _first_returns_rest_loop(i):
    """Item 0 returns at once; any other loops until its map_jobs closes
    (or the timeout passes)."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while i and not seeding.stopped() and time.monotonic() < deadline:
        time.sleep(0.005)
    return [i]


def test_closing_stops_running_workers(monkeypatch):
    """A real pool: closing map_jobs after its first output stops the
    worker that is looping on another item, and leaves no child running."""
    monkeypatch.setattr(seeding.os, "cpu_count", lambda: 2)
    outputs = seeding.map_jobs(_first_returns_rest_loop, range(4), 2)
    assert next(outputs) == 0
    started = time.monotonic()
    outputs.close()
    assert time.monotonic() - started < STOP_TIMEOUT_S / 3
    assert not multiprocessing.active_children()
    assert not seeding.stopped()
