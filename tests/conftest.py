from __future__ import annotations

import concurrent.futures
import io
import os
from pathlib import Path

import numpy as np
import pytest

import crowdpose_kit

# Filled by test_acceptance.py; printed after the run so capture modes never
# hide the per-criterion verdict lines.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from crowdpose_kit.annotations import (CROWDPOSE_SCHEMA, BBox, Dataset, ImageRecord,
                                       Keypoint, PersonInstance, Pose, Visibility)
from crowdpose_kit.augment import CutoutInventory
from crowdpose_kit import evaluator, seeding
from crowdpose_kit.heatmaps import dump_heatmap_pair
from crowdpose_kit.masks import (CUTOUT_FULL_BODY, CUTOUT_OBJECT, Cutout,
                                 RasterImage)


def child_env() -> dict[str, str]:
    """Environment whose PYTHONPATH starts with the absolute directory holding
    the crowdpose_kit this suite imported, so a child run in any cwd executes
    that same package (a relative entry such as `src` would not resolve)."""
    package_root = str(Path(crowdpose_kit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    # an empty entry would put the child's cwd on sys.path
    parts = [package_root] + [p for p in inherited if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(parts)}


def dump_bytes(pair) -> bytes:
    """A heatmap pair's dump, as `heatmap encode` writes it to a file."""
    buf = io.BytesIO()
    dump_heatmap_pair(pair, buf)
    return buf.getvalue()


def make_pose(coords, vis=Visibility.VISIBLE, schema=CROWDPOSE_SCHEMA):
    """Pose from (x, y) pairs; vis may be one tag or a sequence of tags."""
    if isinstance(vis, Visibility):
        vis = [vis] * len(coords)
    return Pose(schema, tuple(Keypoint(float(x), float(y), v)
                              for (x, y), v in zip(coords, vis)))


def rand_pose(rng, box: BBox, schema=CROWDPOSE_SCHEMA, vis=Visibility.VISIBLE):
    coords = np.column_stack([
        rng.uniform(box.x, box.x + box.w, schema.count),
        rng.uniform(box.y, box.y + box.h, schema.count),
    ])
    return make_pose(coords, vis=vis, schema=schema)


def oks_matrix(preds, gts, sigmas) -> np.ndarray:
    """One image's (P, G) OKS matrix as eval builds it: evaluator._oks_arrays
    over evaluator._pose_arrays."""
    pred_xy, _ = evaluator._pose_arrays(preds, len(sigmas))
    gt_xy, labeled = evaluator._pose_arrays(gts, len(sigmas))
    area = np.array([g.bbox.area for g in gts], dtype=np.float64)
    return evaluator._oks_arrays(pred_xy, gt_xy, labeled, area, sigmas)


def greedy_matches(scenes, sigmas, thresholds) -> list[list[list]]:
    """eval's matching of (preds, gts) scenes, all in one evaluator._match
    call: per scene and threshold, per prediction the gt index or None."""
    assigned = evaluator._match(((oks_matrix(preds, gts, sigmas),
                                  evaluator._score_order(preds, f"scene_{i}"))
                                 for i, (preds, gts) in enumerate(scenes)), thresholds)
    return [[[None if gi < 0 else gi for gi in row] for row in a.tolist()]
            for a in assigned]


def rand_record(rng, image_id="img", width=200, height=150, max_persons=6,
                min_persons=1):
    persons = []
    for _ in range(int(rng.integers(min_persons, max_persons + 1))):
        w = float(rng.uniform(20, 90))
        h = float(rng.uniform(30, 110))
        x = float(rng.uniform(-10, width - w / 2))
        y = float(rng.uniform(-10, height - h / 2))
        box = BBox(x, y, w, h)
        # keypoints roam a bit beyond the box so point-in-box cases vary
        roam = BBox(x - 0.3 * w, y - 0.3 * h, 1.6 * w, 1.6 * h)
        vis_tags = [Visibility(v) for v in rng.choice(
            [v.value for v in Visibility], size=CROWDPOSE_SCHEMA.count,
            p=[0.6, 0.2, 0.1, 0.1])]
        persons.append(PersonInstance(bbox=box,
                                      pose=rand_pose(rng, roam, vis=vis_tags)))
    return ImageRecord(id=image_id, width=width, height=height,
                       persons=tuple(persons))


def rand_raster(rng, w, h):
    px = rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8)
    px[:, :, 3] = 255
    return RasterImage(np.ascontiguousarray(px))


def blob_cutout(rng, w, h, kind=CUTOUT_OBJECT, keypoints=None):
    """Cutout with a random blob alpha; border rows/cols kept opaque-touched."""
    px = rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8)
    alpha = rng.random((h, w)) < 0.7
    alpha[0, 0] = alpha[-1, -1] = alpha[0, -1] = alpha[-1, 0] = True
    px[:, :, 3] = np.where(alpha, 255, 0)
    return Cutout(raster=RasterImage(np.ascontiguousarray(px)),
                  src_bbox=BBox(0.0, 0.0, float(w), float(h)), kind=kind,
                  keypoints=keypoints)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def inventory(rng):
    inv = CutoutInventory()
    for i in range(4):
        inv.objects.append(blob_cutout(rng, 12 + 5 * i, 10 + 4 * i))
    for i in range(3):
        kps = tuple(Keypoint(float(2 + k), float(3 + k), Visibility.VISIBLE)
                    for k in range(14))
        inv.persons.append(blob_cutout(rng, 16 + 4 * i, 30 + 6 * i,
                                       kind=CUTOUT_FULL_BODY, keypoints=kps))
    return inv


def single_person_dataset(box=BBox(10, 10, 50, 80), image_id="img_0",
                          width=200, height=150, score=None):
    pose = make_pose([(box.x + 5 + i, box.y + 5 + i * 4) for i in range(14)])
    person = PersonInstance(bbox=box, pose=pose, score=score)
    record = ImageRecord(id=image_id, width=width, height=height, persons=(person,))
    return Dataset(schema=CROWDPOSE_SCHEMA, images=(record,))


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size, each
    submitted call's last argument, and after each submit how many
    submitted calls are in flight (their results not yet taken). A call
    runs in this process when its result is taken, so no worker is
    started. The initializer never runs: in this process it would leave
    seeding.stopped() true for every later in-process run."""
    sizes: list = []
    submitted: list = []
    in_flight: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        self.pending = 0

    def submit(self, fn, *args):
        self.pending += 1
        self.submitted.append(args[-1])
        self.in_flight.append(self.pending)
        return _TakenLater(self, fn, args)

    def shutdown(self, cancel_futures=False):
        pass


class _TakenLater:
    def __init__(self, pool, fn, args):
        self.pool, self.fn, self.args = pool, fn, args

    def result(self):
        self.pool.pending -= 1
        return self.fn(*self.args)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool seeding.map_jobs starts, on a
    host with 4 CPUs that this process may all run on."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(seeding.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(seeding.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "submitted", [])
    monkeypatch.setattr(RecordingPool, "in_flight", [])
    return RecordingPool.sizes


@pytest.fixture
def pool_in_flight(pool_sizes):
    """RecordingPool.in_flight, with pool_sizes in place."""
    return RecordingPool.in_flight


@pytest.fixture
def pool_submitted(pool_sizes):
    """RecordingPool.submitted: the item of each call, in submit order."""
    return RecordingPool.submitted
