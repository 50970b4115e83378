"""CrowdIndex computation and crowding-level statistics.

For an image with N persons, person i contributes the ratio of foreign
labeled keypoints inside its box to its own labeled keypoints inside its
box; the image index is the mean ratio clamped to 1. Images partition into
easy [0, 0.1), medium [0.1, 0.8) and hard [0.8, 1.0] levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .annotations import (CODE_UNLABELED, CODE_VISIBLE, Dataset, ImageRecord,
                          gather_keypoints)
from .errors import UndefinedMetricError

LEVEL_EASY = "easy"
LEVEL_MEDIUM = "medium"
LEVEL_HARD = "hard"
LEVELS = (LEVEL_EASY, LEVEL_MEDIUM, LEVEL_HARD)

COUNT_LABELED = "labeled"        # visible + occluded + self-occluded
COUNT_VISIBLE_ONLY = "visible_only"

# The most cells of one in-box matrix: crowd_index_arrays compares the
# points with as many persons' boxes at a time as fit, so its memory grows
# with an image's points, not with their square. A gen scene (at most 100
# persons of 14 keypoints, 140,000 cells) is one block.
_INDEX_BLOCK_CELLS = 1 << 20

# The most histogram bins: a list of this many counts is built before any
# image is read. 10,000 bins resolve the CrowdIndex to 1e-4, far finer than
# any use (the tests, the bench and the README use at most 10).
MAX_BINS = 10_000


def crowd_index(record: ImageRecord,
                count_mode: str = COUNT_LABELED) -> tuple[float, int]:
    """CrowdIndex of one image, min(mean_i(N_a_i / N_b_i), 1.0), and the
    number of persons with N_b_i = 0.

    N_b_i counts person i's own labeled keypoints inside (or on the
    boundary of) its box; N_a_i counts labeled keypoints of every other
    person inside that box. A person with N_b_i = 0 contributes ratio 0.
    """
    n = len(record.persons)
    if n == 0:
        raise UndefinedMetricError(f"CrowdIndex undefined for image {record.id!r} "
                                   f"with zero persons")
    points, codes, offsets = gather_keypoints(record.persons)
    rows = np.flatnonzero(codes == CODE_VISIBLE if count_mode == COUNT_VISIBLE_ONLY
                          else codes != CODE_UNLABELED)
    owners = np.searchsorted(offsets, rows, side="right") - 1
    boxes = np.array([(p.bbox.x, p.bbox.y, p.bbox.w, p.bbox.h)
                      for p in record.persons], dtype=np.float64)
    return crowd_index_arrays(boxes, points[rows], owners)


def crowd_index_arrays(boxes: np.ndarray, points: np.ndarray,
                       owners: np.ndarray) -> tuple[float, int]:
    """Array-core CrowdIndex: boxes (N, 4) as x/y/w/h, labeled keypoint
    coordinates (T, 2) with an owner index per point. Returns the index and
    the number of persons with no own point in their box.

    An (n, T) comparison matrix says which points lie in which of n boxes,
    for blocks of n persons that keep it within _INDEX_BLOCK_CELLS. The
    in-box test is a pure comparison, so the counts match a scalar
    point-in-box loop exactly; the counts divide as Python ints and the
    ratio sum uses fsum, making the result independent of person order.
    """
    n = len(boxes)
    x, y = points[:, 0], points[:, 1]
    block = max(_INDEX_BLOCK_CELLS // max(len(points), 1), 1)
    ratios = []
    for start in range(0, n, block):
        b = boxes[start:start + block]
        x0, y0 = b[:, 0, None], b[:, 1, None]
        inside = ((x >= x0) & (x <= x0 + b[:, 2, None]) &
                  (y >= y0) & (y <= y0 + b[:, 3, None]))          # (n, T)
        n_in = inside.sum(axis=1)
        n_own = (inside & (owners == np.arange(start, start + len(b))[:, None])).sum(axis=1)
        ratios += [n_a / n_b for n_a, n_b in zip((n_in - n_own).tolist(), n_own.tolist())
                   if n_b]
    return min(math.fsum(ratios) / n, 1.0), n - len(ratios)


def partition(c: float) -> str:
    """Crowding level for a CrowdIndex value in [0, 1]."""
    if not 0.0 <= c <= 1.0:
        raise UndefinedMetricError(f"CrowdIndex {c} outside [0, 1]")
    if c < 0.1:
        return LEVEL_EASY
    if c < 0.8:
        return LEVEL_MEDIUM
    return LEVEL_HARD


@dataclass
class CrowdIndexStats:
    per_image: list[tuple[str, float]] = field(default_factory=list)
    histogram: list[int] = field(default_factory=list)
    levels: dict[str, int] = field(default_factory=dict)
    no_own_keypoints: int = 0  # persons counted as ratio 0; not in to_json

    def to_json(self) -> dict:
        return {
            "per_image": [{"id": i, "crowd_index": c} for i, c in self.per_image],
            "histogram": self.histogram,
            "levels": self.levels,
        }


def histogram_bin(c: float, bins: int) -> int:
    """Bin index for C in [0, 1]; last bin is closed at 1.0."""
    return min(int(c * bins), bins - 1)


def dataset_histogram(dataset: Dataset, bins: int,
                      count_mode: str = COUNT_LABELED) -> CrowdIndexStats:
    """Per-image CrowdIndex, a fixed-width histogram over [0, 1], and level counts."""
    if not 1 <= bins <= MAX_BINS:
        raise UndefinedMetricError(f"need 1 to {MAX_BINS} bins, got {bins}")
    stats = CrowdIndexStats(histogram=[0] * bins,
                            levels={level: 0 for level in LEVELS})
    for img in dataset.images:
        c, no_own = crowd_index(img, count_mode)
        stats.no_own_keypoints += no_own
        stats.per_image.append((img.id, c))
        stats.histogram[histogram_bin(c, bins)] += 1
        stats.levels[partition(c)] += 1
    return stats
