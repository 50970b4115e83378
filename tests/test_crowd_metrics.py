import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdpose_kit import crowd_metrics as CM
from crowdpose_kit.annotations import (CROWDPOSE_SCHEMA, BBox, Dataset, ImageRecord,
                                       PersonInstance, Visibility)
from crowdpose_kit.errors import UndefinedMetricError

import oracles
from conftest import make_pose, rand_record


def person_at(box, coords, vis=Visibility.VISIBLE):
    return PersonInstance(bbox=box, pose=make_pose(coords, vis=vis))


# Half-pixel grid values put many points exactly on box edges; the other
# floats include infinities and NaN, which no comparison counts as inside.
_COORD = st.one_of(st.integers(-2, 12).map(lambda v: v / 2.0),
                   st.floats(width=64))


@st.composite
def crowd_arrays(draw):
    """(boxes, points, owners) with 1-6 persons and 0-30 points; a person
    may own no point at all."""
    n = draw(st.integers(1, 6))
    boxes = draw(st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD),
                          min_size=n, max_size=n))
    points = draw(st.lists(st.tuples(_COORD, _COORD), max_size=30))
    owners = [draw(st.integers(0, n - 1)) for _ in points]
    return boxes, points, owners


def _index_arrays(boxes, points, owners):
    return CM.crowd_index_arrays(np.array(boxes, dtype=np.float64).reshape(-1, 4),
                                 np.array(points, dtype=np.float64).reshape(-1, 2),
                                 np.array(owners, dtype=np.int64))


class TestCrowdIndex:
    @settings(max_examples=300, deadline=None)
    @given(crowd_arrays())
    def test_array_core_matches_scalar_loop(self, arrays):
        boxes, points, owners = arrays
        want, empty = oracles.crowd_index_arrays_reference(boxes, points, owners)
        assert _index_arrays(boxes, points, owners) == (want, len(empty))

    @settings(max_examples=200, deadline=None)
    @given(crowd_arrays())
    def test_blocks_of_one_person_match_one_block(self, arrays):
        boxes, points, owners = arrays
        whole = _index_arrays(boxes, points, owners)
        with mock.patch.object(CM, "_INDEX_BLOCK_CELLS", 1):
            assert _index_arrays(boxes, points, owners) == whole

    def test_large_image_memory_is_bounded(self):
        """1,500 persons of 14 points: one in-box matrix of all of them
        takes 31.5 MB per bool temporary; a block takes at most
        _INDEX_BLOCK_CELLS bytes."""
        rng = np.random.default_rng(5)
        n = 1500
        corners = rng.uniform(0, 1000, (n, 2))
        boxes = np.concatenate([corners, np.full((n, 2), 50.0)], axis=1)
        points = (corners[:, None, :] + rng.uniform(-10, 60, (n, 14, 2))).reshape(-1, 2)
        owners = np.repeat(np.arange(n), 14)
        tracemalloc.start()
        try:
            c, empty = CM.crowd_index_arrays(boxes, points, owners)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < c <= 1 and 0 <= empty < n
        assert peak < 8 * CM._INDEX_BLOCK_CELLS

    def test_single_person_zero(self):
        box = BBox(0, 0, 20, 40)
        rec = ImageRecord("a", 100, 100,
                          persons=(person_at(box, [(5, 5)] * 14),))
        assert CM.crowd_index(rec) == (0.0, 0)

    def test_two_identical_overlapping(self):
        box = BBox(0, 0, 20, 40)
        p = person_at(box, [(5.0 + i * 0.5, 6.0 + i) for i in range(14)])
        rec = ImageRecord("a", 100, 100, persons=(p, p))
        assert CM.crowd_index(rec) == (1.0, 0)

    def test_bruteforce_oracle_exact(self, rng):
        for i in range(200):
            rec = rand_record(rng, image_id=f"r{i}")
            assert CM.crowd_index(rec)[0] == oracles.crowd_index_bruteforce(rec)

    def test_boundary_keypoint_counts_inside(self):
        box = BBox(0, 0, 10, 10)
        own = [(5, 5)] * 14
        other_box = BBox(30, 30, 10, 10)
        # foreign keypoint exactly on the first box's edge
        foreign = [(10.0, 5.0)] + [(35, 35)] * 13
        rec = ImageRecord("a", 100, 100, persons=(
            person_at(box, own), person_at(other_box, foreign)))
        # one foreign point among 14 own -> mean(1/14, 0)/... ratio structure
        assert CM.crowd_index(rec) == (pytest.approx((1 / 14) / 2, abs=0), 0)

    def test_degenerate_person_counts(self):
        box = BBox(0, 0, 10, 10)
        outside = [(50, 50)] * 14
        rec = ImageRecord("a", 100, 100, persons=(person_at(box, outside),))
        assert CM.crowd_index(rec) == (0.0, 1)

    def test_zero_persons_error(self):
        with pytest.raises(UndefinedMetricError):
            CM.crowd_index(ImageRecord("a", 10, 10, persons=()))

    def test_unlabeled_excluded(self):
        box = BBox(0, 0, 10, 10)
        own = [(5, 5)] * 14
        vis = [Visibility.UNLABELED] * 13 + [Visibility.VISIBLE]
        foreign = person_at(box, [(5, 5)] * 14, vis=vis)
        rec = ImageRecord("a", 100, 100, persons=(
            person_at(box, own), foreign))
        # ratios: person 0 sees 1 labeled foreign point over 14 own; person 1
        # sees 14 foreign over its single labeled own -> clamped to 1
        c_rec, no_own = CM.crowd_index(rec)
        assert c_rec == oracles.crowd_index_bruteforce(rec)
        assert (c_rec, no_own) == (1.0, 0)

    def test_visible_only_mode(self):
        box = BBox(0, 0, 10, 10)
        occluded_pose = [(5, 5)] * 14
        rec = ImageRecord("a", 100, 100, persons=(
            person_at(box, occluded_pose),
            person_at(box, occluded_pose, vis=Visibility.OCCLUDED)))
        assert CM.crowd_index(rec) == (1.0, 0)
        # occluded keypoints vanish in visible-only mode; person 2 has no
        # countable keypoints at all
        assert CM.crowd_index(rec, CM.COUNT_VISIBLE_ONLY) == (0.0, 1)

    def test_similarity_transform_invariance(self, rng):
        # dyadic coordinates and power-of-two transforms keep FP exact
        for i in range(30):
            rec = rand_record(rng, image_id=f"s{i}")
            def snap(v):
                return float(np.floor(v * 8) / 8)
            persons = []
            for p in rec.persons:
                box = BBox(snap(p.bbox.x), snap(p.bbox.y),
                           snap(p.bbox.w) + 1.0, snap(p.bbox.h) + 1.0)
                coords = [(snap(k.x), snap(k.y)) for k in p.pose.keypoints]
                persons.append(person_at(box, coords,
                                         vis=[k.vis for k in p.pose.keypoints]))
            base = ImageRecord("b", 100, 100, persons=tuple(persons))
            scaled = ImageRecord("b", 100, 100, persons=tuple(
                person_at(BBox(2 * p.bbox.x + 16, 2 * p.bbox.y + 16,
                               2 * p.bbox.w, 2 * p.bbox.h),
                          [(2 * k.x + 16, 2 * k.y + 16) for k in p.pose.keypoints],
                          vis=[k.vis for k in p.pose.keypoints])
                for p in base.persons))
            assert CM.crowd_index(base) == CM.crowd_index(scaled)

    def test_permutation_invariance(self, rng):
        for i in range(30):
            rec = rand_record(rng, image_id=f"p{i}", min_persons=2)
            perm = rng.permutation(len(rec.persons))
            shuffled = ImageRecord("p", 100, 100,
                                   persons=tuple(rec.persons[j] for j in perm))
            assert CM.crowd_index(rec) == CM.crowd_index(shuffled)

    def test_monotone_when_adding_crowded_person(self):
        box = BBox(0, 0, 10, 10)
        coords = [(4.0 + 0.1 * i, 4.0) for i in range(14)]
        two = ImageRecord("a", 50, 50, persons=(
            person_at(box, coords), person_at(BBox(2, 2, 10, 10), coords)))
        three = ImageRecord("a", 50, 50, persons=(
            *two.persons, person_at(BBox(1, 1, 10, 10), coords)))
        assert CM.crowd_index(three)[0] >= CM.crowd_index(two)[0]


class TestPartition:
    @pytest.mark.parametrize("c,level", [
        (0.05, "easy"), (0.0, "easy"),
        (0.1, "medium"), (0.79, "medium"),
        (0.8, "hard"), (1.0, "hard"),
    ])
    def test_boundaries(self, c, level):
        assert CM.partition(c) == level

    @given(st.floats(0.0, 1.0))
    def test_total_on_unit_interval(self, c):
        assert CM.partition(c) in CM.LEVELS

    def test_out_of_range(self):
        with pytest.raises(UndefinedMetricError):
            CM.partition(1.5)


class TestHistogram:
    def test_single_easy_image(self):
        box = BBox(0, 0, 20, 40)
        rec = ImageRecord("a", 100, 100, persons=(person_at(box, [(5, 5)] * 14),))
        stats = CM.dataset_histogram(
            Dataset(schema=CROWDPOSE_SCHEMA, images=(rec,)), bins=10)
        assert stats.histogram == [1] + [0] * 9
        assert stats.levels == {"easy": 1, "medium": 0, "hard": 0}

    def test_c_one_lands_in_last_bin(self):
        box = BBox(0, 0, 20, 40)
        p = person_at(box, [(5, 6)] * 14)
        rec = ImageRecord("a", 100, 100, persons=(p, p))
        stats = CM.dataset_histogram(
            Dataset(schema=CROWDPOSE_SCHEMA, images=(rec,)), bins=10)
        assert stats.histogram[9] == 1

    def test_counts_sum_to_images(self, rng):
        images = tuple(rand_record(rng, image_id=f"i{i}") for i in range(12))
        stats = CM.dataset_histogram(
            Dataset(schema=CROWDPOSE_SCHEMA, images=images), bins=7)
        assert sum(stats.histogram) == 12
        assert sum(stats.levels.values()) == 12
        assert all(0.0 <= c <= 1.0 for _, c in stats.per_image)
