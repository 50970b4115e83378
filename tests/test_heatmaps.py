import numpy as np
import pytest

from crowdpose_kit import heatmaps as H
from crowdpose_kit.annotations import BBox, Visibility
from crowdpose_kit.errors import DimensionError

from conftest import make_pose, rand_pose


class TestBboxToCrop:
    def test_already_3_4_is_pure_scale(self):
        t = H.bbox_to_crop(BBox(0, 0, 96, 128))
        assert t.matrix[0, 0] == 2.0 and t.matrix[1, 1] == 2.0
        assert t.matrix[0, 2] == 0.0 and t.matrix[1, 2] == 0.0

    def test_square_bbox_expands_height(self):
        # 128x128 grows to 128 x 512/3 about its center
        t = H.bbox_to_crop(BBox(0, 0, 128, 128))
        inv = t.inverse()
        top_left = inv.apply([[0.0, 0.0]])[0]
        bottom_right = inv.apply([[H.INPUT_W, H.INPUT_H]])[0]
        assert top_left[0] == pytest.approx(0.0, abs=1e-9)
        assert top_left[1] == pytest.approx(64 - 256 / 3, abs=1e-9)
        assert bottom_right[0] == pytest.approx(128.0, abs=1e-9)
        assert bottom_right[1] == pytest.approx(64 + 256 / 3, abs=1e-9)

    def test_inverse_roundtrip(self, rng):
        for _ in range(20):
            bbox = BBox(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)),
                        float(rng.uniform(5, 300)), float(rng.uniform(5, 300)))
            t = H.bbox_to_crop(bbox)
            pts = rng.uniform(-100, 400, size=(100, 2))
            back = t.inverse().apply(t.apply(pts))
            assert np.abs(back - pts).max() < 1e-9


def crop_for_scale_2():
    # bbox 96x128 at origin: image coords = crop coords / 2, stride 4
    return H.bbox_to_crop(BBox(0, 0, 96, 128))


def pose_at_cells(cells, vis=Visibility.VISIBLE):
    # place keypoints exactly on heatmap cell centers (image = 2 * cell)
    coords = [(2.0 * cx, 2.0 * cy) for cx, cy in cells]
    return make_pose(coords, vis=vis)


class TestEncode:
    def test_visible_peak_and_zero_occluded_branch(self):
        cells = [(10 + i, 20 + i) for i in range(14)]
        pair, in_bounds = H.encode(pose_at_cells(cells), crop_for_scale_2())
        assert in_bounds.all()
        for i, (cx, cy) in enumerate(cells):
            assert pair.visible.values[i, cy, cx] == 1.0
            assert pair.visible.values[i].max() == 1.0
            assert not pair.occluded.values[i].any()

    def test_self_occluded_goes_to_visible_branch(self):
        cells = [(5, 5)] * 14
        pair, _ = H.encode(pose_at_cells(cells, vis=Visibility.SELF_OCCLUDED),
                           crop_for_scale_2())
        assert pair.visible.values.max() == 1.0
        assert not pair.occluded.values.any()

    def test_occluded_goes_to_occluded_branch(self):
        cells = [(5, 5)] * 14
        pair, _ = H.encode(pose_at_cells(cells, vis=Visibility.OCCLUDED),
                           crop_for_scale_2())
        assert pair.occluded.values.max() == 1.0
        assert not pair.visible.values.any()

    def test_unlabeled_all_zero(self):
        pair, in_bounds = H.encode(pose_at_cells([(5, 5)] * 14,
                                                 vis=Visibility.UNLABELED),
                                   crop_for_scale_2())
        assert not pair.visible.values.any()
        assert not pair.occluded.values.any()
        assert not in_bounds.any()

    def test_out_of_crop_zeroed_with_mask_note(self):
        coords = [(-50.0, -50.0)] + [(20.0, 20.0)] * 13
        pair, in_bounds = H.encode(make_pose(coords), crop_for_scale_2())
        assert not in_bounds[0] and in_bounds[1:].all()
        assert not pair.visible.values[0].any()

    def test_values_in_unit_range(self, rng):
        pose = rand_pose(rng, BBox(0, 0, 96, 128))
        pair, _ = H.encode(pose, crop_for_scale_2())
        for grid in (pair.visible.values, pair.occluded.values):
            assert grid.min() >= 0.0 and grid.max() <= 1.0

    def test_cross_branch_exclusivity(self, rng):
        for _ in range(20):
            vis = [Visibility(v) for v in rng.choice(
                [v.value for v in Visibility], size=14, p=[0.4, 0.3, 0.2, 0.1])]
            pose = rand_pose(rng, BBox(0, 0, 96, 128), vis=vis)
            pair, _ = H.encode(pose, crop_for_scale_2())
            per_kp = pair.visible.values.max(axis=(1, 2)) * \
                pair.occluded.values.max(axis=(1, 2))
            assert (per_kp == 0.0).all()

    def test_sigma_must_be_positive(self):
        with pytest.raises(DimensionError):
            H.encode(pose_at_cells([(5, 5)] * 14), crop_for_scale_2(), sigma=0)


class TestDecode:
    def test_roundtrip_within_two_pixels(self, rng):
        t = crop_for_scale_2()
        worst = 0.0
        for _ in range(100):
            pose = rand_pose(rng, BBox(2, 2, 92, 124))
            pair, in_bounds = H.encode(pose, t)
            result = H.decode(pair, t)
            for i in range(14):
                if not in_bounds[i]:
                    continue
                err = max(abs(result.pose.keypoints[i].x - pose.keypoints[i].x),
                          abs(result.pose.keypoints[i].y - pose.keypoints[i].y))
                worst = max(worst, err)
        assert worst <= 2.0

    def test_all_zero_pair(self):
        pair = H.HeatmapPair.zeros(14)
        result = H.decode(pair, crop_for_scale_2())
        assert (result.confidences == 0.0).all()
        assert result.low_confidence.all()
        assert all(b is Visibility.VISIBLE for b in result.branches)  # tie rule
        assert result.pose.schema.name == "decoded_14"

    def test_occluded_branch_label(self):
        pair, _ = H.encode(pose_at_cells([(7, 9)] * 14, vis=Visibility.OCCLUDED),
                           crop_for_scale_2())
        result = H.decode(pair, crop_for_scale_2())
        assert all(b is Visibility.OCCLUDED for b in result.branches)
        assert all(k.vis is Visibility.OCCLUDED for k in result.pose.keypoints)

    def test_argmax_invariant_to_positive_scaling(self):
        t = crop_for_scale_2()
        pair, _ = H.encode(pose_at_cells([(11, 23)] * 14), t)
        scaled = H.HeatmapPair(H.Heatmap(pair.visible.values * 0.25),
                               H.Heatmap(pair.occluded.values * 0.25))
        a = H.decode(pair, t)
        b = H.decode(scaled, t)
        for ka, kb in zip(a.pose.keypoints, b.pose.keypoints):
            assert ka.x == kb.x and ka.y == kb.y
        assert (b.confidences == a.confidences * 0.25).all()

    def test_low_confidence_flagged_not_dropped(self):
        t = crop_for_scale_2()
        pair, _ = H.encode(pose_at_cells([(11, 23)] * 14), t)
        pair.visible.values *= 0.5  # peaks now 0.5 < 0.7
        result = H.decode(pair, t)
        assert result.low_confidence.all()
        assert len(result.pose.keypoints) == 14

    def test_refinement_shifts_a_quarter_cell(self):
        t = crop_for_scale_2()
        # peak at cell (11.3, 23.3): argmax (11, 23), larger neighbors at +1
        pose = make_pose([(2 * 11 + 0.6, 2 * 23 + 0.6)] * 14)
        pair, _ = H.encode(pose, t)
        result = H.decode(pair, t)
        # cell (11.25, 23.25) is image (22.5, 46.5)
        assert [(k.x, k.y) for k in result.pose.keypoints] == [(22.5, 46.5)] * 14


class TestDumpFormat:
    def test_roundtrip(self, rng):
        pose = rand_pose(rng, BBox(0, 0, 96, 128))
        pair, _ = H.encode(pose, crop_for_scale_2())
        blob = H.write_heatmap_pair(pair)
        assert blob[:4] == H.DUMP_MAGIC and len(blob) == 16 + 2 * 14 * 64 * 48 * 4
        back = H.read_heatmap_pair(blob)
        assert (back.visible.values ==
                pair.visible.values.astype(np.float32).astype(np.float64)).all()
        assert (back.occluded.values ==
                pair.occluded.values.astype(np.float32).astype(np.float64)).all()

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            H.HeatmapPair(H.Heatmap.zeros(3), H.Heatmap.zeros(4))
