import numpy as np
import pytest

from crowdpose_kit import augment as AUG
from crowdpose_kit.annotations import (BBox, ImageRecord, PersonInstance,
                                       Visibility)
from crowdpose_kit.errors import ConfigError, InventoryError
from crowdpose_kit.masks import (CUTOUT_BODY_PART, CUTOUT_FULL_BODY,
                                 CUTOUT_OBJECT, Cutout, RasterImage)
from crowdpose_kit.seeding import substream

import oracles
from conftest import make_pose, rand_raster

BOX = BBox(10.0, 5.0, 100.0, 200.0)


def square_cutout(side=20, value=180):
    px = np.full((side, side, 4), value, dtype=np.uint8)
    return Cutout(raster=RasterImage(px),
                  src_bbox=BBox(0, 0, side, side), kind=CUTOUT_OBJECT)


class TestObjectPlanner:
    def test_area_fraction_bounds(self, rng, inventory):
        areas = []
        for _ in range(1000):
            p = AUG.plan_cutout(rng, CUTOUT_OBJECT, BOX, inventory)
            areas.append(p.dst_w * p.dst_h)
        lo, hi = 0.08 * BOX.area, 0.70 * BOX.area
        assert min(areas) >= lo - 1e-9
        assert max(areas) <= hi + 1e-9

    def test_degenerate_fraction_square_cutout(self):
        area = 0.5 * BOX.area
        w, h = AUG._snap_dims(area, 20, 20, area, area)
        assert abs(w * h - area) <= 1.0

    def test_center_inside_bbox(self, rng, inventory):
        for _ in range(500):
            p = AUG.plan_cutout(rng, CUTOUT_OBJECT, BOX, inventory)
            cx = p.dst_x + p.dst_w / 2.0
            cy = p.dst_y + p.dst_h / 2.0
            assert BOX.contains(cx, cy)

    def test_seed_determinism(self, inventory):
        plans_a = []
        plans_b = []
        ra, rb = substream(9, "x"), substream(9, "x")
        for _ in range(20):
            plans_a.append(AUG.plan_cutout(ra, CUTOUT_OBJECT, BOX, inventory))
            plans_b.append(AUG.plan_cutout(rb, CUTOUT_OBJECT, BOX, inventory))
        assert plans_a == plans_b

    def test_empty_inventory(self, rng):
        with pytest.raises(InventoryError):
            AUG.plan_cutout(rng, CUTOUT_OBJECT, BOX, AUG.CutoutInventory())


class TestBodyPartPlanner:
    def test_part_fraction_bounds(self, rng, inventory):
        for _ in range(1000):
            p = AUG.plan_cutout(rng, CUTOUT_BODY_PART, BOX, inventory)
            px, py, pw, ph = p.src_rect
            src = inventory.persons[p.cutout_index].raster
            frac = (pw * ph) / (src.width * src.height)
            assert 0.2 - 1e-9 <= frac <= 0.6 + 1e-9
            assert 0 <= px and px + pw <= src.width
            assert 0 <= py and py + ph <= src.height

    def test_forced_whole_cutout(self, inventory):
        for cut in inventory.persons:
            cw, ch = cut.raster.width, cut.raster.height
            assert AUG._snap_dims(cw * ch, cw, ch, cw * ch, cw * ch,
                                  max_w=cw, max_h=ch) == (cw, ch)

    def test_determinism(self, inventory):
        ra, rb = substream(4, "p"), substream(4, "p")
        for _ in range(20):
            assert AUG.plan_cutout(ra, CUTOUT_BODY_PART, BOX, inventory) == \
                AUG.plan_cutout(rb, CUTOUT_BODY_PART, BOX, inventory)

    def test_empty_inventory(self, rng):
        with pytest.raises(InventoryError):
            AUG.plan_cutout(rng, CUTOUT_BODY_PART, BOX, AUG.CutoutInventory())


class TestFullBodyPlanner:
    def test_center_outside_central_region(self, rng, inventory):
        x_lo, x_hi = BOX.x + 0.25 * BOX.w, BOX.x + 0.75 * BOX.w
        y_lo, y_hi = BOX.y + 0.25 * BOX.h, BOX.y + 0.75 * BOX.h
        for _ in range(1000):
            p = AUG.plan_cutout(rng, CUTOUT_FULL_BODY, BOX, inventory)
            cx = p.dst_x + p.dst_w / 2.0
            cy = p.dst_y + p.dst_h / 2.0
            assert BOX.contains(cx, cy)
            assert not (x_lo <= cx <= x_hi and y_lo <= cy <= y_hi)

    def test_bbox_local_restatement(self, rng, inventory):
        box = BBox(0, 0, 100, 100)
        for _ in range(300):
            p = AUG.plan_cutout(rng, CUTOUT_FULL_BODY, box, inventory)
            cx = p.dst_x + p.dst_w / 2.0
            cy = p.dst_y + p.dst_h / 2.0
            assert not (37.5 <= cx <= 62.5 and 37.5 <= cy <= 62.5)

    def test_determinism(self, inventory):
        ra, rb = substream(3, "f"), substream(3, "f")
        for _ in range(20):
            assert AUG.plan_cutout(ra, CUTOUT_FULL_BODY, BOX, inventory) == \
                AUG.plan_cutout(rb, CUTOUT_FULL_BODY, BOX, inventory)


def little_record(image_id="img", coords=None, vis=None):
    coords = coords or [(20.0 + 2 * i, 30.0 + 10 * i) for i in range(14)]
    pose = make_pose(coords, vis=vis or Visibility.VISIBLE)
    return ImageRecord(image_id, 140, 230, persons=(
        PersonInstance(bbox=BBox(10, 20, 110, 190), pose=pose),))


class TestApplyAugmentation:
    def test_keypoint_under_paste_becomes_occluded(self, rng):
        # opaque cutout; across a few seeds some paste covers a keypoint
        inv = AUG.CutoutInventory(objects=[square_cutout(side=30)])
        cfg = AUG.AugmentConfig(method=AUG.METHOD_OBJECTS)
        record = little_record()
        img = rand_raster(rng, record.width, record.height)
        covered_any = False
        for i in range(8):
            result = AUG.apply_augmentation(substream(2, "a", i), img, record,
                                            0, cfg, inv)
            covered = [ki for ki, kp in enumerate(record.persons[0].pose.keypoints)
                       if result.painted[int(kp.y), int(kp.x)]]
            covered_any |= bool(covered)
            for ki in covered:
                assert result.record.persons[0].pose.keypoints[ki].vis is \
                    Visibility.OCCLUDED
            changed = {c.keypoint_index for c in result.flag_changes}
            assert changed == set(covered)
        assert covered_any, "some paste must cover a keypoint in this setup"

    def test_transparent_cutout_is_identity(self, rng):
        ghost = Cutout(raster=RasterImage(np.zeros((8, 8, 4), np.uint8)),
                       src_bbox=BBox(0, 0, 8, 8), kind=CUTOUT_OBJECT)
        inv = AUG.CutoutInventory(objects=[ghost])
        record = little_record()
        img = rand_raster(rng, record.width, record.height)
        result = AUG.apply_augmentation(
            substream(5, "b"), img, record, 0,
            AUG.AugmentConfig(method=AUG.METHOD_OBJECTS), inv)
        assert result.image.pixels.tobytes() == img.pixels.tobytes()
        assert result.record == record
        assert result.flag_changes == []

    def test_inputs_unchanged(self, rng, inventory):
        record = little_record()
        img = rand_raster(rng, record.width, record.height)
        before = img.pixels.tobytes()
        AUG.apply_augmentation(substream(6, "c"), img, record, 0,
                               AUG.AugmentConfig(method=AUG.METHOD_OBJECTS),
                               inventory)
        assert img.pixels.tobytes() == before

    @pytest.mark.parametrize("method,kinds", [
        (AUG.METHOD_PARTS_AND_OBJECTS, {"body_part", "object"}),
        (AUG.METHOD_FULL_AND_OBJECTS, {"full_body", "object"}),
    ])
    def test_and_methods_apply_both(self, rng, inventory, method, kinds):
        record = little_record()
        img = rand_raster(rng, record.width, record.height)
        result = AUG.apply_augmentation(substream(7, method), img, record, 0,
                                        AUG.AugmentConfig(method=method),
                                        inventory)
        assert {p.kind for p in result.placements} == kinds

    @pytest.mark.parametrize("method,pair", [
        (AUG.METHOD_PARTS_OR_OBJECTS, {"body_part", "object"}),
        (AUG.METHOD_FULL_OR_OBJECTS, {"full_body", "object"}),
    ])
    def test_or_methods_apply_exactly_one(self, rng, inventory, method, pair):
        seen = set()
        record = little_record()
        img = rand_raster(rng, record.width, record.height)
        for i in range(40):
            result = AUG.apply_augmentation(substream(i, method), img, record, 0,
                                            AUG.AugmentConfig(method=method),
                                            inventory)
            assert len(result.placements) == 1
            seen.add(result.placements[0].kind)
        assert seen == pair  # both branches exercised across seeds

    def test_flag_monotonicity_and_coordinates(self, rng, inventory):
        vis = [Visibility.OCCLUDED, Visibility.UNLABELED] + [Visibility.VISIBLE] * 12
        record = little_record(vis=vis)
        img = rand_raster(rng, record.width, record.height)
        result = AUG.apply_augmentation(substream(8, "m"), img, record, 0,
                                        AUG.AugmentConfig(method=AUG.METHOD_OBJECTS),
                                        inventory)
        out_kps = result.record.persons[0].pose.keypoints
        assert out_kps[0].vis is Visibility.OCCLUDED
        assert out_kps[1].vis is Visibility.UNLABELED
        for before, after in zip(record.persons[0].pose.keypoints, out_kps):
            assert before.x == after.x and before.y == after.y
            if before.vis is Visibility.VISIBLE:
                assert after.vis in (Visibility.VISIBLE, Visibility.OCCLUDED)

    def test_pixel_lookup_oracle(self, rng, inventory):
        # flags recomputed from the log by an independent scaler
        agreement = 0
        total = 0
        for i in range(200):
            record = little_record(image_id=f"img_{i}")
            img = rand_raster(rng, record.width, record.height)
            method = [AUG.METHOD_OBJECTS, AUG.METHOD_BODY_PARTS,
                      AUG.METHOD_FULL_BODY, AUG.METHOD_PARTS_AND_OBJECTS,
                      AUG.METHOD_PARTS_OR_OBJECTS][i % 5]
            cfg = AUG.AugmentConfig(method=method)
            result = AUG.apply_augmentation(substream(i, "oracle"), img, record,
                                            0, cfg, inventory)
            expected = oracles.augment_flags_reference(record, result.placements,
                                                       inventory)
            for person, flags in zip(result.record.persons, expected):
                total += len(flags)
                agreement += sum(kp.vis is vis for kp, vis in
                                 zip(person.pose.keypoints, flags))
        assert agreement == total

    def test_bad_target_index(self, rng, inventory):
        record = little_record()
        img = rand_raster(rng, record.width, record.height)
        with pytest.raises(ConfigError):
            AUG.apply_augmentation(substream(1, "t"), img, record, 5,
                                   AUG.AugmentConfig(method=AUG.METHOD_OBJECTS),
                                   inventory)


class TestInventoryIO:
    def test_save_load_roundtrip(self, tmp_path, inventory):
        AUG.save_inventory(tmp_path / "inv", inventory)
        back = AUG.load_inventory(tmp_path / "inv")
        assert len(back.objects) == len(inventory.objects)
        assert len(back.persons) == len(inventory.persons)
        for a, b in zip(inventory.objects + inventory.persons,
                        back.objects + back.persons):
            assert a.raster.pixels.tobytes() == b.raster.pixels.tobytes()
            assert a.kind == b.kind
            assert a.keypoints == b.keypoints

    def test_missing_index(self, tmp_path):
        with pytest.raises(InventoryError):
            AUG.load_inventory(tmp_path / "nope")


class TestConfigValidation:
    def test_bad_fracs(self):
        with pytest.raises(ConfigError):
            AUG.AugmentConfig(method="nope")
