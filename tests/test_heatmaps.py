import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdpose_kit import heatmaps as H
from crowdpose_kit.annotations import (CODE_OCCLUDED, CODE_VISIBLE, CROWDPOSE_SCHEMA, BBox,
                                       Keypoint, Pose, Visibility)
from crowdpose_kit.errors import DimensionError, MaskDecodeError

import oracles
from conftest import dump_bytes, make_pose, rand_pose


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
        pair = H.HeatmapPair(np.zeros((2, 14, H.HEATMAP_H, H.HEATMAP_W)))
        result = H.decode(pair, crop_for_scale_2())
        assert (result.confidences == 0.0).all()
        assert result.low_confidence.all()
        assert (result.pose.codes == CODE_VISIBLE).all()  # tie rule
        assert result.pose.schema.name == "decoded_14"

    def test_occluded_branch_label(self):
        pair, _ = H.encode(pose_at_cells([(7, 9)] * 14, vis=Visibility.OCCLUDED),
                           crop_for_scale_2())
        result = H.decode(pair, crop_for_scale_2())
        assert (result.pose.codes == CODE_OCCLUDED).all()
        assert all(k.vis is Visibility.OCCLUDED for k in result.pose.keypoints)

    def test_argmax_invariant_to_positive_scaling(self):
        t = crop_for_scale_2()
        pair, _ = H.encode(pose_at_cells([(11, 23)] * 14), t)
        scaled = H.HeatmapPair(pair.values * 0.25)
        a = H.decode(pair, t)
        b = H.decode(scaled, t)
        for ka, kb in zip(a.pose.keypoints, b.pose.keypoints):
            assert ka.x == kb.x and ka.y == kb.y
        assert (b.confidences == a.confidences * 0.25).all()

    def test_threshold_is_compared_in_float64(self):
        """A float32 peak of float32(0.7) lies below the float64 threshold
        0.7, and a threshold beyond float32's range does not overflow."""
        values = np.zeros((2, 2, 3, 3), dtype=np.float32)
        values[0, :, 1, 1] = 0.7
        pair = H.HeatmapPair(values)
        result = H.decode(pair, crop_for_scale_2())
        assert result.confidences.dtype == np.float64
        assert (result.confidences == float(np.float32(0.7))).all()
        assert result.low_confidence.all()
        with np.errstate(all="raise"):
            assert H.decode(pair, crop_for_scale_2(), 1e308).low_confidence.all()
            assert not H.decode(pair, crop_for_scale_2(), -1e308).low_confidence.any()

    def test_float32_pair_decodes_as_its_float64_copy(self, rng):
        t = crop_for_scale_2()
        for _ in range(20):
            pair, _ = H.encode(rand_pose(rng, BBox(2, 2, 92, 124)), t)
            wide = H.HeatmapPair(pair.values.astype(np.float64))
            assert _decoded(H.decode(pair, t)) == _decoded(H.decode(wide, t))

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
        assert pair.values.dtype == np.float32
        blob = dump_bytes(pair)
        assert blob[:4] == H.DUMP_MAGIC and len(blob) == 16 + 2 * 14 * 64 * 48 * 4
        assert blob[16:] == pair.values.astype("<f4").tobytes()
        back = H.read_heatmap_pair(blob)
        assert back.values.dtype == np.float32 and back.shape == pair.shape
        assert back.values.tobytes() == pair.values.tobytes()

    def test_float64_pair_dumps_its_float32_values(self, rng):
        values = rng.standard_normal((2, 3, 4, 5))
        blob = dump_bytes(H.HeatmapPair(values))
        assert blob == H.DUMP_MAGIC + struct.pack("<III", 3, 4, 5) + \
            values.astype("<f4").tobytes()

    def test_read_is_a_read_only_view_of_the_input(self):
        blob = dump_bytes(H.HeatmapPair(np.ones((2, 3, 4, 5), dtype=np.float32)))
        pair = H.read_heatmap_pair(blob)
        assert not pair.values.flags.writeable
        assert np.shares_memory(pair.values, np.frombuffer(blob, np.uint8))
        with pytest.raises(ValueError):
            pair.visible.values[0, 0, 0] = 2.0

    def test_trailing_bytes_are_ignored(self):
        blob = dump_bytes(H.HeatmapPair(np.ones((2, 1, 2, 2), dtype=np.float32)))
        assert (H.read_heatmap_pair(blob + b"tail").values == 1.0).all()

    @pytest.mark.parametrize("blob, message", [
        (b"", "not a heatmap dump"),
        (b"NOPE" + struct.pack("<III", 1, 1, 1) + bytes(8), "not a heatmap dump"),
        (H.DUMP_MAGIC + struct.pack("<III", 1, 0, 1), "heatmap dump has an empty 1x0x1 stack"),
        (H.DUMP_MAGIC + struct.pack("<III", 1, 1, 1) + bytes(7), "truncated heatmap dump"),
        # K * H * W near 2**96 is refused by the length check, before frombuffer
        (H.DUMP_MAGIC + struct.pack("<III", *[2**32 - 1] * 3) + bytes(64),
         "truncated heatmap dump"),
    ])
    def test_bad_dumps_keep_their_messages(self, blob, message):
        with pytest.raises(MaskDecodeError) as caught:
            H.read_heatmap_pair(blob)
        assert str(caught.value) == message

    def test_shape_mismatch_raises(self):
        for shape in ((2, 64, 48), (3, 14, 64, 48)):  # 3-D; three branches
            with pytest.raises(DimensionError):
                H.HeatmapPair(np.zeros(shape))

    def test_branches_are_views(self):
        pair = H.HeatmapPair(np.zeros((2, 3, 4, 5)))
        pair.visible.values[1, 2, 3] = 7.0
        pair.occluded.values[0, 0, 0] = -1.0
        assert pair.values[0, 1, 2, 3] == 7.0 and pair.values[1, 0, 0, 0] == -1.0
        assert np.count_nonzero(pair.values) == 2
        assert pair.shape == (3, 4, 5)


# --- the array kernels against the per-keypoint reference ------------------

# Boxes with power-of-two crop scales map heatmap cell edges to image
# coordinates and back exactly; the random ones come within a few ulps.
_NICE_BOXES = (BBox(0, 0, 96, 128), BBox(-8, 4, 48, 64), BBox(16, -32, 384, 512))
_BOXES = st.one_of(st.sampled_from(_NICE_BOXES), st.builds(
    BBox, st.floats(-300, 300), st.floats(-300, 300), st.floats(0.5, 600),
    st.floats(0.5, 600)))
# 1e-3 has the smallest reach; 40 and 1e100 reach past the whole grid
_SIGMAS = st.one_of(st.sampled_from((1e-3, 2.0, 3.0, 40.0, 1e100)),
                    st.floats(1e-3, 12.0))


def _nudge(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, math.copysign(math.inf, steps)))
    return value


@st.composite
def encode_cases(draw):
    """(pose, transform, sigma): keypoints on and a few ulps beside the grid
    borders, on and between cells, far outside, non-finite or 1e308, with
    every visibility tag."""
    transform = H.bbox_to_crop(draw(_BOXES))
    inv = transform.inverse()

    def coord(axis, last):
        kind = draw(st.sampled_from(("border", "cell", "any", "special")))
        if kind == "special":
            return draw(st.sampled_from((math.nan, math.inf, -math.inf, 1e308, -1e308)))
        if kind == "border":
            cell = draw(st.sampled_from((0.0, float(last))))
        elif kind == "cell":
            cell = float(draw(st.integers(-1, last + 1)))
        else:
            cell = draw(st.floats(-4.0, last + 4.0))
        crop = [0.0, 0.0]
        crop[axis] = cell * H.STRIDE
        return _nudge(float(inv.apply([crop])[0][axis]), draw(st.integers(-2, 2)))

    keypoints = tuple(Keypoint(coord(0, H.HEATMAP_W - 1), coord(1, H.HEATMAP_H - 1),
                               draw(st.sampled_from(list(Visibility))))
                      for _ in range(CROWDPOSE_SCHEMA.count))
    return Pose(CROWDPOSE_SCHEMA, keypoints), transform, draw(_SIGMAS)


# few distinct values, so branch maxima and argmax rows tie often
_CELL = st.one_of(st.sampled_from((0.0, 0.0, 0.5, 1.0, 1.0, -1.0)),
                  st.sampled_from((math.nan, math.inf, -math.inf)),
                  st.floats(-2.0, 2.0))


@st.composite
def grid_pairs(draw):
    """Small pairs, 1-4 keypoints of 1x1 to 5x5 cells, with ties, peaks on
    border rows and columns, and non-finite cells."""
    k, h, w = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(_CELL, min_size=2 * k * h * w, max_size=2 * k * h * w))
    grids = np.array(cells, dtype=np.float64).reshape(2, k, h, w)
    return H.HeatmapPair(grids)


def _pair_bytes(pair):
    return pair.shape, pair.visible.values.tobytes(), pair.occluded.values.tobytes()


def _bits(values) -> bytes:
    """Float bytes with every NaN made the same NaN: IEEE leaves the sign
    and payload of a computed NaN open (inf - inf gives a negative one on
    x86), and every writer prints any NaN as NaN."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def _decoded(result):
    """Every DecodeResult field, floats as bytes."""
    kps = result.pose.keypoints
    return (result.pose.schema, [(type(k.x), type(k.y), k.vis) for k in kps],
            _bits([(k.x, k.y) for k in kps]),
            result.confidences.dtype, _bits(result.confidences),
            result.pose.codes.tolist(), result.low_confidence.tolist())


class TestMatchesPerKeypointReference:
    @settings(max_examples=300, deadline=None)
    @given(encode_cases())
    def test_encode(self, case):
        pose, transform, sigma = case
        pair, in_bounds = H.encode(pose, transform, sigma)
        want, want_in_bounds = oracles.encode_reference(pose, transform, sigma)
        assert in_bounds.tolist() == want_in_bounds.tolist()
        # the reference's float64 Gaussians, rounded to float32 once
        assert _pair_bytes(pair) == _pair_bytes(H.HeatmapPair(want.values.astype(np.float32)))

    @settings(max_examples=200, deadline=None)
    @given(encode_cases(), st.floats(0.0, 1.0))
    def test_decode_of_encoded(self, case, threshold):
        pose, transform, sigma = case
        pair, _ = H.encode(pose, transform, sigma)
        assert _decoded(H.decode(pair, transform, threshold)) == _decoded(
            oracles.decode_reference(pair, transform, threshold))

    @settings(max_examples=300, deadline=None)
    @given(grid_pairs(), _BOXES, st.floats(-1.0, 2.0))
    def test_decode_of_grids(self, pair, box, threshold):
        transform = H.bbox_to_crop(box)
        with np.errstate(invalid="ignore"):  # the reference's inf - inf
            want = oracles.decode_reference(pair, transform, threshold)
        assert _decoded(H.decode(pair, transform, threshold)) == _decoded(want)

    @pytest.mark.parametrize("shape", [(14, H.HEATMAP_H, H.HEATMAP_W), (1, 1, 1),
                                       (3, 1, 4)])
    def test_decode_of_all_zero_pair(self, shape):
        pair = H.HeatmapPair(np.zeros((2, *shape)))
        transform = crop_for_scale_2()
        assert _decoded(H.decode(pair, transform)) == _decoded(
            oracles.decode_reference(pair, transform, H.DEFAULT_CONF_THRESHOLD))
