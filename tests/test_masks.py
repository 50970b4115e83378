import numpy as np
import pytest

from crowdpose_kit import masks as M
from crowdpose_kit.annotations import BBox, Keypoint, SegmentMask, Visibility
from crowdpose_kit.errors import GeometryError, MaskDecodeError
from crowdpose_kit.masks import Cutout, RasterImage

import oracles
from conftest import blob_cutout, rand_raster


def polygon_mask(*polys):
    return SegmentMask(kind="polygons",
                       polygons=tuple(tuple((float(x), float(y)) for x, y in p)
                                      for p in polys))


class TestDecodePolygon:
    def test_axis_aligned_square(self):
        mask = M.decode_polygon(polygon_mask([(1, 1), (4, 1), (4, 4), (1, 4)]), 5, 5)
        assert mask.sum() == 9
        assert mask[1:4, 1:4].all()

    def test_empty_polygon_list(self):
        assert not M.decode_polygon(polygon_mask(), 8, 8).any()

    def test_degenerate_polygon(self):
        with pytest.raises(GeometryError):
            M.decode_polygon(polygon_mask([(0, 0), (5, 5)]), 8, 8)

    def test_random_20gon_matches_raycast_oracle(self, rng):
        pts = [(rng.uniform(2, 62), rng.uniform(2, 62)) for _ in range(20)]
        mask = M.decode_polygon(polygon_mask(pts), 64, 64)
        expected = oracles.rasterize_polygons([pts], 64, 64)
        for y in range(64):
            for x in range(64):
                assert mask[y, x] == expected[y][x], (x, y)

    def test_union_of_polygons(self, rng):
        a = [(1, 1), (10, 1), (10, 10), (1, 10)]
        b = [(20, 20), (30, 20), (30, 30), (20, 30)]
        mask = M.decode_polygon(polygon_mask(a, b), 40, 40)
        expected = oracles.rasterize_polygons([a, b], 40, 40)
        assert mask.tolist() == expected


class TestExtractCutout:
    def test_full_image_mask(self, rng):
        img = rand_raster(rng, 9, 7)
        cut = M.extract_cutout(img, np.ones((7, 9), dtype=bool), M.CUTOUT_OBJECT)
        assert (cut.raster.width, cut.raster.height) == (9, 7)
        assert (cut.raster.pixels[:, :, :3] == img.pixels[:, :, :3]).all()

    def test_single_pixel(self, rng):
        img = rand_raster(rng, 12, 10)
        mask = np.zeros((10, 12), dtype=bool)
        mask[3, 7] = True
        cut = M.extract_cutout(img, mask, M.CUTOUT_OBJECT)
        assert (cut.raster.width, cut.raster.height) == (1, 1)
        assert cut.src_bbox == BBox(7.0, 3.0, 1.0, 1.0)

    def test_rgb_copied_alpha_binary(self, rng):
        img = rand_raster(rng, 30, 24)
        mask = rng.random((24, 30)) < 0.4
        mask[5, 5] = True
        cut = M.extract_cutout(img, mask, M.CUTOUT_OBJECT)
        x0, y0 = int(cut.src_bbox.x), int(cut.src_bbox.y)
        for y in range(cut.raster.height):
            for x in range(cut.raster.width):
                a = cut.raster.pixels[y, x, 3]
                assert a in (0, 255)
                if a:
                    assert (cut.raster.pixels[y, x, :3] ==
                            img.pixels[y0 + y, x0 + x, :3]).all()

    def test_tight_borders(self, rng):
        img = rand_raster(rng, 20, 20)
        mask = rng.random((20, 20)) < 0.2
        mask[8, 9] = True
        cut = M.extract_cutout(img, mask, M.CUTOUT_OBJECT)
        alpha = cut.raster.pixels[:, :, 3]
        assert alpha[0, :].any() and alpha[-1, :].any()
        assert alpha[:, 0].any() and alpha[:, -1].any()

    def test_keypoints_become_cutout_local(self, rng):
        mask = np.zeros((10, 12), dtype=bool)
        mask[3:6, 7:10] = True
        kps = (Keypoint(8.5, 4.0, Visibility.VISIBLE), Keypoint(7.0, 9.0, Visibility.OCCLUDED))
        cut = M.extract_cutout(rand_raster(rng, 12, 10), mask, M.CUTOUT_FULL_BODY,
                               keypoints=kps)
        assert cut.keypoints == (Keypoint(1.5, 1.0, Visibility.VISIBLE),
                                 Keypoint(0.0, 6.0, Visibility.OCCLUDED))

    def test_empty_mask(self, rng):
        with pytest.raises(MaskDecodeError):
            M.extract_cutout(rand_raster(rng, 5, 5), np.zeros((5, 5), bool),
                             M.CUTOUT_OBJECT)


class TestComposite:
    def test_transparent_identity(self, rng):
        img = rand_raster(rng, 16, 16)
        px = np.zeros((4, 4, 4), dtype=np.uint8)
        ghost = Cutout(raster=RasterImage(px),
                       src_bbox=BBox(0, 0, 4, 4), kind=M.CUTOUT_OBJECT)
        out = M.composite_with_mask(img, ghost, 3, 3, 8, 8)[0]
        assert out.pixels.tobytes() == img.pixels.tobytes()
        assert out.pixels is not img.pixels

    def test_opaque_2x2_at_origin(self, rng):
        img = rand_raster(rng, 6, 6)
        px = np.full((2, 2, 4), 200, dtype=np.uint8)
        cut = Cutout(raster=RasterImage(px),
                     src_bbox=BBox(0, 0, 2, 2), kind=M.CUTOUT_OBJECT)
        out = M.composite_with_mask(img, cut, 0, 0, 2, 2)[0]
        assert (out.pixels[:2, :2] == 200).all()
        assert (out.pixels[2:, :] == img.pixels[2:, :]).all()
        assert (out.pixels[:2, 2:] == img.pixels[:2, 2:]).all()

    def test_random_placement_matches_pixelwise_oracle(self, rng):
        for _ in range(25):
            img = rand_raster(rng, 20, 18)
            cut = blob_cutout(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            dx, dy = int(rng.integers(-4, 18)), int(rng.integers(-4, 16))
            dw, dh = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            out, painted = M.composite_with_mask(img, cut, dx, dy, dw, dh)
            scaled = oracles.nearest_scale_rgba(
                cut.raster.pixels.tolist(), cut.raster.width, cut.raster.height,
                dw, dh)
            for y in range(18):
                for x in range(20):
                    sx, sy = x - dx, y - dy
                    if 0 <= sx < dw and 0 <= sy < dh and scaled[sy][sx][3] > 0:
                        assert tuple(out.pixels[y, x]) == scaled[sy][sx]
                        assert painted[y, x]
                    else:
                        assert (out.pixels[y, x] == img.pixels[y, x]).all()
                        assert not painted[y, x]

    def test_huge_paste_computes_only_the_window(self, rng):
        img = rand_raster(rng, 20, 18)
        cut = blob_cutout(rng, 5, 4)
        out, painted = M.composite_with_mask(img, cut, -10 ** 6, 0, 10 ** 300, 10 ** 300)
        # every target pixel maps to source pixel (0, 0), which is opaque
        assert painted.all()
        assert (out.pixels == cut.raster.pixels[0, 0]).all()

    def test_deterministic(self, rng):
        img = rand_raster(rng, 10, 10)
        cut = blob_cutout(rng, 5, 4)
        a = M.composite_with_mask(img, cut, 2, 2, 7, 7)[0]
        b = M.composite_with_mask(img, cut, 2, 2, 7, 7)[0]
        assert a.pixels.tobytes() == b.pixels.tobytes()


class TestRasterIO:
    def test_pam_roundtrip(self, rng):
        img = rand_raster(rng, 7, 5)
        img.pixels[:, :, 3] = np.where(rng.random((5, 7)) < 0.5, 0, 255)
        back = M.read_pam(M.write_pam(img))
        assert (back.pixels == img.pixels).all()

    def test_depth_pam_roundtrip(self, rng):
        depth = rng.random((5, 8))
        back = oracles.read_depth_pam(M.write_depth_pam(depth))
        assert np.abs(back - depth).max() <= 0.5 / 65535 + 1e-12

    def test_pam_bad_magic(self):
        with pytest.raises(MaskDecodeError):
            M.read_pam(b"P5\nnope")

    @pytest.mark.parametrize("field,value", [
        ("WIDTH", "x"), ("HEIGHT", "0"), ("DEPTH", "-4"), ("MAXVAL", ""),
        ("WIDTH", "1" * 12), ("HEIGHT", "2.5"),
    ])
    def test_pam_bad_header_number(self, field, value):
        header = {"WIDTH": "2", "HEIGHT": "2", "DEPTH": "4", "MAXVAL": "255",
                  field: value}
        data = ("P7\n" + "".join(f"{k} {v}\n" for k, v in header.items())
                + "ENDHDR\n").encode() + bytes(16)
        with pytest.raises(MaskDecodeError):
            M.read_pam(data)
        with pytest.raises(MaskDecodeError):
            oracles.read_depth_pam(data)
