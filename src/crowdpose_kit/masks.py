"""Binary segmentation masks, cutout extraction and alpha compositing.

Masks decode from polygons (even-odd rule at pixel centers). Cutouts are
tight RGBA crops with binary alpha; compositing uses nearest-neighbor
scaling with floor rounding in integer arithmetic, so results are
bit-exact across platforms. A raster is its (H, W, 4) uint8 pixel array
alone: its width and height are read from that array's shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .annotations import BBox, Keypoint, SegmentMask
from .errors import GeometryError, MaskDecodeError


@dataclass
class RasterImage:
    """Row-major RGBA pixel buffer, 8 bits per channel."""

    pixels: np.ndarray  # (height, width, 4) uint8

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def filled(cls, width: int, height: int, rgba=(0, 0, 0, 255)) -> "RasterImage":
        px = np.empty((height, width, 4), dtype=np.uint8)
        # one uint32 store per pixel: 20x faster than broadcasting 4 bytes
        px.view(np.uint32)[...] = np.asarray(rgba, dtype=np.uint8).view(np.uint32)
        return cls(px)

    def copy(self) -> "RasterImage":
        return RasterImage(self.pixels.copy())


CUTOUT_OBJECT = "object"
CUTOUT_BODY_PART = "body_part"
CUTOUT_FULL_BODY = "full_body"


@dataclass
class Cutout:
    """Alpha-masked patch extracted from a source image.

    Alpha is binary (0 or 255) and src_bbox is the tight bounding box of the
    nonzero alpha in the source image. Keypoints, when present, are in
    cutout-local coordinates.
    """

    raster: RasterImage
    src_bbox: BBox
    kind: str
    keypoints: Optional[tuple[Keypoint, ...]] = None


def decode_polygon(poly_mask: SegmentMask, w: int, h: int) -> np.ndarray:
    """Rasterize polygons to an (h, w) bool mask.

    A pixel is foreground iff its center lies inside any polygon under the
    even-odd rule; multiple polygons are unioned.
    """
    if poly_mask.kind != "polygons":
        raise GeometryError(f"expected polygon mask, got {poly_mask.kind!r}")
    out = np.zeros((h, w), dtype=bool)
    cy = np.arange(h, dtype=np.float64) + 0.5
    cx = np.arange(w, dtype=np.float64) + 0.5
    for poly in poly_mask.polygons:
        if len(poly) < 3:
            raise GeometryError(f"polygon needs >= 3 vertices, got {len(poly)}")
        crossings = np.zeros((h, w), dtype=np.int64)
        n = len(poly)
        for i in range(n):
            x0, y0 = poly[i]
            x1, y1 = poly[(i + 1) % n]
            if y0 == y1:
                continue
            ymin, ymax = (y0, y1) if y0 < y1 else (y1, y0)
            rows = np.nonzero((cy >= ymin) & (cy < ymax))[0]
            if rows.size == 0:
                continue
            t = (cy[rows] - y0) / (y1 - y0)
            xint = x0 + t * (x1 - x0)
            crossings[rows] += cx[None, :] < xint[:, None]
        out |= (crossings & 1).astype(bool)
    return out


def extract_cutout(image: RasterImage, mask: np.ndarray, kind: str,
                   keypoints: Optional[tuple[Keypoint, ...]] = None) -> Cutout:
    """Crop the tight bounding region of the mask; alpha 255 on foreground."""
    if mask.shape != (image.height, image.width):
        raise GeometryError(f"mask shape {mask.shape} does not match image "
                            f"{image.height}x{image.width}")
    rows = np.any(mask, axis=1)
    cols = np.any(mask, axis=0)
    if not rows.any():
        raise MaskDecodeError("cannot extract a cutout from an empty mask")
    y0, y1 = np.nonzero(rows)[0][[0, -1]]
    x0, x1 = np.nonzero(cols)[0][[0, -1]]
    crop = image.pixels[y0:y1 + 1, x0:x1 + 1].copy()
    crop[:, :, 3] = np.where(mask[y0:y1 + 1, x0:x1 + 1], 255, 0)
    local_kps = None
    if keypoints is not None:
        local_kps = tuple(Keypoint(k.x - float(x0), k.y - float(y0), k.vis)
                          for k in keypoints)
    return Cutout(raster=RasterImage(crop), kind=kind,
                  src_bbox=BBox(float(x0), float(y0), float(x1 - x0 + 1),
                                float(y1 - y0 + 1)),
                  keypoints=local_kps)


def composite_with_mask(target: RasterImage, cutout: Cutout, dst_x: int, dst_y: int,
                        dst_w: int, dst_h: int) -> tuple[RasterImage, np.ndarray]:
    """Paste a scaled cutout over the target; returns a new raster and the
    bool mask of painted pixels.

    The cutout is scaled to (dst_w, dst_h) at (dst_x, dst_y): target column
    x takes source column ((x - dst_x) * width) // dst_w, and rows alike.
    Foreground pixels replace the target. Only the window inside the target
    is computed, in Python integers, so a paste of any size costs at most
    the target's pixels.
    """
    dst_x, dst_y, dst_w, dst_h = int(dst_x), int(dst_y), int(dst_w), int(dst_h)
    if dst_w < 1 or dst_h < 1:
        raise GeometryError(f"target size must be >= 1, got {dst_w}x{dst_h}")
    out = target.copy()
    painted = np.zeros((target.height, target.width), dtype=bool)

    tx0 = max(dst_x, 0)
    ty0 = max(dst_y, 0)
    tx1 = min(dst_x + dst_w, target.width)
    ty1 = min(dst_y + dst_h, target.height)
    if tx0 >= tx1 or ty0 >= ty1:
        return out, painted

    src = cutout.raster
    src_x = [((x - dst_x) * src.width) // dst_w for x in range(tx0, tx1)]
    src_y = [((y - dst_y) * src.height) // dst_h for y in range(ty0, ty1)]
    patch = src.pixels[np.ix_(src_y, src_x)]
    opaque = patch[:, :, 3] > 0
    region = out.pixels[ty0:ty1, tx0:tx1]
    region[opaque] = patch[opaque]
    painted[ty0:ty1, tx0:tx1] = opaque
    return out, painted


# --- raster I/O: PAM (P7) for RGBA and 16-bit depth ---

def write_pam(raster: RasterImage) -> bytes:
    header = (f"P7\nWIDTH {raster.width}\nHEIGHT {raster.height}\nDEPTH 4\n"
              f"MAXVAL 255\nTUPLTYPE RGB_ALPHA\nENDHDR\n").encode("ascii")
    return header + raster.pixels.tobytes()


def write_depth_pam(depth: np.ndarray) -> bytes:
    """16-bit grayscale PAM; depth values expected in [0, 1], big-endian samples."""
    h, w = depth.shape
    samples = np.clip(np.round(np.asarray(depth, dtype=np.float64) * 65535.0),
                      0, 65535).astype(">u2")
    header = (f"P7\nWIDTH {w}\nHEIGHT {h}\nDEPTH 1\nMAXVAL 65535\n"
              f"TUPLTYPE GRAYSCALE\nENDHDR\n").encode("ascii")
    return header + samples.tobytes()


def _parse_pam_header(data: bytes) -> tuple[dict, int]:
    """Header fields and the payload offset. WIDTH, HEIGHT, DEPTH and MAXVAL
    must be positive integers below 10**9 and are returned as ints."""
    end = data.find(b"ENDHDR\n")
    if not data.startswith(b"P7\n") or end < 0:
        raise MaskDecodeError("not a PAM stream")
    fields = {}
    for line in data[3:end].decode("ascii", errors="replace").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        fields[key] = value.strip()
    for key in ("WIDTH", "HEIGHT", "DEPTH", "MAXVAL"):
        value = fields.get(key, "")
        if not re.fullmatch(r"0*[1-9][0-9]{0,8}", value):
            raise MaskDecodeError(f"PAM {key} must be a positive integer below "
                                  f"10**9, got {value!r}")
        fields[key] = int(value)
    return fields, end + len(b"ENDHDR\n")


def read_pam(data: bytes) -> RasterImage:
    fields, offset = _parse_pam_header(data)
    w, h = fields["WIDTH"], fields["HEIGHT"]
    if fields["DEPTH"] != 4 or fields["MAXVAL"] != 255:
        raise MaskDecodeError("expected an 8-bit RGBA PAM")
    px = np.frombuffer(data[offset:offset + w * h * 4], dtype=np.uint8)
    if px.size != w * h * 4:
        raise MaskDecodeError("truncated PAM payload")
    return RasterImage(px.reshape((h, w, 4)).copy())

