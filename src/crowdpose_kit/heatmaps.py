"""Crop geometry and dual-branch keypoint heatmaps.

Person boxes map to a 192x256 input crop (aspect-preserving expansion, no
padding factor); heatmaps are 64x48, stride 4. Ground-truth targets are
unnormalized Gaussians (peak 1, truncated at 3 sigma) written into the
visible branch for visible and self-occluded keypoints and into the
occluded branch for occluded keypoints; the opposite branch stays zero, so
wrong-branch predictions are penalized by the loss. A pair is one
(2, K, H, W) array, visible branch first; its shape is the only place its
sizes are stored. `encode` makes float32 pairs, the dump's own dtype, and
`read_heatmap_pair` returns a read-only view of the dump's bytes; a pair
built in code may be float64. `decode` and the `occloss` kernels work in
the pair's dtype.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .annotations import (CODE_OCCLUDED, CODE_UNLABELED, CODE_VISIBLE, TAGS, BBox, Pose,
                          PoseSchema)
from .errors import DimensionError, GeometryError, MaskDecodeError

INPUT_W = 192
INPUT_H = 256
HEATMAP_W = 48
HEATMAP_H = 64
STRIDE = 4  # 192/48 == 256/64

DEFAULT_SIGMA = 2.0
DEFAULT_CONF_THRESHOLD = 0.7

# the branch (0 visible, 1 occluded) of each labeled visibility code
_BRANCH_OF_CODE = np.zeros(len(TAGS), dtype=np.intp)
_BRANCH_OF_CODE[CODE_OCCLUDED] = 1


@dataclass(frozen=True)
class CropTransform:
    """Affine map from image coordinates to crop coordinates (2x3 matrix)."""

    matrix: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return pts @ self.matrix[:, :2].T + self.matrix[:, 2]

    def inverse(self) -> "CropTransform":
        lin = self.matrix[:, :2]
        det = lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0]
        if det == 0.0:
            raise DimensionError("crop transform is singular")
        inv_lin = np.array([[lin[1, 1], -lin[0, 1]], [-lin[1, 0], lin[0, 0]]]) / det
        inv_t = -inv_lin @ self.matrix[:, 2]
        return CropTransform(np.column_stack([inv_lin, inv_t]))


def bbox_to_crop(bbox: BBox) -> CropTransform:
    """Transform mapping a person box onto the 192x256 input crop.

    The box is symmetrically expanded along one axis to the 3:4 input
    aspect, then scaled to crop size.
    """
    target = INPUT_W / INPUT_H
    w, h = float(bbox.w), float(bbox.h)
    if not (w > 0 and h > 0):
        raise GeometryError(f"person box must have positive size, got {w}x{h}")
    cx = bbox.x + w / 2.0
    cy = bbox.y + h / 2.0
    if w / h > target:
        new_w, new_h = w, w / target
    else:
        new_w, new_h = h * target, h
    s = INPUT_W / new_w
    x0 = cx - new_w / 2.0
    y0 = cy - new_h / 2.0
    matrix = np.array([[s, 0.0, -s * x0], [0.0, s, -s * y0]])
    if not np.all(np.isfinite(matrix)):  # a non-finite, huge or subnormal box
        raise GeometryError(f"person box {bbox.x}, {bbox.y}, {w}x{h} has no "
                            f"finite crop transform")
    return CropTransform(matrix)


@dataclass
class Heatmap:
    """Per-keypoint activation grids, shape (K, H, W)."""

    values: np.ndarray


@dataclass
class HeatmapPair:
    """Both branch stacks in one (2, K, H, W) array, visible branch first."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 4 or self.values.shape[0] != 2:
            raise DimensionError(f"a heatmap pair must have shape (2, K, H, W), "
                                 f"got {self.values.shape}")

    @property
    def visible(self) -> Heatmap:
        return Heatmap(self.values[0])

    @property
    def occluded(self) -> Heatmap:
        return Heatmap(self.values[1])

    @property
    def shape(self):
        """(K, H, W) of each branch."""
        return self.values.shape[1:]


def encode(pose: Pose, transform: CropTransform,
           sigma: float = DEFAULT_SIGMA) -> tuple[HeatmapPair, np.ndarray]:
    """Encode a pose into ground-truth branch heatmaps.

    Returns the pair plus a bool mask flagging which keypoints actually
    received a Gaussian (labeled and with the peak inside the grid);
    everything else leaves both branch channels all-zero.
    """
    # 2 * sigma**2 divides the squared distances: it must be a normal float
    if not (sigma > 0 and sys.float_info.min <= 2.0 * sigma * sigma < math.inf):
        raise DimensionError(f"sigma must be finite and positive, with 2 * sigma**2 "
                             f"a normal float, got {sigma}")
    k = len(pose.codes)
    grids = np.zeros((2, k, HEATMAP_H, HEATMAP_W), dtype=np.float32)
    pair = HeatmapPair(grids)
    in_bounds = np.zeros(k, dtype=bool)
    # a non-finite coordinate can never land in the grid
    usable = np.flatnonzero((pose.codes != CODE_UNLABELED) &
                            np.isfinite(pose.xy).all(axis=1))
    if not usable.size:
        return pair, in_bounds
    # a huge finite coordinate transforms to infinity, outside the grid
    with np.errstate(over="ignore"):
        crop = transform.apply(pose.xy[usable])
    hx, hy = crop[:, 0] / STRIDE, crop[:, 1] / STRIDE
    inside = (0.0 <= hx) & (hx <= HEATMAP_W - 1) & (0.0 <= hy) & (hy <= HEATMAP_H - 1)
    idx = usable[inside]
    in_bounds[idx] = True
    hx, hy = hx[inside], hy[inside]
    branch = _BRANCH_OF_CODE[pose.codes[idx]]
    # Each Gaussian is cut to [floor(h - reach), ceil(h + reach)] per axis,
    # which fits in `span` cells. A window of that span, clamped into the
    # grid, holds it; its extra cells lie more than reach away and get 0.
    reach = 3.0 * sigma
    span = 2 * math.ceil(reach) + 2
    span_x, span_y = min(span, HEATMAP_W), min(span, HEATMAP_H)
    x0 = np.clip(np.floor(hx - reach), 0, HEATMAP_W - span_x).astype(np.intp)
    y0 = np.clip(np.floor(hy - reach), 0, HEATMAP_H - span_y).astype(np.intp)
    xs = x0[:, None] + np.arange(span_x)                 # (n, span_x)
    ys = y0[:, None] + np.arange(span_y)                 # (n, span_y)
    d2 = ((xs.astype(np.float64) - hx[:, None]) ** 2)[:, None, :] + \
        ((ys.astype(np.float64) - hy[:, None]) ** 2)[:, :, None]
    patch = np.exp(-d2 / (2.0 * sigma * sigma))
    patch[d2 > reach * reach] = 0.0
    # the float64 patch rounds to float32 on assignment, as astype would
    grids[branch[:, None, None], idx[:, None, None], ys[:, :, None],
          xs[:, None, :]] = patch
    return pair, in_bounds


@functools.lru_cache(maxsize=8)
def _decoded_schema(k: int) -> PoseSchema:
    return PoseSchema(f"decoded_{k}", tuple(f"kp_{i:02d}" for i in range(k)))


@dataclass
class DecodeResult:
    pose: Pose
    confidences: np.ndarray    # (K,)
    low_confidence: np.ndarray  # (K,) bool


def decode(pair: HeatmapPair, transform: CropTransform,
           conf_threshold: float = DEFAULT_CONF_THRESHOLD) -> DecodeResult:
    """Decode branch heatmaps back to image-space keypoints.

    Per keypoint the branch with the larger maximum wins (tie goes to
    visible); the argmax is refined by a quarter-cell shift toward the
    larger axis neighbor and mapped back through the stride and the inverse
    crop transform. Low-confidence keypoints are flagged, not dropped. The
    pose carries a generated `decoded_{K}` schema. Confidences are float64
    whatever the pair's dtype, and so is their comparison with the
    threshold.
    """
    if not math.isfinite(conf_threshold):
        raise DimensionError(f"confidence threshold must be finite, got {conf_threshold}")
    k, h, w = pair.shape
    inv = transform.inverse()
    planes = pair.values.reshape(2 * k, h * w)  # visible planes, then occluded
    # argmax takes the first maximum, and a NaN as the maximum, like max
    arg = planes.argmax(axis=1)
    peaks = planes[np.arange(2 * k), arg]
    use_vis = peaks[:k] >= peaks[k:]
    plane = np.arange(k) + np.where(use_vis, 0, k)
    best = arg[plane]
    confidences = peaks[plane].astype(np.float64)
    cell = np.column_stack(np.divmod(best, w)[::-1])  # (K, 2) column, row
    # the right and lower, then the left and upper neighbor; a border cell's
    # index is clipped into the plane and its shift dropped, so an inf - inf
    # there must not warn
    around = np.clip(best[:, None] + np.array([1, w, -1, -w]), 0, h * w - 1)
    near = planes[plane[:, None], around]
    with np.errstate(invalid="ignore"):
        shift = 0.25 * np.sign(near[:, :2] - near[:, 2:])
    inner = (0 < cell) & (cell < (w - 1, h - 1))
    xy = inv.apply(STRIDE * (cell + np.where(inner, shift, 0.0)))
    codes = np.where(use_vis, CODE_VISIBLE, CODE_OCCLUDED).astype(np.int8)
    xy.flags.writeable = codes.flags.writeable = False
    return DecodeResult(
        pose=Pose._of(_decoded_schema(k), xy, codes),
        confidences=confidences,
        low_confidence=confidences < conf_threshold,
    )


# --- binary dump format: 16-byte header (magic, K, H, W), then the pair's
# (2, K, H, W) values as float32 LE: every visible plane, then every occluded ---

DUMP_MAGIC = b"CPKH"


def dump_heatmap_pair(pair: HeatmapPair, file) -> None:
    """Write the pair's dump to an open binary file: the header, then the
    values' own buffer, cast only if the pair is not float32."""
    k, h, w = pair.shape
    file.write(DUMP_MAGIC + struct.pack("<III", k, h, w))
    file.write(np.ascontiguousarray(pair.values, dtype="<f4"))


def read_heatmap_pair(data: bytes) -> HeatmapPair:
    """The pair in a dump, as a float32 view of `data`, read-only as bytes
    are: no copy is made."""
    if len(data) < 16 or data[:4] != DUMP_MAGIC:
        raise MaskDecodeError("not a heatmap dump")
    k, h, w = struct.unpack_from("<III", data, 4)
    if k == 0 or h == 0 or w == 0:
        raise MaskDecodeError(f"heatmap dump has an empty {k}x{h}x{w} stack")
    count = 2 * k * h * w
    if len(data) < 16 + 4 * count:
        raise MaskDecodeError("truncated heatmap dump")
    return HeatmapPair(np.frombuffer(data, "<f4", count, offset=16).reshape(2, k, h, w))
