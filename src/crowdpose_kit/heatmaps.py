"""Crop geometry and dual-branch keypoint heatmaps.

Person boxes map to a 192x256 input crop (aspect-preserving expansion, no
padding factor); heatmaps are 64x48, stride 4. Ground-truth targets are
unnormalized Gaussians (peak 1, truncated at 3 sigma) written into the
visible branch for visible and self-occluded keypoints and into the
occluded branch for occluded keypoints; the opposite branch stays zero, so
wrong-branch predictions are penalized by the loss.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .annotations import BBox, Keypoint, Pose, PoseSchema, Visibility
from .errors import DimensionError, GeometryError, MaskDecodeError

INPUT_W = 192
INPUT_H = 256
HEATMAP_W = 48
HEATMAP_H = 64
STRIDE = 4  # 192/48 == 256/64

DEFAULT_SIGMA = 2.0
DEFAULT_CONF_THRESHOLD = 0.7

_VISIBLE_BRANCH_TAGS = (Visibility.VISIBLE, Visibility.SELF_OCCLUDED)


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

    @classmethod
    def zeros(cls, k: int, h: int = HEATMAP_H, w: int = HEATMAP_W) -> "Heatmap":
        return cls(np.zeros((k, h, w), dtype=np.float64))

    @property
    def shape(self):
        return self.values.shape


@dataclass
class HeatmapPair:
    """Visible-branch and occluded-branch heatmap stacks of equal shape."""

    visible: Heatmap
    occluded: Heatmap

    def __post_init__(self):
        if self.visible.shape != self.occluded.shape:
            raise DimensionError(f"branch shapes differ: {self.visible.shape} vs "
                                 f"{self.occluded.shape}")

    @property
    def shape(self):
        return self.visible.shape

    @classmethod
    def zeros(cls, k: int, h: int = HEATMAP_H, w: int = HEATMAP_W) -> "HeatmapPair":
        return cls(Heatmap.zeros(k, h, w), Heatmap.zeros(k, h, w))


def _write_gaussian(grid: np.ndarray, hx: float, hy: float, sigma: float) -> None:
    h, w = grid.shape
    reach = 3.0 * sigma
    x0 = max(int(np.floor(hx - reach)), 0)
    x1 = min(int(np.ceil(hx + reach)), w - 1)
    y0 = max(int(np.floor(hy - reach)), 0)
    y1 = min(int(np.ceil(hy + reach)), h - 1)
    if x0 > x1 or y0 > y1:
        return
    xs = np.arange(x0, x1 + 1, dtype=np.float64)
    ys = np.arange(y0, y1 + 1, dtype=np.float64)
    d2 = (xs[None, :] - hx) ** 2 + (ys[:, None] - hy) ** 2
    patch = np.exp(-d2 / (2.0 * sigma * sigma))
    patch[d2 > reach * reach] = 0.0
    np.maximum(grid[y0:y1 + 1, x0:x1 + 1], patch, out=grid[y0:y1 + 1, x0:x1 + 1])


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
    k = len(pose.keypoints)
    pair = HeatmapPair.zeros(k)
    in_bounds = np.zeros(k, dtype=bool)
    # a huge finite coordinate transforms to infinity, outside the grid
    with np.errstate(over="ignore"):
        for i, kp in enumerate(pose.keypoints):
            # a non-finite coordinate can never land in the grid
            if kp.vis is Visibility.UNLABELED or not (math.isfinite(kp.x) and
                                                      math.isfinite(kp.y)):
                continue
            crop_xy = transform.apply([[kp.x, kp.y]])[0]
            hx, hy = crop_xy[0] / STRIDE, crop_xy[1] / STRIDE
            if not (0.0 <= hx <= HEATMAP_W - 1 and 0.0 <= hy <= HEATMAP_H - 1):
                continue
            in_bounds[i] = True
            branch = pair.visible if kp.vis in _VISIBLE_BRANCH_TAGS else pair.occluded
            _write_gaussian(branch.values[i], hx, hy, sigma)
    return pair, in_bounds


@dataclass
class DecodeResult:
    pose: Pose
    confidences: np.ndarray          # (K,)
    branches: tuple[Visibility, ...]  # VISIBLE or OCCLUDED per keypoint
    low_confidence: np.ndarray        # (K,) bool


def _refine(grid: np.ndarray, r: int, c: int) -> tuple[float, float]:
    h, w = grid.shape
    x = float(c)
    y = float(r)
    if 0 < c < w - 1:
        x += 0.25 * np.sign(grid[r, c + 1] - grid[r, c - 1])
    if 0 < r < h - 1:
        y += 0.25 * np.sign(grid[r + 1, c] - grid[r - 1, c])
    return x, y


def decode(pair: HeatmapPair, transform: CropTransform,
           conf_threshold: float = DEFAULT_CONF_THRESHOLD) -> DecodeResult:
    """Decode branch heatmaps back to image-space keypoints.

    Per keypoint the branch with the larger maximum wins (tie goes to
    visible); the argmax is refined by a quarter-cell shift toward the
    larger axis neighbor and mapped back through the stride and the inverse
    crop transform. Low-confidence keypoints are flagged, not dropped. The
    pose carries a generated `decoded_{K}` schema.
    """
    if not math.isfinite(conf_threshold):
        raise DimensionError(f"confidence threshold must be finite, got {conf_threshold}")
    k, h, w = pair.shape
    inv = transform.inverse()
    schema = PoseSchema(f"decoded_{k}", tuple(f"kp_{i:02d}" for i in range(k)))
    keypoints = []
    confidences = np.zeros(k, dtype=np.float64)
    branches = []
    for i in range(k):
        vis_grid = pair.visible.values[i]
        occ_grid = pair.occluded.values[i]
        vis_max = float(vis_grid.max())
        occ_max = float(occ_grid.max())
        if vis_max >= occ_max:
            grid, peak, label = vis_grid, vis_max, Visibility.VISIBLE
        else:
            grid, peak, label = occ_grid, occ_max, Visibility.OCCLUDED
        r, c = np.unravel_index(int(np.argmax(grid)), grid.shape)
        hx, hy = _refine(grid, int(r), int(c))
        img_xy = inv.apply([[hx * STRIDE, hy * STRIDE]])[0]
        keypoints.append(Keypoint(float(img_xy[0]), float(img_xy[1]), label))
        confidences[i] = peak
        branches.append(label)
    return DecodeResult(
        pose=Pose(schema, tuple(keypoints)),
        confidences=confidences,
        branches=tuple(branches),
        low_confidence=confidences < conf_threshold,
    )


# --- binary dump format: 16-byte header (magic, K, H, W), float32 LE planes ---

DUMP_MAGIC = b"CPKH"


def write_heatmap_pair(pair: HeatmapPair) -> bytes:
    k, h, w = pair.shape
    header = DUMP_MAGIC + struct.pack("<III", k, h, w)
    vis = pair.visible.values.astype("<f4").tobytes()
    occ = pair.occluded.values.astype("<f4").tobytes()
    return header + vis + occ


def read_heatmap_pair(data: bytes) -> HeatmapPair:
    if len(data) < 16 or data[:4] != DUMP_MAGIC:
        raise MaskDecodeError("not a heatmap dump")
    k, h, w = struct.unpack("<III", data[4:16])
    if k == 0 or h == 0 or w == 0:
        raise MaskDecodeError(f"heatmap dump has an empty {k}x{h}x{w} stack")
    plane = k * h * w
    floats = np.frombuffer(data[16:16 + 2 * plane * 4], dtype="<f4")
    if floats.size != 2 * plane:
        raise MaskDecodeError("truncated heatmap dump")
    vis = floats[:plane].reshape((k, h, w)).astype(np.float64)
    occ = floats[plane:].reshape((k, h, w)).astype(np.float64)
    return HeatmapPair(Heatmap(vis), Heatmap(occ))
