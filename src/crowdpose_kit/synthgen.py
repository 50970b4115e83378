"""Procedural 2D crowd-scene generator with exact occlusion ground truth.

Bodies are stick figures rasterized as capsules (limb segments dilated by a
radius) in distinct flat colors, painted back to front. Visibility flags
come straight from the geometry: a keypoint is occluded when a nearer
person's capsule covers its pixel center, self-occluded when only a
later-drawn limb of the same person does. Flags and rasters share one
coverage test, `_capsule_sq_dist(...) <= radius * radius`, so they agree by
construction. `plan_corpus` targets a CrowdIndex histogram by
rejection-sampling scene layouts whose density knobs (person count,
attachment probability and spread) track the requested bin. Candidates are
drawn straight into their layout arrays and screened on them; only
accepted ones get flags and records.
`plan_slots` plans any contiguous run of corpus slots, so runs can be
planned in separate processes, and `within_budget` applies the one global
candidate budget to the results in slot order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annotations import (CODE_OCCLUDED, CODE_SELF_OCCLUDED, CODE_VISIBLE,
                          CROWDPOSE_SCHEMA, BBox, Dataset, ImageRecord, PersonInstance,
                          Pose)
from .crowd_metrics import crowd_index_arrays, histogram_bin
from .errors import ConfigError, TargetingError
from .masks import RasterImage
from .seeding import stopped, substream

DEPTH_UNIFORM = "uniform_z"
DEPTH_GROUND_PLANE = "ground_plane"

# Limb segments as (keypoint a, keypoint b) in paint order within a person:
# torso first (farthest), then legs, arms, head (nearest).
SKELETON_EDGES = (
    (0, 1),    # shoulder girdle
    (6, 7),    # pelvis
    (0, 6),    # left torso side
    (1, 7),    # right torso side
    (6, 8), (8, 10),   # left leg
    (7, 9), (9, 11),   # right leg
    (0, 2), (2, 4),    # left arm
    (1, 3), (3, 5),    # right arm
    (13, 12),  # neck to head top
)

_EDGES_OF_KP = tuple(
    tuple(e for e, (a, b) in enumerate(SKELETON_EDGES) if k in (a, b))
    for k in range(14)
)

_EDGE_INDEX = np.array(SKELETON_EDGES, dtype=np.int64)  # (13, 2)

# IS_OWN_EDGE[k, e]: keypoint k is an endpoint of edge e
_IS_OWN_EDGE = np.zeros((14, len(SKELETON_EDGES)), dtype=bool)
for _k in range(14):
    _IS_OWN_EDGE[_k, list(_EDGES_OF_KP[_k])] = True

BODY_WIDTH_FRAC = 0.62  # body-frame width as a fraction of person height


# Built-in pose templates, each a keypoint jitter std and 14 (x, y)
# keypoints in [0, 1]^2, both in units of the person's body frame.
# Keypoint order: l_sh, r_sh, l_elb, r_elb, l_wr, r_wr, l_hip, r_hip,
# l_knee, r_knee, l_ank, r_ank, top_head, neck.
_TEMPLATES = (
    (0.012, (  # standing
        (0.64, 0.22), (0.36, 0.22), (0.66, 0.38), (0.34, 0.38), (0.67, 0.53),
        (0.33, 0.53), (0.58, 0.52), (0.42, 0.52), (0.57, 0.74), (0.43, 0.74),
        (0.57, 0.96), (0.43, 0.96), (0.50, 0.02), (0.50, 0.18))),
    (0.015, (  # walking
        (0.63, 0.22), (0.37, 0.22), (0.70, 0.38), (0.29, 0.39), (0.76, 0.51),
        (0.22, 0.52), (0.57, 0.52), (0.43, 0.52), (0.64, 0.73), (0.38, 0.75),
        (0.70, 0.95), (0.30, 0.96), (0.50, 0.02), (0.50, 0.18))),
    (0.015, (  # sitting
        (0.63, 0.28), (0.37, 0.28), (0.67, 0.44), (0.33, 0.44), (0.64, 0.58),
        (0.36, 0.58), (0.60, 0.58), (0.40, 0.58), (0.68, 0.64), (0.32, 0.64),
        (0.66, 0.92), (0.34, 0.92), (0.50, 0.08), (0.50, 0.24))),
    (0.020, (  # yoga
        (0.61, 0.26), (0.39, 0.26), (0.66, 0.13), (0.34, 0.13), (0.57, 0.02),
        (0.43, 0.02), (0.57, 0.54), (0.43, 0.54), (0.56, 0.76), (0.30, 0.62),
        (0.56, 0.97), (0.45, 0.56), (0.50, 0.06), (0.50, 0.22))),
    (0.015, (  # pushup
        (0.85, 0.68), (0.84, 0.64), (0.85, 0.82), (0.83, 0.80), (0.86, 0.96),
        (0.82, 0.94), (0.45, 0.62), (0.45, 0.58), (0.26, 0.66), (0.25, 0.62),
        (0.05, 0.70), (0.04, 0.66), (0.96, 0.62), (0.88, 0.66))),
    (0.018, (  # cheering
        (0.63, 0.24), (0.37, 0.24), (0.74, 0.14), (0.26, 0.14), (0.84, 0.03),
        (0.16, 0.03), (0.58, 0.53), (0.42, 0.53), (0.62, 0.74), (0.38, 0.74),
        (0.65, 0.96), (0.35, 0.96), (0.50, 0.04), (0.50, 0.20))),
    (0.020, (  # fighting
        (0.60, 0.26), (0.38, 0.28), (0.76, 0.27), (0.33, 0.40), (0.93, 0.25),
        (0.42, 0.30), (0.56, 0.54), (0.43, 0.55), (0.66, 0.73), (0.34, 0.78),
        (0.72, 0.95), (0.25, 0.96), (0.49, 0.06), (0.49, 0.22))),
)

# Per-template keypoints (7, 14, 2) and jitter (7, 1, 1), indexed by the
# drawn template number when a person is drawn.
_TEMPLATE_BASE = np.array([kps for _, kps in _TEMPLATES], dtype=np.float64)
_TEMPLATE_JITTER = np.array([jitter for jitter, _ in _TEMPLATES])[:, None, None]


# Upper bounds that keep one scene's arrays small: a raster side of 4096 px
# is 64 MB of RGBA, and the flag kernel's (14n, 13n) float64 arrays are
# about 15 MB each at 100 persons. A person height above twice the largest
# image side adds only area that rendering clips away; the cap, which also
# bounds a limb radius, keeps every drawn coordinate and its squares finite.
MAX_IMAGE_SIDE = 4096
MAX_PERSONS = 100
MAX_PERSON_HEIGHT = 2 * MAX_IMAGE_SIDE
# The most scenes in one corpus: a list of every slot is built before any
# scene is planned. It is 50 times the README's 2,000-scene corpus, whose
# dataset.json alone is about 10 MB.
MAX_SCENES = 100_000


@dataclass(frozen=True)
class SceneConfig:
    image_w: int = 160
    image_h: int = 120
    person_count_range: tuple[int, int] = (1, 10)
    scale_range: tuple[float, float] = (40.0, 90.0)
    depth_model: str = DEPTH_UNIFORM
    limb_radius_frac: float = 0.035
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.image_w <= MAX_IMAGE_SIDE and 1 <= self.image_h <= MAX_IMAGE_SIDE):
            raise ConfigError(f"bad image size {self.image_w}x{self.image_h}: each "
                              f"side must be between 1 and {MAX_IMAGE_SIDE} px")
        lo, hi = self.person_count_range
        if not (1 <= lo <= hi <= MAX_PERSONS):
            raise ConfigError(f"bad person count range {self.person_count_range}: "
                              f"need 1 <= low <= high <= {MAX_PERSONS}")
        slo, shi = self.scale_range
        if not (0 < slo <= shi <= MAX_PERSON_HEIGHT):
            raise ConfigError(f"bad scale range {self.scale_range}: need "
                              f"0 < low <= high <= {MAX_PERSON_HEIGHT}")
        if slo > max(self.image_w, self.image_h):
            raise ConfigError(f"minimum person height {slo} exceeds image "
                              f"{self.image_w}x{self.image_h}")
        if not 0 < self.limb_radius_frac * shi <= MAX_PERSON_HEIGHT:
            raise ConfigError(f"bad limb_radius_frac {self.limb_radius_frac}: need 0 < "
                              f"limb_radius_frac * {shi} <= {MAX_PERSON_HEIGHT}")
        if self.depth_model not in (DEPTH_UNIFORM, DEPTH_GROUND_PLANE):
            raise ConfigError(f"unknown depth model {self.depth_model!r}")


@dataclass(frozen=True)
class CorpusConfig:
    scenes: int
    scene_cfg: SceneConfig
    target_histogram: tuple[float, ...] = (0.1,) * 10
    retry_factor: int = 100

    def __post_init__(self):
        weights = self.target_histogram
        if not weights or any(w < 0 for w in weights):
            raise ConfigError("target histogram weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigError("target histogram weights must sum to 1")
        if self.scenes > MAX_SCENES:
            raise ConfigError(f"at most {MAX_SCENES} scenes, got {self.scenes}")
        if self.scenes < len(weights):
            raise ConfigError(f"need at least one scene per bin "
                              f"({len(weights)} bins, {self.scenes} scenes)")


@dataclass
class SceneLayout:
    """One scene's persons as drawn: depth (larger = nearer to the camera),
    limb radius and keypoints in image px, one row per person."""
    width: int
    height: int
    zs: np.ndarray         # (n,)
    radii: np.ndarray      # (n,)
    keypoints: np.ndarray  # (n, 14, 2)

    def draw_order(self) -> list[int]:
        """Person indices far to near; equal depths keep index order."""
        return np.argsort(self.zs, kind="stable").tolist()


def _draw_persons(rng: np.random.Generator, cfg: SceneConfig, count: int,
                  p_attach: float, sigma_attach: float) -> SceneLayout:
    """Place `count` persons. Each person after the first attaches near an
    earlier one with probability p_attach, offset by a Gaussian of
    sigma_attach * that person's height; otherwise it places uniformly.

    The loop only draws, per person and in this order: template, height,
    attachment, center, keypoint noise, depth. The keypoints of all
    persons are then computed at once from the drawn values.

    Each uniform value in [a, b) is a + (b - a) * rng.random(), the
    expression rng.uniform(a, b) evaluates for float bounds, so the stream
    and the values are uniform's without its per-call argument checks.
    SceneConfig keeps the bounds finite."""
    ground_plane = cfg.depth_model == DEPTH_GROUND_PLANE
    s_lo, s_hi = map(float, cfg.scale_range)
    s_span = s_hi - s_lo
    image_w, image_h = float(cfg.image_w), float(cfg.image_h)
    random = rng.random
    templates, heights, cxs, cys, zs = [], [], [], [], []
    noise = np.empty((count, 14, 2))
    for i in range(count):
        templates.append(int(rng.integers(len(_TEMPLATES))))
        height = s_lo + s_span * random()
        if i > 0 and random() < p_attach:
            j = int(rng.integers(i))
            cx = cxs[j] + rng.normal(0.0, sigma_attach * heights[j])
            cy = cys[j] + rng.normal(0.0, sigma_attach * heights[j])
        else:
            cx = image_w * random()
            cy = image_h * random()
        heights.append(height)
        cxs.append(cx)
        cys.append(cy)
        rng.standard_normal((14, 2), out=noise[i])
        if ground_plane:
            foot_y = cy + height / 2.0
            zs.append(0.05 + 0.9 * min(max(foot_y / cfg.image_h, 0.0), 1.0))
        else:
            zs.append(0.05 + 0.95 * random())
    h = np.array(heights)[:, None]
    w = BODY_WIDTH_FRAC * h
    local = _TEMPLATE_BASE[templates] + noise * _TEMPLATE_JITTER[templates]
    kps = np.empty((count, 14, 2))
    kps[:, :, 0] = np.array(cxs)[:, None] - w / 2.0 + local[:, :, 0] * w
    kps[:, :, 1] = np.array(cys)[:, None] - h / 2.0 + local[:, :, 1] * h
    radii = np.maximum(1.0, cfg.limb_radius_frac * h[:, 0])
    return SceneLayout(cfg.image_w, cfg.image_h, np.array(zs), radii, kps)


def _capsule_sq_dist(px, py, ax, ay, bx, by):
    """Squared distance from points (px, py) to segments (ax, ay)-(bx, by).

    px and py are arrays; all arguments broadcast against each other. A
    point is covered by a capsule when the result is <= radius * radius;
    the flags and the rasterizer both apply exactly this test. A
    zero-length segment gets t = 0, the distance to its one point."""
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    dx = px - ax
    dy = py - ay
    # t is updated in place: with one more temporary per call, rendering
    # 200 scenes in one process peaked about 7 MB higher in RSS
    t = dx * abx + dy * aby
    t /= np.where(denom > 0.0, denom, 1.0)
    np.clip(t, 0.0, 1.0, out=t)
    ex = dx - t * abx
    ey = dy - t * aby
    return ex * ex + ey * ey


def _layout_flags(layout: SceneLayout) -> np.ndarray:
    """Geometric visibility codes, (n, 14) int8: occluded when a later-drawn
    person's capsule covers the keypoint's pixel center, self-occluded when
    the topmost own limb there is not one of the keypoint's own limbs."""
    kps, radii = layout.keypoints, layout.radii               # (n, 14, 2), (n,)
    n = len(kps)
    edges_per = len(SKELETON_EDGES)
    ends = kps[:, _EDGE_INDEX].reshape(-1, 2, 2)                # (13n, 2, 2)
    seg_r2 = np.repeat(radii * radii, edges_per)
    seg_owner = np.repeat(np.arange(n), edges_per)
    edge_idx = np.tile(np.arange(edges_per), n)

    points = (np.floor(kps) + 0.5).reshape(-1, 2)               # (14n, 2)
    point_owner = np.repeat(np.arange(n), 14)
    point_kp = np.tile(np.arange(14), n)

    covered = _capsule_sq_dist(points[:, 0, None], points[:, 1, None],
                               ends[:, 0, 0], ends[:, 0, 1],
                               ends[:, 1, 0], ends[:, 1, 1]) <= seg_r2   # (Q, S)
    ranks = np.argsort(layout.draw_order())
    nearer = ranks[seg_owner][None, :] > ranks[point_owner][:, None]
    occluded = np.any(covered & nearer, axis=1)

    own = covered & (seg_owner[None, :] == point_owner[:, None])
    top_edge = np.max(np.where(own, edge_idx[None, :], -1), axis=1)
    # A keypoint's own limb capsules always cover its pixel center (the
    # radius is at least 1 px), so top_edge is never -1 in practice.
    self_occ = ~occluded & (top_edge >= 0) & \
        ~_IS_OWN_EDGE[point_kp, np.maximum(top_edge, 0)]

    codes = np.where(occluded, CODE_OCCLUDED,
                     np.where(self_occ, CODE_SELF_OCCLUDED, CODE_VISIBLE))
    return codes.reshape(n, 14).astype(np.int8)


def _boxes(kps: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """(n, 4) x/y/w/h boxes: each person's keypoint extent padded by its
    limb radius. Every keypoint is a limb endpoint, so this is the capsule
    extent of the whole skeleton."""
    lo = kps.min(axis=1) - radii[:, None]
    hi = kps.max(axis=1) + radii[:, None]
    return np.concatenate([lo, hi - lo], axis=1)


def _layout_record(layout: SceneLayout, image_id: str) -> ImageRecord:
    """The scene's annotations: each pose is a read-only view of one copy
    of the layout's keypoints and flags."""
    codes = _layout_flags(layout)
    xy = layout.keypoints.copy()
    xy.flags.writeable = codes.flags.writeable = False
    persons = tuple(
        PersonInstance(bbox=BBox(*box), track_id=i,
                       pose=Pose.from_arrays(CROWDPOSE_SCHEMA, xy[i], codes[i]))
        for i, box in enumerate(_boxes(xy, layout.radii).tolist()))
    return ImageRecord(id=image_id, width=layout.width, height=layout.height,
                       persons=persons)


def _candidate_crowd_index(layout: SceneLayout) -> float:
    """CrowdIndex of a candidate straight from its layout, skipping flag
    and record construction.

    The boxes are _layout_record's _boxes and the count goes through the
    same array core as crowd_index(record), so screening and the stored
    value agree bit for bit."""
    kps = layout.keypoints
    owners = np.repeat(np.arange(len(kps)), 14)
    return crowd_index_arrays(_boxes(kps, layout.radii), kps.reshape(-1, 2), owners)


def person_color(index: int) -> tuple[int, int, int]:
    """Distinct flat color per person index (unique below 1728 persons)."""
    return (64 + (index % 12) * 16,
            64 + ((index // 12) % 12) * 16,
            64 + ((index // 144) % 12) * 16)


BACKGROUND_RGBA = (18, 18, 18, 255)
_RENDER_BAND_CELLS = 1 << 18


def render_layout(layout: SceneLayout) -> tuple[RasterImage, np.ndarray]:
    """Rasterize capsules back to front; returns the image and a depth map
    (0 = background, larger = nearer).

    All limbs of one person share its color and depth, so each person is
    painted once with the union of its capsules. Each segment is tested
    only over its own window, the cells within r + 1 px of it clipped to
    the image; one kernel call covers all 13, each window padded to the
    largest and shifted left or up to stay inside the image. A cell
    outside a segment's window is farther than r from it, so the padding
    never paints."""
    w, h = layout.width, layout.height
    raster = RasterImage.filled(w, h, BACKGROUND_RGBA)
    depth = np.zeros((h, w), dtype=np.float64)
    # one uint32 per RGBA pixel, so a cell is painted with one store
    flat_rgba = raster.pixels.view(np.uint32).reshape(-1)
    flat_depth = depth.reshape(-1)
    segs = layout.keypoints[:, _EDGE_INDEX]                      # (n, 13, 2, 2)
    pad = (layout.radii + 1.0)[:, None, None]
    lo = np.maximum(np.floor(segs.min(axis=2) - pad), 0.0)      # (n, 13, 2)
    hi = np.minimum(np.ceil(segs.max(axis=2) + pad), (w - 1, h - 1))
    sizes = (hi - lo).max(axis=1).astype(np.int64) + 1          # (n, 2) cols, rows
    starts = np.minimum(lo, (w, h) - sizes[:, None]).astype(np.int64)
    ends = segs[..., None, None]                                 # (n, 13, 2, 2, 1, 1)
    for idx in layout.draw_order():
        cols, rows = sizes[idx].tolist()
        if cols <= 0 or rows <= 0:
            continue
        r = layout.radii[idx]
        a, b = ends[idx, :, 0], ends[idx, :, 1]
        xs = starts[idx, :, 0, None] + np.arange(cols)           # (13, cols)
        px = (xs + 0.5)[:, None, :]
        color = np.array([*person_color(idx), 255], dtype=np.uint8).view(np.uint32)
        # bands of rows keep the (13, rows, cols) temporaries near 2 MB each
        band = max(1, _RENDER_BAND_CELLS // (len(_EDGE_INDEX) * cols))
        for b0 in range(0, rows, band):
            ys = starts[idx, :, 1, None] + np.arange(b0, min(b0 + band, rows))
            inside = _capsule_sq_dist(px, (ys + 0.5)[:, :, None], a[:, 0], a[:, 1],
                                      b[:, 0], b[:, 1]) <= r * r   # (13, band, cols)
            cells = ((ys * w)[:, :, None] + xs[:, None, :])[inside]
            flat_rgba[cells] = color
            flat_depth[cells] = layout.zs[idx]
    return raster, depth


@dataclass
class GeneratedScene:
    record: ImageRecord
    layout: SceneLayout | None  # None once gen has rendered it
    crowd_index: float
    slot: int = 0
    attempt: int = 0


def _quotas(weights: tuple[float, ...], scenes: int) -> list[int]:
    base = [int(math.floor(w * scenes)) for w in weights]
    remainders = [w * scenes - b for w, b in zip(weights, base)]
    short = scenes - sum(base)
    for idx in sorted(range(len(weights)), key=lambda i: (-remainders[i], i))[:short]:
        base[idx] += 1
    return base


def _density_for_bin(bin_index: int, bins: int, rng: np.random.Generator,
                     cfg: SceneConfig) -> tuple[int, float, float]:
    """Density knobs (count, p_attach, sigma_attach) aiming at one bin."""
    t = (bin_index + 0.5) / bins
    t = min(max(t + rng.normal(0.0, 0.08), 0.0), 1.0)
    lo, hi = cfg.person_count_range
    count = int(round(1 + t * (hi - 1) + rng.normal(0.0, 1.2)))
    count = min(max(count, lo), hi)
    p_attach = min(max(0.05 + 1.1 * t, 0.0), 0.95)
    # Log-normal spread keeps partial-overlap offsets reachable at every t;
    # without it high targets jump straight from mid C to full containment.
    sigma_attach = max(0.85 * (1.0 - t) + 0.05, 0.03) * math.exp(rng.normal(0.0, 0.4))
    return count, p_attach, sigma_attach


def corpus_slots(cfg: CorpusConfig) -> list[tuple[int, int]]:
    """(slot, bin) pairs in slot order: each bin's quota of slots in turn."""
    quotas = _quotas(cfg.target_histogram, cfg.scenes)
    bins = [b for b, quota in enumerate(quotas) for _ in range(quota)]
    return list(enumerate(bins))


def plan_slots(cfg: CorpusConfig, run: list[tuple[int, int]]):
    """Rejection-sample each slot of a contiguous run of corpus_slots, in
    order; yields (scene or None, candidates spent) per slot.

    A slot gives up, yielding None, once floor + attempt reaches the
    global budget of retry_factor * scenes candidates. The floor is the
    run's first slot index plus what the run has spent so far: every
    earlier slot spent at least one candidate, so the floor never exceeds
    the true spend before the slot, and a slot that the serial budget lets
    finish is accepted at the same attempt. within_budget applies the true
    spend. In a map_jobs worker whose caller has closed, each slot gives up
    at its next candidate: nothing the run yields would be taken."""
    bins = len(cfg.target_histogram)
    seed = cfg.scene_cfg.seed
    budget = cfg.retry_factor * cfg.scenes
    floor = run[0][0] if run else 0
    for slot, bin_index in run:
        scene = None
        attempt = 0
        while scene is None and floor + attempt < budget and not stopped():
            rng = substream(seed, "corpus", slot, attempt)
            count, p_attach, sigma_attach = _density_for_bin(bin_index, bins, rng,
                                                             cfg.scene_cfg)
            layout = _draw_persons(rng, cfg.scene_cfg, count, p_attach, sigma_attach)
            c = _candidate_crowd_index(layout)
            if histogram_bin(c, bins) == bin_index:
                scene = GeneratedScene(record=_layout_record(layout, f"scene_{slot:05d}"),
                                       layout=layout, crowd_index=c,
                                       slot=slot, attempt=attempt)
            attempt += 1
        floor += attempt
        yield scene, attempt


def within_budget(cfg: CorpusConfig, planned):
    """Pass through planned items, tuples that start (scene or None, spent),
    in slot order while the total spend stays within the budget.

    Raises TargetingError (with the achieved histogram) at the first slot
    that found no scene or pushed the spend past retry_factor * scenes
    candidates: the slot where the serial planner runs out."""
    bins = len(cfg.target_histogram)
    budget = cfg.retry_factor * cfg.scenes
    achieved = [0] * bins
    spent = 0
    for item in planned:
        scene, cost = item[0], item[1]
        spent += cost
        if scene is None or spent > budget:
            raise TargetingError(
                f"exhausted {budget} candidate scenes with "
                f"{sum(achieved)}/{cfg.scenes} accepted", achieved=achieved)
        achieved[histogram_bin(scene.crowd_index, bins)] += 1
        yield item


def plan_corpus(cfg: CorpusConfig) -> list[GeneratedScene]:
    """Rejection-sample scene layouts until each bin quota is filled.

    Raises TargetingError (with the achieved histogram) once the global
    attempt budget of retry_factor * scenes candidates runs out.
    """
    planned = plan_slots(cfg, corpus_slots(cfg))
    return [scene for scene, _ in within_budget(cfg, planned)]


def corpus_dataset(cfg: CorpusConfig, scenes: list[GeneratedScene]) -> Dataset:
    """Bundle planned scenes into a dataset; per-image CrowdIndex and the
    substream coordinates land in meta for replay."""
    meta = {
        "generator": {
            "scenes": cfg.scenes,
            "bins": len(cfg.target_histogram),
            "seed": cfg.scene_cfg.seed,
        },
        "crowd_index": {s.record.id: s.crowd_index for s in scenes},
        "substreams": {s.record.id: [s.slot, s.attempt] for s in scenes},
    }
    return Dataset(schema=CROWDPOSE_SCHEMA,
                   images=tuple(s.record for s in scenes), meta=meta)
