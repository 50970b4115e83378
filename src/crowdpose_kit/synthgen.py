"""Procedural 2D crowd-scene generator with exact occlusion ground truth.

Bodies are stick figures rasterized as capsules (limb segments dilated by a
radius) in distinct flat colors, painted back to front. Visibility flags
come straight from the geometry: a keypoint is occluded when a nearer
person's capsule covers its pixel center, self-occluded when only a
later-drawn limb of the same person does. Corpus generation targets a
CrowdIndex histogram by rejection-sampling scenes whose density knob tracks
the requested bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .annotations import (CROWDPOSE_SCHEMA, BBox, Dataset, ImageRecord, Keypoint,
                          PersonInstance, Pose, Visibility)
from .crowd_metrics import crowd_index, crowd_index_arrays, histogram_bin
from .errors import ConfigError, TargetingError
from .masks import RasterImage
from .seeding import substream

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


@dataclass(frozen=True)
class PoseTemplate:
    name: str
    keypoints: tuple[tuple[float, float], ...]  # 14 normalized (x, y) in [0, 1]^2
    jitter: tuple[float, ...]                   # per-keypoint std, normalized

    def __post_init__(self):
        if len(self.keypoints) != 14 or len(self.jitter) != 14:
            raise ConfigError(f"template {self.name!r} needs 14 keypoints")
        for x, y in self.keypoints:
            if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
                raise ConfigError(f"template {self.name!r} coordinates outside [0,1]^2")


def _template(name, jitter, coords):
    return PoseTemplate(name, tuple(coords), (jitter,) * 14)


# Keypoint order: l_sh, r_sh, l_elb, r_elb, l_wr, r_wr, l_hip, r_hip,
# l_knee, r_knee, l_ank, r_ank, top_head, neck.
BUILTIN_TEMPLATES = (
    _template("standing", 0.012, [
        (0.64, 0.22), (0.36, 0.22), (0.66, 0.38), (0.34, 0.38), (0.67, 0.53),
        (0.33, 0.53), (0.58, 0.52), (0.42, 0.52), (0.57, 0.74), (0.43, 0.74),
        (0.57, 0.96), (0.43, 0.96), (0.50, 0.02), (0.50, 0.18)]),
    _template("walking", 0.015, [
        (0.63, 0.22), (0.37, 0.22), (0.70, 0.38), (0.29, 0.39), (0.76, 0.51),
        (0.22, 0.52), (0.57, 0.52), (0.43, 0.52), (0.64, 0.73), (0.38, 0.75),
        (0.70, 0.95), (0.30, 0.96), (0.50, 0.02), (0.50, 0.18)]),
    _template("sitting", 0.015, [
        (0.63, 0.28), (0.37, 0.28), (0.67, 0.44), (0.33, 0.44), (0.64, 0.58),
        (0.36, 0.58), (0.60, 0.58), (0.40, 0.58), (0.68, 0.64), (0.32, 0.64),
        (0.66, 0.92), (0.34, 0.92), (0.50, 0.08), (0.50, 0.24)]),
    _template("yoga", 0.020, [
        (0.61, 0.26), (0.39, 0.26), (0.66, 0.13), (0.34, 0.13), (0.57, 0.02),
        (0.43, 0.02), (0.57, 0.54), (0.43, 0.54), (0.56, 0.76), (0.30, 0.62),
        (0.56, 0.97), (0.45, 0.56), (0.50, 0.06), (0.50, 0.22)]),
    _template("pushup", 0.015, [
        (0.85, 0.68), (0.84, 0.64), (0.85, 0.82), (0.83, 0.80), (0.86, 0.96),
        (0.82, 0.94), (0.45, 0.62), (0.45, 0.58), (0.26, 0.66), (0.25, 0.62),
        (0.05, 0.70), (0.04, 0.66), (0.96, 0.62), (0.88, 0.66)]),
    _template("cheering", 0.018, [
        (0.63, 0.24), (0.37, 0.24), (0.74, 0.14), (0.26, 0.14), (0.84, 0.03),
        (0.16, 0.03), (0.58, 0.53), (0.42, 0.53), (0.62, 0.74), (0.38, 0.74),
        (0.65, 0.96), (0.35, 0.96), (0.50, 0.04), (0.50, 0.20)]),
    _template("fighting", 0.020, [
        (0.60, 0.26), (0.38, 0.28), (0.76, 0.27), (0.33, 0.40), (0.93, 0.25),
        (0.42, 0.30), (0.56, 0.54), (0.43, 0.55), (0.66, 0.73), (0.34, 0.78),
        (0.72, 0.95), (0.25, 0.96), (0.49, 0.06), (0.49, 0.22)]),
)


@dataclass(frozen=True)
class SceneConfig:
    image_w: int = 160
    image_h: int = 120
    person_count_range: tuple[int, int] = (1, 10)
    scale_range: tuple[float, float] = (40.0, 90.0)
    depth_model: str = DEPTH_UNIFORM
    limb_radius_frac: float = 0.035
    target_crowd_index: Optional[float] = None
    seed: int = 0
    # Density knobs: each person after the first attaches near an earlier
    # one with probability attach_prob, offset by a Gaussian of
    # attach_sigma * that person's height; otherwise it places uniformly.
    attach_prob: float = 0.35
    attach_sigma: float = 0.50

    def __post_init__(self):
        if self.image_w < 1 or self.image_h < 1:
            raise ConfigError(f"bad image size {self.image_w}x{self.image_h}")
        lo, hi = self.person_count_range
        if not (1 <= lo <= hi):
            raise ConfigError(f"bad person count range {self.person_count_range}")
        slo, shi = self.scale_range
        if not (0 < slo <= shi):
            raise ConfigError(f"bad scale range {self.scale_range}")
        if slo > max(self.image_w, self.image_h):
            raise ConfigError(f"minimum person height {slo} exceeds image "
                              f"{self.image_w}x{self.image_h}")
        if self.limb_radius_frac <= 0:
            raise ConfigError("limb_radius_frac must be positive")
        if self.depth_model not in (DEPTH_UNIFORM, DEPTH_GROUND_PLANE):
            raise ConfigError(f"unknown depth model {self.depth_model!r}")
        if not 0.0 <= self.attach_prob <= 1.0 or self.attach_sigma < 0:
            raise ConfigError("bad attachment density knobs")


@dataclass(frozen=True)
class CorpusConfig:
    scenes: int
    scene_cfg: SceneConfig
    target_histogram: tuple[float, ...] = (0.1,) * 10
    retry_factor: int = 50

    def __post_init__(self):
        weights = self.target_histogram
        if not weights or any(w < 0 for w in weights):
            raise ConfigError("target histogram weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigError("target histogram weights must sum to 1")
        if self.scenes < len(weights):
            raise ConfigError(f"need at least one scene per bin "
                              f"({len(weights)} bins, {self.scenes} scenes)")


@dataclass
class PersonLayout:
    template: str
    height: float
    z: float                 # larger = nearer to the camera
    radius: float
    keypoints: np.ndarray    # (14, 2) image px

    def segments(self) -> np.ndarray:
        """(13, 2, 2) limb endpoints in paint order."""
        return self.keypoints[_EDGE_INDEX]


@dataclass
class SceneLayout:
    width: int
    height: int
    persons: list[PersonLayout] = field(default_factory=list)

    def draw_order(self) -> list[int]:
        """Person indices far to near; equal depths keep index order."""
        return sorted(range(len(self.persons)),
                      key=lambda i: (self.persons[i].z, i))

    def ranks(self) -> list[int]:
        order = self.draw_order()
        ranks = [0] * len(order)
        for rank, idx in enumerate(order):
            ranks[idx] = rank
        return ranks


def _sample_layout(rng: np.random.Generator, cfg: SceneConfig,
                   templates: tuple[PoseTemplate, ...],
                   count: Optional[int] = None,
                   attach_prob: Optional[float] = None,
                   attach_sigma: Optional[float] = None) -> SceneLayout:
    lo, hi = cfg.person_count_range
    n = int(count) if count is not None else int(rng.integers(lo, hi + 1))
    p_att = cfg.attach_prob if attach_prob is None else attach_prob
    s_att = cfg.attach_sigma if attach_sigma is None else attach_sigma

    layout = SceneLayout(cfg.image_w, cfg.image_h)
    centers: list[tuple[float, float, float]] = []  # (cx, cy, height)
    for i in range(n):
        template = templates[int(rng.integers(len(templates)))]
        height = rng.uniform(*cfg.scale_range)
        width = BODY_WIDTH_FRAC * height
        if i > 0 and rng.random() < p_att:
            bx, by, bh = centers[int(rng.integers(len(centers)))]
            cx = bx + rng.normal(0.0, s_att * bh)
            cy = by + rng.normal(0.0, s_att * bh)
        else:
            cx = rng.uniform(0.0, cfg.image_w)
            cy = rng.uniform(0.0, cfg.image_h)
        centers.append((cx, cy, height))
        base = np.asarray(template.keypoints, dtype=np.float64)
        jitter = np.asarray(template.jitter, dtype=np.float64)[:, None]
        local = base + rng.standard_normal((14, 2)) * jitter
        kps = np.empty((14, 2))
        kps[:, 0] = cx - width / 2.0 + local[:, 0] * width
        kps[:, 1] = cy - height / 2.0 + local[:, 1] * height
        if cfg.depth_model == DEPTH_GROUND_PLANE:
            foot_y = cy + height / 2.0
            z = 0.05 + 0.9 * min(max(foot_y / cfg.image_h, 0.0), 1.0)
        else:
            z = rng.uniform(0.05, 1.0)
        layout.persons.append(PersonLayout(
            template=template.name, height=height, z=z,
            radius=max(1.0, cfg.limb_radius_frac * height), keypoints=kps))
    return layout


def _sq_dist_matrix(points: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Squared distances, (Q, S), from each point to each (S, 2, 2) segment."""
    a = segs[:, 0, :]                      # (S, 2)
    ab = segs[:, 1, :] - a                 # (S, 2)
    denom = np.sum(ab * ab, axis=1)        # (S,)
    pa = points[:, None, :] - a[None, :, :]          # (Q, S, 2)
    t = np.sum(pa * ab[None, :, :], axis=2) / np.maximum(denom, 1e-300)
    t = np.where(denom > 0.0, np.clip(t, 0.0, 1.0), 0.0)
    e = pa - t[:, :, None] * ab[None, :, :]
    return np.sum(e * e, axis=2)


def _layout_flags(layout: SceneLayout) -> list[list[Visibility]]:
    """Geometric visibility per keypoint: occluded when a later-drawn
    person's capsule covers the keypoint's pixel center, self-occluded when
    the topmost own limb there is not one of the keypoint's own limbs.

    Coverage is the squared comparison d^2 <= radius^2 at pixel centers,
    exactly the test the rasterizer applies."""
    n = len(layout.persons)
    ranks = np.asarray(layout.ranks())
    segs = np.concatenate([p.segments() for p in layout.persons])   # (13n, 2, 2)
    edges_per = len(SKELETON_EDGES)
    seg_owner = np.repeat(np.arange(n), edges_per)
    seg_r2 = np.repeat([p.radius ** 2 for p in layout.persons], edges_per)
    edge_idx = np.tile(np.arange(edges_per), n)

    points = np.concatenate([np.floor(p.keypoints) + 0.5 for p in layout.persons])
    point_owner = np.repeat(np.arange(n), 14)
    point_kp = np.tile(np.arange(14), n)

    covered = _sq_dist_matrix(points, segs) <= seg_r2[None, :]       # (Q, S)
    nearer = ranks[seg_owner][None, :] > ranks[point_owner][:, None]
    occluded = np.any(covered & nearer, axis=1)

    own = covered & (seg_owner[None, :] == point_owner[:, None])
    top_edge = np.max(np.where(own, edge_idx[None, :], -1), axis=1)
    # A keypoint's own limb capsules always cover its pixel center (the
    # radius is at least 1 px), so top_edge is never -1 in practice.
    self_occ = ~occluded & (top_edge >= 0) & \
        ~_IS_OWN_EDGE[point_kp, np.maximum(top_edge, 0)]

    flags: list[list[Visibility]] = []
    q = 0
    for _ in range(n):
        row = []
        for _k in range(14):
            if occluded[q]:
                row.append(Visibility.OCCLUDED)
            elif self_occ[q]:
                row.append(Visibility.SELF_OCCLUDED)
            else:
                row.append(Visibility.VISIBLE)
            q += 1
        flags.append(row)
    return flags


def _layout_bbox(person: PersonLayout) -> tuple[float, float, float, float]:
    segs = person.segments()
    x0 = float(np.min(segs[:, :, 0])) - person.radius
    x1 = float(np.max(segs[:, :, 0])) + person.radius
    y0 = float(np.min(segs[:, :, 1])) - person.radius
    y1 = float(np.max(segs[:, :, 1])) + person.radius
    return x0, y0, x1 - x0, y1 - y0


def _layout_record(layout: SceneLayout, image_id: str,
                   flags: Optional[list[list[Visibility]]] = None) -> ImageRecord:
    if flags is None:
        flags = _layout_flags(layout)
    persons = []
    for i, person in enumerate(layout.persons):
        kps = tuple(Keypoint(float(x), float(y), flags[i][k])
                    for k, (x, y) in enumerate(person.keypoints))
        x0, y0, w, h = _layout_bbox(person)
        persons.append(PersonInstance(
            bbox=BBox(x0, y0, w, h),
            pose=Pose(CROWDPOSE_SCHEMA, kps),
            track_id=i,
        ))
    return ImageRecord(id=image_id, width=layout.width, height=layout.height,
                       persons=tuple(persons))


def _layout_crowd_index(layout: SceneLayout) -> float:
    """CrowdIndex straight from the layout, skipping record construction.

    Boxes come from _layout_bbox and the count goes through the same array
    core as crowd_index(record), so screening and the stored value agree
    bit for bit."""
    n = len(layout.persons)
    boxes = np.array([_layout_bbox(p) for p in layout.persons], dtype=np.float64)
    points = np.concatenate([p.keypoints for p in layout.persons])
    owners = np.repeat(np.arange(n), 14)
    return crowd_index_arrays(boxes, points, owners)


def person_color(index: int) -> tuple[int, int, int]:
    """Distinct flat color per person index (unique below 1728 persons)."""
    return (64 + (index % 12) * 16,
            64 + ((index // 12) % 12) * 16,
            64 + ((index // 144) % 12) * 16)


BACKGROUND_RGBA = (18, 18, 18, 255)


def render_layout(layout: SceneLayout) -> tuple[RasterImage, np.ndarray]:
    """Rasterize capsules back to front; returns the image and a depth map
    (0 = background, larger = nearer)."""
    w, h = layout.width, layout.height
    raster = RasterImage.filled(w, h, BACKGROUND_RGBA)
    depth = np.zeros((h, w), dtype=np.float64)
    for idx in layout.draw_order():
        person = layout.persons[idx]
        color = np.array([*person_color(idx), 255], dtype=np.uint8)
        r = person.radius
        for a, b in person.segments():
            x0 = max(int(math.floor(min(a[0], b[0]) - r - 1.0)), 0)
            x1 = min(int(math.ceil(max(a[0], b[0]) + r + 1.0)), w - 1)
            y0 = max(int(math.floor(min(a[1], b[1]) - r - 1.0)), 0)
            y1 = min(int(math.ceil(max(a[1], b[1]) + r + 1.0)), h - 1)
            if x0 > x1 or y0 > y1:
                continue
            px = np.arange(x0, x1 + 1, dtype=np.float64) + 0.5
            py = np.arange(y0, y1 + 1, dtype=np.float64) + 0.5
            abx, aby = b[0] - a[0], b[1] - a[1]
            denom = abx * abx + aby * aby
            dx = px[None, :] - a[0]
            dy = py[:, None] - a[1]
            if denom > 0.0:
                t = np.clip((dx * abx + dy * aby) / denom, 0.0, 1.0)
            else:
                t = np.zeros((py.size, px.size))
            ex = dx - t * abx
            ey = dy - t * aby
            inside = ex * ex + ey * ey <= r * r
            raster.pixels[y0:y1 + 1, x0:x1 + 1][inside] = color
            depth[y0:y1 + 1, x0:x1 + 1][inside] = person.z
    return raster, depth


@dataclass
class GeneratedScene:
    record: ImageRecord
    layout: SceneLayout
    crowd_index: float
    slot: int = 0
    attempt: int = 0


def generate_scene(rng: np.random.Generator, cfg: SceneConfig,
                   templates: tuple[PoseTemplate, ...] = BUILTIN_TEMPLATES,
                   image_id: str = "scene_00000") -> tuple[ImageRecord, RasterImage]:
    """One annotated scene plus its raster; annotation and raster agree."""
    if not templates:
        raise ConfigError("need at least one pose template")
    if cfg.target_crowd_index is None:
        layout = _sample_layout(rng, cfg, templates)
    else:
        layout = None
        for _ in range(1000):
            candidate = _sample_layout(rng, cfg, templates)
            if abs(_layout_crowd_index(candidate) - cfg.target_crowd_index) <= 0.05:
                layout = candidate
                break
        if layout is None:
            raise TargetingError(f"no scene within 0.05 of CrowdIndex "
                                 f"{cfg.target_crowd_index} in 1000 draws")
    record = _layout_record(layout, image_id)
    raster, _ = render_layout(layout)
    return record, raster


def _quotas(weights: tuple[float, ...], scenes: int) -> list[int]:
    base = [int(math.floor(w * scenes)) for w in weights]
    remainders = [w * scenes - b for w, b in zip(weights, base)]
    short = scenes - sum(base)
    for idx in sorted(range(len(weights)), key=lambda i: (-remainders[i], i))[:short]:
        base[idx] += 1
    return base


def _density_for_bin(bin_index: int, bins: int, rng: np.random.Generator,
                     cfg: SceneConfig) -> tuple[int, float, float]:
    """Density knobs (count, attach_prob, attach_sigma) aiming at one bin."""
    t = (bin_index + 0.5) / bins
    t = min(max(t + rng.normal(0.0, 0.08), 0.0), 1.0)
    lo, hi = cfg.person_count_range
    count = int(round(1 + t * (hi - 1) + rng.normal(0.0, 1.2)))
    count = min(max(count, lo), hi)
    attach_prob = min(max(0.05 + 1.1 * t, 0.0), 0.95)
    # Log-normal spread keeps partial-overlap offsets reachable at every t;
    # without it high targets jump straight from mid C to full containment.
    attach_sigma = max(0.85 * (1.0 - t) + 0.05, 0.03) * math.exp(rng.normal(0.0, 0.4))
    return count, attach_prob, attach_sigma


def plan_corpus(cfg: CorpusConfig,
                templates: tuple[PoseTemplate, ...] = BUILTIN_TEMPLATES
                ) -> list[GeneratedScene]:
    """Rejection-sample scene layouts until each bin quota is filled.

    Raises TargetingError (with the achieved histogram) once the global
    attempt budget of retry_factor * scenes candidates runs out.
    """
    bins = len(cfg.target_histogram)
    quotas = _quotas(cfg.target_histogram, cfg.scenes)
    seed = cfg.scene_cfg.seed
    budget = cfg.retry_factor * cfg.scenes
    spent = 0
    scenes: list[GeneratedScene] = []
    slot = 0
    for bin_index, quota in enumerate(quotas):
        for _ in range(quota):
            image_id = f"scene_{slot:05d}"
            accepted = None
            attempt = 0
            while accepted is None:
                if spent >= budget:
                    achieved = [0] * bins
                    for s in scenes:
                        achieved[histogram_bin(s.crowd_index, bins)] += 1
                    raise TargetingError(
                        f"exhausted {budget} candidate scenes with "
                        f"{len(scenes)}/{cfg.scenes} accepted", achieved=achieved)
                rng = substream(seed, "corpus", slot, attempt)
                count, p_att, s_att = _density_for_bin(bin_index, bins, rng,
                                                       cfg.scene_cfg)
                layout = _sample_layout(rng, cfg.scene_cfg, templates, count=count,
                                        attach_prob=p_att, attach_sigma=s_att)
                c = _layout_crowd_index(layout)
                spent += 1
                if histogram_bin(c, bins) == bin_index:
                    accepted = (layout, c, attempt)
                attempt += 1
            layout, c, attempt_used = accepted
            record = _layout_record(layout, image_id)
            scenes.append(GeneratedScene(record=record, layout=layout,
                                         crowd_index=crowd_index(record),
                                         slot=slot, attempt=attempt_used))
            slot += 1
    return scenes


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


def generate_corpus(cfg: CorpusConfig,
                    templates: tuple[PoseTemplate, ...] = BUILTIN_TEMPLATES) -> Dataset:
    """Annotated dataset whose CrowdIndex histogram matches the target."""
    return corpus_dataset(cfg, plan_corpus(cfg, templates))


def keypoint_density_map(dataset: Dataset, keypoint_name: str, bins: int) -> np.ndarray:
    """2D histogram of one keypoint type over normalized bbox-local coords.

    Positions are clipped into [0, 1] before binning, so the grid total
    equals the labeled keypoint count.
    """
    if bins < 2:
        raise ConfigError(f"need at least 2 bins per axis, got {bins}")
    if keypoint_name not in dataset.schema.keypoint_names:
        raise ConfigError(f"schema {dataset.schema.name!r} has no keypoint "
                          f"{keypoint_name!r}")
    k = dataset.schema.keypoint_names.index(keypoint_name)
    grid = np.zeros((bins, bins), dtype=np.int64)
    for img in dataset.images:
        for person in img.persons:
            kp = person.pose.keypoints[k]
            if kp.vis is Visibility.UNLABELED:
                continue
            u = min(max((kp.x - person.bbox.x) / person.bbox.w, 0.0), 1.0)
            v = min(max((kp.y - person.bbox.y) / person.bbox.h, 0.0), 1.0)
            grid[min(int(v * bins), bins - 1), min(int(u * bins), bins - 1)] += 1
    return grid
