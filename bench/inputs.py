"""Seeded benchmark inputs, built through the toolkit's public API only.

Every builder takes the run seed and writes plain files; the timed
commands see nothing but those files. Nothing here is timed.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from crowdpose_kit import annotations as anno
from crowdpose_kit import augment as aug
from crowdpose_kit import masks
from crowdpose_kit import synthgen
from crowdpose_kit.seeding import substream

# Crowded corpus: 10 CrowdIndex bins weighted toward the hard end, with the
# easy bin (C < 0.1) and the medium bins still populated.
CROWDED_WEIGHTS = (1, 1, 1, 1, 1, 2, 2, 3, 4, 4)
CROWDED_PERSONS = (2, 20)


def derived_seed(seed: int, name: str) -> int:
    """Independent 31-bit seed per input kind, so corpora do not share streams."""
    return int(substream(seed, "bench", name).integers(2 ** 31))


def quotas(weights, scenes: int) -> list[int]:
    """Per-bin scene counts for normalized weights: floor, then the largest
    remainders (ties to the lower bin) get the leftover scenes."""
    total = float(sum(weights))
    exact = [w / total * scenes for w in weights]
    base = [math.floor(x) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:scenes - sum(base)]:
        base[i] += 1
    return base


def plan(seed: int, scenes: int, weights=None, person_range=None):
    """Plan a corpus; returns (CorpusConfig, scenes)."""
    overrides = {} if person_range is None else {"person_count_range": person_range}
    scene_cfg = synthgen.SceneConfig(seed=seed, **overrides)
    kw = {}
    if weights is not None:
        total = float(sum(weights))
        kw["target_histogram"] = tuple(w / total for w in weights)
    cfg = synthgen.CorpusConfig(scenes=scenes, scene_cfg=scene_cfg, **kw)
    return cfg, synthgen.plan_corpus(cfg)


def write_corpus(out: Path, cfg, scenes, rasters: bool) -> anno.Dataset:
    """dataset.json plus, optionally, one <id>.pam raster per scene."""
    out.mkdir(parents=True, exist_ok=True)
    dataset = synthgen.corpus_dataset(cfg, scenes)
    (out / "dataset.json").write_bytes(anno.serialize_dataset(dataset))
    if rasters:
        for scene in scenes:
            raster, _ = synthgen.render_layout(scene.layout)
            (out / f"{scene.record.id}.pam").write_bytes(masks.write_pam(raster))
    return dataset


def _person_cutouts(seed: int, count: int) -> list[masks.Cutout]:
    """Full-body cutouts with keypoints: per rendered scene, the nearest
    person showing at least 200 pixels, masked by its flat color."""
    _, scenes = plan(seed, 4 * count, weights=(1.0,), person_range=(1, 3))
    cutouts = []
    for scene in scenes:
        layout = scene.layout
        raster, _ = synthgen.render_layout(layout)
        for idx in reversed(layout.draw_order()):
            color = np.array(synthgen.person_color(idx), dtype=np.uint8)
            mask = np.all(raster.pixels[:, :, :3] == color, axis=2)
            if np.count_nonzero(mask) >= 200:
                cutouts.append(masks.extract_cutout(
                    raster, mask, masks.CUTOUT_FULL_BODY,
                    keypoints=scene.record.persons[idx].pose.keypoints))
                break
        if len(cutouts) == count:
            return cutouts
    raise RuntimeError(f"only {len(cutouts)} of {count} person cutouts found")


def _object_cutouts(seed: int, count: int) -> list[masks.Cutout]:
    """Object cutouts from seeded star-shaped polygons in flat colors."""
    rng = substream(seed, "bench", "objects")
    cutouts = []
    for _ in range(count):
        w, h = int(rng.integers(12, 40)), int(rng.integers(12, 40))
        n = int(rng.integers(5, 11))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        radii = rng.uniform(0.35, 0.5, n)
        poly = tuple((float(w / 2 + r * w * math.cos(a)), float(h / 2 + r * h * math.sin(a)))
                     for a, r in zip(angles, radii))
        mask = masks.decode_polygon(anno.SegmentMask(kind="polygons", polygons=(poly,)),
                                    w, h)
        rgba = (*(int(c) for c in rng.integers(0, 256, 3)), 255)
        raster = masks.RasterImage.filled(w, h, rgba)
        cutouts.append(masks.extract_cutout(raster, mask, masks.CUTOUT_OBJECT))
    return cutouts


def build_inventory(out: Path, seed: int, objects: int = 12, persons: int = 8) -> None:
    inventory = aug.CutoutInventory(objects=_object_cutouts(seed, objects),
                                    persons=_person_cutouts(seed, persons))
    aug.save_inventory(out, inventory)


def _jitter_person(rng, person: anno.PersonInstance, schema) -> anno.PersonInstance:
    """A prediction near one ground truth: each keypoint jittered by a
    Gaussian scaled to the box, with a score that falls as jitter grows."""
    spread = float(rng.uniform(0.01, 0.15))
    scale = spread * math.sqrt(max(person.bbox.area, 1.0))
    kps = tuple(anno.Keypoint(k.x + float(rng.normal(0.0, scale)),
                              k.y + float(rng.normal(0.0, scale)), anno.Visibility.VISIBLE)
                for k in person.pose.keypoints)
    score = float(np.clip(1.0 - 4.0 * spread + rng.normal(0.0, 0.1), 0.01, 1.0))
    return replace(person, pose=anno.Pose(schema, kps), score=score)


def _false_positive(rng, img: anno.ImageRecord, schema) -> anno.PersonInstance:
    w, h = float(rng.uniform(15, 60)), float(rng.uniform(30, 90))
    x, y = float(rng.uniform(0, img.width - 10)), float(rng.uniform(0, img.height - 10))
    kps = tuple(anno.Keypoint(float(rng.uniform(x, x + w)), float(rng.uniform(y, y + h)),
                              anno.Visibility.VISIBLE) for _ in range(schema.count))
    return anno.PersonInstance(bbox=anno.BBox(x, y, w, h), pose=anno.Pose(schema, kps),
                               score=float(rng.uniform(0.01, 0.7)))


def predictions(gt: anno.Dataset, seed: int, drop: float = 0.1,
                fp_rate: float = 1.0) -> anno.Dataset:
    """Seeded predictions: jittered matches, dropped persons, false positives."""
    rng = substream(seed, "bench", "predictions")
    images = []
    for img in gt.images:
        persons = [_jitter_person(rng, p, gt.schema) for p in img.persons
                   if rng.random() >= drop]
        persons += [_false_positive(rng, img, gt.schema)
                    for _ in range(int(rng.poisson(fp_rate)))]
        images.append(replace(img, persons=tuple(persons)))
    return anno.Dataset(schema=gt.schema, images=tuple(images), meta={})
