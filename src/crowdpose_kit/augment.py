"""Synthetic occlusion augmentation with cutout pastes.

Three paste flavors: random objects, person body parts, and full bodies.
Every cutout is scaled to a uniform area fraction (AREA_FRAC, 8% to 70%) of
the target person's box; full-body pastes keep their center out of the
box's central region so a second complete person never sits in the middle
of the crop. Combination policies apply two flavors at once ("and") or
exactly one ("or"). Keypoints of any person landing under a pasted pixel
get their flag moved to occluded; coordinates never change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .annotations import (CODE_OCCLUDED, CODE_SELF_OCCLUDED, CODE_VISIBLE,
                          VISIBILITY_BY_TAG, VISIBILITY_ORDER, BBox, ImageRecord, Keypoint,
                          Pose, Visibility, gather_keypoints)
from .errors import ConfigError, GeometryError, InventoryError
from .masks import (CUTOUT_BODY_PART, CUTOUT_FULL_BODY, CUTOUT_OBJECT, Cutout,
                    RasterImage, composite_with_mask, read_pam, write_pam)

METHOD_OBJECTS = "objects"
METHOD_BODY_PARTS = "body_parts"
METHOD_FULL_BODY = "full_body"
METHOD_PARTS_AND_OBJECTS = "parts_and_objects"
METHOD_FULL_AND_OBJECTS = "full_and_objects"
METHOD_PARTS_OR_OBJECTS = "parts_or_objects"
METHOD_FULL_OR_OBJECTS = "full_or_objects"

# method -> (cutout kinds in paste order, whether only one of them is pasted)
_METHOD_PLANS = {
    METHOD_OBJECTS: ((CUTOUT_OBJECT,), False),
    METHOD_BODY_PARTS: ((CUTOUT_BODY_PART,), False),
    METHOD_FULL_BODY: ((CUTOUT_FULL_BODY,), False),
    METHOD_PARTS_AND_OBJECTS: ((CUTOUT_BODY_PART, CUTOUT_OBJECT), False),
    METHOD_FULL_AND_OBJECTS: ((CUTOUT_FULL_BODY, CUTOUT_OBJECT), False),
    METHOD_PARTS_OR_OBJECTS: ((CUTOUT_BODY_PART, CUTOUT_OBJECT), True),
    METHOD_FULL_OR_OBJECTS: ((CUTOUT_FULL_BODY, CUTOUT_OBJECT), True),
}
METHODS = tuple(_METHOD_PLANS)

AREA_FRAC = (0.08, 0.70)  # pasted area as a fraction of the person box
PART_FRAC = (0.20, 0.60)  # body-part rectangle as a fraction of its cutout
OR_PROBABILITY = 0.5      # chance an "or" method takes its person-based kind


@dataclass(frozen=True)
class AugmentConfig:
    method: str = METHOD_OBJECTS

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")


@dataclass
class CutoutInventory:
    objects: list[Cutout] = field(default_factory=list)
    persons: list[Cutout] = field(default_factory=list)


@dataclass(frozen=True)
class Placement:
    """A planned paste: which cutout, where, and at what size.

    src_rect (cutout-local x, y, w, h) is set for body-part pastes only and
    names the sub-rectangle of the source person cutout being pasted; it is
    recorded so logs replay exactly.
    """

    cutout_index: int
    kind: str
    dst_x: int
    dst_y: int
    dst_w: int
    dst_h: int
    src_rect: Optional[tuple[int, int, int, int]] = None

    def to_json(self) -> dict:
        return {
            "cutout_index": self.cutout_index, "kind": self.kind,
            "dst_x": self.dst_x, "dst_y": self.dst_y,
            "dst_w": self.dst_w, "dst_h": self.dst_h,
            "src_rect": None if self.src_rect is None else list(self.src_rect),
        }


def _snap_dims(target_area: float, ref_w: float, ref_h: float,
               lo: float, hi: float,
               max_w: Optional[int] = None, max_h: Optional[int] = None) -> tuple[int, int]:
    """Integer (w, h) with w*h inside [lo, hi], aspect close to ref_w:ref_h.

    Rounding alone can push a boundary draw outside the fraction bounds, so
    the height is chosen from the valid integer range nearest the exact
    area. Degenerate caps fall back to the nearest representable size.
    """
    s = math.sqrt(target_area / (ref_w * ref_h))
    w = max(1, int(math.floor(ref_w * s + 0.5)))
    if max_w is not None:
        w = min(w, max_w)
    h_lo = max(1, int(math.ceil(lo / w - 1e-9)))
    h_hi = int(math.floor(hi / w + 1e-9))
    if max_h is not None:
        h_hi = min(h_hi, max_h)
    h = int(math.floor(target_area / w + 0.5))
    if h_lo <= h_hi:
        h = min(max(h, h_lo), h_hi)
    else:
        h = max(1, h if max_h is None else min(h, max_h))
    return w, h


def _sample_center_roundtrip(rng: np.random.Generator, bbox: BBox,
                             dst_w: int, dst_h: int,
                             exclude_central: bool) -> tuple[int, int]:
    """Sample integer top-left so the realized paste center obeys the rules.

    The center (dst_x + w/2, dst_y + h/2) must land inside the box; with
    exclude_central it must also avoid the middle 50%-per-axis region.
    Rounding is re-checked against the realized center, not the drawn one.
    """
    x_lo, x_hi = bbox.x + 0.25 * bbox.w, bbox.x + 0.75 * bbox.w
    y_lo, y_hi = bbox.y + 0.25 * bbox.h, bbox.y + 0.75 * bbox.h
    for _ in range(256):
        cx = rng.uniform(bbox.x, bbox.x + bbox.w)
        cy = rng.uniform(bbox.y, bbox.y + bbox.h)
        dst_x = int(math.floor(cx - dst_w / 2.0 + 0.5))
        dst_y = int(math.floor(cy - dst_h / 2.0 + 0.5))
        rx = dst_x + dst_w / 2.0
        ry = dst_y + dst_h / 2.0
        if not bbox.contains(rx, ry):
            continue
        if exclude_central and (x_lo <= rx <= x_hi and y_lo <= ry <= y_hi):
            continue
        return dst_x, dst_y
    raise ConfigError(f"could not place a {dst_w}x{dst_h} cutout on bbox "
                      f"{bbox.w}x{bbox.h}")


def _pool(inventory: CutoutInventory, kind: str) -> list[Cutout]:
    return inventory.objects if kind == CUTOUT_OBJECT else inventory.persons


def _body_part_rect(rng: np.random.Generator,
                    cut: Cutout) -> tuple[int, int, int, int]:
    """A sub-rectangle (x, y, w, h) covering PART_FRAC of the cutout's area;
    up to 16 positions are drawn until one holds an opaque pixel."""
    cw, ch = cut.raster.width, cut.raster.height
    lo, hi = PART_FRAC
    part_frac = rng.uniform(lo, hi)
    pw, ph = _snap_dims(part_frac * cw * ch, cw, ch, lo * cw * ch, hi * cw * ch,
                        max_w=cw, max_h=ch)
    alpha = cut.raster.pixels[:, :, 3]
    px = py = 0
    for _ in range(16):
        px = int(rng.integers(0, cw - pw + 1))
        py = int(rng.integers(0, ch - ph + 1))
        if np.any(alpha[py:py + ph, px:px + pw]):
            break
    return px, py, pw, ph


def plan_cutout(rng: np.random.Generator, kind: str, person: BBox,
                inventory: CutoutInventory) -> Placement:
    """Plan one paste of `kind` over a person box.

    Draws, in order: the cutout index; for a body part, its sub-rectangle
    of the source person cutout; the pasted area, a uniform AREA_FRAC of
    the box with the source aspect kept; the center, uniform inside the
    box and, for a full body, outside its central region.
    """
    if not all(math.isfinite(v) for v in (person.x, person.y, person.x + person.w,
                                           person.y + person.h, person.area)):
        raise GeometryError(f"cannot plan a paste on person box {person.x}, "
                            f"{person.y}, {person.w}x{person.h}: its corners or "
                            f"area are not finite")
    pool = _pool(inventory, kind)
    if not pool:
        group = "object" if kind == CUTOUT_OBJECT else "person"
        raise InventoryError(f"inventory has no {group} cutouts")
    idx = int(rng.integers(len(pool)))
    cut = pool[idx]
    src_rect = None
    ref_w, ref_h = cut.raster.width, cut.raster.height
    if kind == CUTOUT_BODY_PART:
        src_rect = _body_part_rect(rng, cut)
        ref_w, ref_h = src_rect[2:]
    lo, hi = AREA_FRAC
    target = rng.uniform(lo, hi) * person.area
    dst_w, dst_h = _snap_dims(target, ref_w, ref_h, lo * person.area,
                              hi * person.area)
    dst_x, dst_y = _sample_center_roundtrip(rng, person, dst_w, dst_h,
                                            kind == CUTOUT_FULL_BODY)
    return Placement(idx, kind, dst_x, dst_y, dst_w, dst_h, src_rect)


# the codes of the keypoints that a paste can occlude
_OCCLUDABLE = np.zeros(len(VISIBILITY_ORDER), dtype=bool)
_OCCLUDABLE[[CODE_VISIBLE, CODE_SELF_OCCLUDED]] = True


@dataclass(frozen=True)
class FlagChange:
    person_index: int
    keypoint_index: int
    old: Visibility
    new: Visibility

    def to_json(self) -> dict:
        return {"person_index": self.person_index, "keypoint_index": self.keypoint_index,
                "old": self.old.value, "new": self.new.value}


@dataclass
class AugmentResult:
    image: RasterImage
    record: ImageRecord
    placements: list[Placement]
    flag_changes: list[FlagChange]
    painted: np.ndarray  # (H, W) bool, union of composited opaque pixels


def _cutout_for(placement: Placement, inventory: CutoutInventory) -> Cutout:
    cut = _pool(inventory, placement.kind)[placement.cutout_index]
    if placement.src_rect is None:
        return cut
    px, py, pw, ph = placement.src_rect
    part = cut.raster.pixels[py:py + ph, px:px + pw]
    return Cutout(raster=RasterImage(part.copy()),
                  src_bbox=BBox(float(px), float(py), float(pw), float(ph)),
                  kind=CUTOUT_BODY_PART)


def apply_augmentation(rng: np.random.Generator, image: RasterImage,
                       record: ImageRecord, target_person_index: int,
                       config: AugmentConfig,
                       inventory: CutoutInventory) -> AugmentResult:
    """Paste planned cutouts over the target person and update flags.

    "And" methods apply both sub-methods, "or" methods exactly one (the
    person-based branch wins a draw with probability OR_PROBABILITY). Any
    keypoint of any person whose floor pixel lands on a pasted pixel moves
    Visible/SelfOccluded -> Occluded; Occluded and Unlabeled stay put.
    Inputs are left unchanged.
    """
    if not 0 <= target_person_index < len(record.persons):
        raise ConfigError(f"target person index {target_person_index} out of range")
    person_bbox = record.persons[target_person_index].bbox
    kinds, either = _METHOD_PLANS[config.method]
    if either:
        kinds = kinds[:1] if rng.random() < OR_PROBABILITY else kinds[1:]
    placements = [plan_cutout(rng, kind, person_bbox, inventory) for kind in kinds]

    out = image
    painted = np.zeros((image.height, image.width), dtype=bool)
    for placement in placements:
        cut = _cutout_for(placement, inventory)
        out, mask = composite_with_mask(out, cut, placement.dst_x, placement.dst_y,
                                        placement.dst_w, placement.dst_h)
        painted |= mask

    xy, codes, offsets = gather_keypoints(record.persons)
    x, y = xy[:, 0], xy[:, 1]
    # compared as floats: a NaN or infinite coordinate is off the image
    rows = np.flatnonzero(_OCCLUDABLE[codes] & (0 <= x) & (x < image.width) &
                          (0 <= y) & (y < image.height))
    rows = rows[painted[np.floor(y[rows]).astype(np.intp),
                        np.floor(x[rows]).astype(np.intp)]]
    owners = np.searchsorted(offsets, rows, side="right") - 1
    changes = [FlagChange(pi, k, VISIBILITY_ORDER[code], Visibility.OCCLUDED)
               for pi, k, code in zip(owners.tolist(), (rows - offsets[owners]).tolist(),
                                      codes[rows].tolist())]
    codes[rows] = CODE_OCCLUDED
    # no writeable view of the new codes is left: changed poses keep views
    codes.flags.writeable = False
    changed = set(owners.tolist())
    new_persons = tuple(
        replace(person, pose=Pose._of(person.pose.schema, person.pose.xy,
                                      codes[offsets[pi]:offsets[pi + 1]]))
        if pi in changed else person
        for pi, person in enumerate(record.persons))
    new_record = replace(record, persons=new_persons)
    return AugmentResult(image=out, record=new_record, placements=placements,
                         flag_changes=changes, painted=painted)


# --- inventory directory layout: inventory.json + one PAM per cutout ---

def save_inventory(directory: Path, inventory: CutoutInventory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = {"objects": [], "persons": []}
    for group, cutouts in (("objects", inventory.objects), ("persons", inventory.persons)):
        for i, cut in enumerate(cutouts):
            name = f"{group[:-1]}_{i:04d}.pam"
            (directory / name).write_bytes(write_pam(cut.raster))
            entry = {
                "pam": name, "kind": cut.kind,
                "src_bbox": [cut.src_bbox.x, cut.src_bbox.y, cut.src_bbox.w,
                             cut.src_bbox.h],
                "keypoints": None if cut.keypoints is None else
                             [[k.x, k.y, k.vis.value] for k in cut.keypoints],
            }
            index[group].append(entry)
    (directory / "inventory.json").write_text(
        json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_inventory(directory: Path) -> CutoutInventory:
    """Read an inventory directory. Malformed JSON, an index of the wrong
    shape or an unreadable cutout file raise InventoryError."""
    directory = Path(directory)
    index_path = directory / "inventory.json"
    if not index_path.is_file():
        raise InventoryError(f"no inventory.json under {directory}")
    inventory = CutoutInventory()
    try:
        index = json.loads(index_path.read_text(encoding="utf-8"))
        for group, target in (("objects", inventory.objects),
                              ("persons", inventory.persons)):
            for entry in index.get(group, []):
                raster = read_pam((directory / entry["pam"]).read_bytes())
                kps = None
                if entry.get("keypoints") is not None:
                    kps = tuple([Keypoint(float(x), float(y), VISIBILITY_BY_TAG[v])
                                 for x, y, v in entry["keypoints"]])
                bx, by, bw, bh = entry["src_bbox"]
                target.append(Cutout(raster=raster, src_bbox=BBox(bx, by, bw, bh),
                                     kind=entry["kind"], keypoints=kps))
    except (AttributeError, KeyError, OSError, OverflowError, TypeError,
            ValueError) as exc:
        raise InventoryError(f"{index_path} is malformed "
                             f"({type(exc).__name__}: {exc})") from exc
    return inventory
