"""Canonical pose annotation model and dataset parsers.

The canonical model is a 4-state visibility flag per keypoint plus boxes,
optional segmentation and scores, grouped per image. Three JSON input
flavors are supported: COCO-like (``images``/``annotations`` arrays),
JTA-like (per-frame arrays with occluded/self-occluded flag pairs) and the
toolkit's own self-describing native format.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .errors import MappingError, ParseError, SchemaError


class Visibility(str, enum.Enum):
    VISIBLE = "visible"
    OCCLUDED = "occluded"
    SELF_OCCLUDED = "self_occluded"
    UNLABELED = "unlabeled"


# Visibility by its tag string; parsers look tags up here rather than
# calling Visibility(tag) once per keypoint.
VISIBILITY_BY_TAG = {v.value: v for v in Visibility}


# COCO keypoint visibility codes. Code 1 ("labeled but not visible") maps
# to OCCLUDED, the closest semantic match to JTA's occluded flag.
COCO_VISIBILITY = {2: Visibility.VISIBLE, 1: Visibility.OCCLUDED, 0: Visibility.UNLABELED}


def jta_flags_to_visibility(occluded: bool, self_occluded: bool) -> Visibility:
    """Map a JTA (occluded, self_occluded) flag pair to one visibility tag.

    Occlusion by another entity dominates: when both flags are set the
    keypoint counts as occluded.
    """
    if occluded:
        return Visibility.OCCLUDED
    if self_occluded:
        return Visibility.SELF_OCCLUDED
    return Visibility.VISIBLE


# Invalid states (zero-size boxes, wrong pose lengths, ...) stay
# representable so that validate() can report them; parsers reject what is
# structurally impossible, validate() audits the rest.
@dataclass(frozen=True)
class Keypoint:
    x: float
    y: float
    vis: Visibility

    @property
    def labeled(self) -> bool:
        return self.vis is not Visibility.UNLABELED


@dataclass(frozen=True)
class PoseSchema:
    name: str
    keypoint_names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.keypoint_names)) != len(self.keypoint_names):
            raise SchemaError(f"duplicate keypoint names in schema {self.name!r}")

    @property
    def count(self) -> int:
        return len(self.keypoint_names)


CROWDPOSE_SCHEMA = PoseSchema(
    "crowdpose",
    (
        "left_shoulder",
        "right_shoulder",
        "left_elbow",
        "right_elbow",
        "left_wrist",
        "right_wrist",
        "left_hip",
        "right_hip",
        "left_knee",
        "right_knee",
        "left_ankle",
        "right_ankle",
        "top_head",
        "neck",
    ),
)

JTA_SCHEMA = PoseSchema(
    "jta",
    (
        "head_top",
        "head_center",
        "neck",
        "right_clavicle",
        "right_shoulder",
        "right_elbow",
        "right_wrist",
        "left_clavicle",
        "left_shoulder",
        "left_elbow",
        "left_wrist",
        "spine0",
        "spine1",
        "spine2",
        "spine3",
        "spine4",
        "right_hip",
        "right_knee",
        "right_ankle",
        "left_hip",
        "left_knee",
        "left_ankle",
    ),
)

# Joint-name aliases between schema vocabularies.
_NAME_ALIASES = {"top_head": "head_top", "head_top": "top_head"}


@dataclass(frozen=True)
class Pose:
    schema: PoseSchema
    keypoints: tuple[Keypoint, ...]


@dataclass(frozen=True)
class BBox:
    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h

    def contains(self, px: float, py: float) -> bool:
        """Closed-box test: points on the boundary count as inside."""
        return self.x <= px <= self.x + self.w and self.y <= py <= self.y + self.h


@dataclass(frozen=True)
class SegmentMask:
    """Polygon or run-length segmentation geometry.

    RLE runs are column-major and alternate background/foreground starting
    with background; they must sum to h*w.
    """

    kind: str  # "polygons" | "rle"
    polygons: tuple[tuple[tuple[float, float], ...], ...] = ()
    rle_size: Optional[tuple[int, int]] = None  # (h, w)
    rle_counts: tuple[int, ...] = ()


@dataclass(frozen=True)
class PersonInstance:
    bbox: BBox
    pose: Pose
    segmentation: Optional[SegmentMask] = None
    score: Optional[float] = None
    track_id: Optional[int] = None


@dataclass(frozen=True)
class ImageRecord:
    id: str
    width: int
    height: int
    persons: tuple[PersonInstance, ...] = ()
    source: Optional[str] = None


@dataclass(frozen=True)
class Dataset:
    schema: PoseSchema
    images: tuple[ImageRecord, ...] = ()
    meta: dict = field(default_factory=dict)


NATIVE_FORMAT_TAG = "crowdpose-kit/dataset@1"

_BUILTIN_SCHEMAS = {s.count: s for s in (CROWDPOSE_SCHEMA, JTA_SCHEMA)}


def _json_load(data: bytes):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}", offset=exc.start) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        byte_offset = len(text[: exc.pos].encode("utf-8"))
        raise ParseError(f"invalid JSON: {exc.msg}", offset=byte_offset) from exc


def _schema_for_count(count: int) -> PoseSchema:
    schema = _BUILTIN_SCHEMAS.get(count)
    if schema is None:
        raise SchemaError(f"unknown keypoint count {count}; expected one of "
                          f"{sorted(_BUILTIN_SCHEMAS)}")
    return schema


def _segmentation_from_json(obj) -> Optional[SegmentMask]:
    if obj is None:
        return None
    # COCO polygon style: list of flat coordinate lists.
    if isinstance(obj, list):
        polys = []
        for flat in obj:
            pts = tuple((float(flat[i]), float(flat[i + 1])) for i in range(0, len(flat), 2))
            polys.append(pts)
        return SegmentMask(kind="polygons", polygons=tuple(polys))
    if isinstance(obj, dict):
        if obj.get("kind") == "polygons" or "polygons" in obj and "counts" not in obj:
            polys = tuple(
                tuple((float(x), float(y)) for x, y in poly) for poly in obj["polygons"]
            )
            return SegmentMask(kind="polygons", polygons=polys)
        if "counts" in obj:
            h, w = obj["size"]
            return SegmentMask(kind="rle", rle_size=(int(h), int(w)),
                               rle_counts=tuple(int(c) for c in obj["counts"]))
    raise ParseError(f"unrecognized segmentation payload: {type(obj).__name__}")


def _segmentation_to_json(seg: Optional[SegmentMask]):
    if seg is None:
        return None
    if seg.kind == "polygons":
        return {"kind": "polygons",
                "polygons": [[[float(x), float(y)] for x, y in poly] for poly in seg.polygons]}
    return {"kind": "rle", "size": list(seg.rle_size), "counts": list(seg.rle_counts)}


def _parse_coco_like(doc) -> Dataset:
    categories = doc.get("categories") or []
    schema = None
    if categories and categories[0].get("keypoints"):
        names = tuple(str(n) for n in categories[0]["keypoints"])
        schema = PoseSchema(str(categories[0].get("name", "coco")), names)

    images = {}
    order = []
    for img in doc.get("images", []):
        img_id = str(img["id"])
        images[img_id] = (img, [])
        order.append(img_id)

    for ann in doc.get("annotations", []):
        img_id = str(ann["image_id"])
        if img_id not in images:
            raise ParseError(f"annotation references unknown image id {img_id!r}")
        flat = ann["keypoints"]
        if len(flat) % 3 != 0:
            raise ParseError("keypoints array length is not a multiple of 3")
        count = len(flat) // 3
        if schema is None:
            schema = _schema_for_count(count)
        elif count != schema.count:
            raise SchemaError(f"annotation has {count} keypoints, schema "
                              f"{schema.name!r} expects {schema.count}")
        kps = []
        for i in range(count):
            x, y, v = flat[3 * i], flat[3 * i + 1], flat[3 * i + 2]
            vis = COCO_VISIBILITY.get(int(v))
            if vis is None:
                raise ParseError(f"unknown COCO visibility code {v}")
            if vis is Visibility.UNLABELED:
                kps.append(Keypoint(0.0, 0.0, vis))
            else:
                kps.append(Keypoint(float(x), float(y), vis))
        bx, by, bw, bh = (float(v) for v in ann["bbox"])
        score = ann.get("score")
        person = PersonInstance(
            bbox=BBox(bx, by, bw, bh),
            pose=Pose(schema, tuple(kps)),
            segmentation=_segmentation_from_json(ann.get("segmentation")),
            score=None if score is None else float(score),
            track_id=None if ann.get("track_id") is None else int(ann["track_id"]),
        )
        images[img_id][1].append(person)

    if schema is None:
        schema = CROWDPOSE_SCHEMA
    records = []
    for img_id in order:
        img, persons = images[img_id]
        records.append(ImageRecord(
            id=img_id,
            width=int(img["width"]),
            height=int(img["height"]),
            persons=tuple(persons),
            source=img.get("file_name"),
        ))
    return Dataset(schema=schema, images=tuple(records), meta={})


def _parse_jta_like(doc) -> Dataset:
    schema = JTA_SCHEMA
    records = []
    for frame in doc.get("frames", []):
        persons = []
        for entry in frame.get("people", []):
            kps = []
            rows = entry["keypoints"]
            if len(rows) != schema.count:
                raise SchemaError(f"JTA person has {len(rows)} keypoints, expected "
                                  f"{schema.count}")
            for row in rows:
                x, y, occ, self_occ = row
                kps.append(Keypoint(float(x), float(y),
                                    jta_flags_to_visibility(bool(occ), bool(self_occ))))
            if "bbox" in entry and entry["bbox"] is not None:
                bx, by, bw, bh = (float(v) for v in entry["bbox"])
            else:
                xs = [k.x for k in kps]
                ys = [k.y for k in kps]
                bx, by = min(xs), min(ys)
                bw = max(max(xs) - bx, 1.0)
                bh = max(max(ys) - by, 1.0)
            persons.append(PersonInstance(
                bbox=BBox(bx, by, bw, bh),
                pose=Pose(schema, tuple(kps)),
                track_id=None if entry.get("track_id") is None else int(entry["track_id"]),
            ))
        records.append(ImageRecord(
            id=str(frame["id"]),
            width=int(frame["width"]),
            height=int(frame["height"]),
            persons=tuple(persons),
            source=frame.get("source"),
        ))
    return Dataset(schema=schema, images=tuple(records), meta={})


def _parse_native(doc) -> Dataset:
    if doc.get("format") != NATIVE_FORMAT_TAG:
        raise ParseError(f"not a native dataset document (format tag "
                         f"{doc.get('format')!r})")
    sblock = doc["schema"]
    schema = PoseSchema(str(sblock["name"]), tuple(str(n) for n in sblock["keypoint_names"]))
    records = []
    for img in doc["images"]:
        persons = []
        for p in img["persons"]:
            rows = p["keypoints"]
            try:
                kps = tuple([Keypoint(float(x), float(y), VISIBILITY_BY_TAG[v])
                             for x, y, v in rows])
            except KeyError as exc:  # rows is bound, so only a tag can be missing
                raise ParseError(f"unknown keypoint visibility tag {exc.args[0]!r}; "
                                 f"expected one of {sorted(VISIBILITY_BY_TAG)}") from exc
            bx, by, bw, bh = map(float, p["bbox"])
            persons.append(PersonInstance(
                bbox=BBox(bx, by, bw, bh),
                pose=Pose(schema, kps),
                segmentation=_segmentation_from_json(p.get("segmentation")),
                score=None if p.get("score") is None else float(p["score"]),
                track_id=None if p.get("track_id") is None else int(p["track_id"]),
            ))
        records.append(ImageRecord(
            id=str(img["id"]),
            width=int(img["width"]),
            height=int(img["height"]),
            persons=tuple(persons),
            source=img.get("source"),
        ))
    return Dataset(schema=schema, images=tuple(records), meta=dict(doc.get("meta", {})))


_PARSERS = {"coco_like": _parse_coco_like, "jta_like": _parse_jta_like, "native": _parse_native}


def parse_dataset(data: bytes, format: str) -> Dataset:
    """Parse a JSON byte stream in the declared format into the canonical model.

    Raises ParseError (with byte offset for malformed JSON, or for a document
    of the wrong shape: a missing key, a value of the wrong type, a short
    keypoint row) or SchemaError.
    """
    if format not in _PARSERS:
        raise ParseError(f"unknown dataset format {format!r}; expected one of "
                         f"{sorted(_PARSERS)}")
    doc = _json_load(data)
    try:
        return _PARSERS[format](doc)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ParseError(f"{format} document has the wrong shape "
                         f"({type(exc).__name__}: {exc})") from exc


def serialize_dataset(dataset: Dataset) -> bytes:
    """Serialize to the native format. Deterministic: equal datasets give equal bytes."""
    doc = {
        "format": NATIVE_FORMAT_TAG,
        "schema": {"name": dataset.schema.name,
                   "keypoint_names": list(dataset.schema.keypoint_names)},
        "meta": dataset.meta,
        "images": [
            {
                "id": img.id,
                "width": img.width,
                "height": img.height,
                "source": img.source,
                "persons": [
                    {
                        "bbox": [p.bbox.x, p.bbox.y, p.bbox.w, p.bbox.h],
                        "score": p.score,
                        "track_id": p.track_id,
                        "segmentation": _segmentation_to_json(p.segmentation),
                        "keypoints": [[k.x, k.y, k.vis.value] for k in p.pose.keypoints],
                    }
                    for p in img.persons
                ],
            }
            for img in dataset.images
        ],
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def default_jta_to_crowdpose_mapping() -> tuple[int, ...]:
    """JTA source index for each CrowdPose keypoint, derived by joint-name matching."""
    indices = []
    for name in CROWDPOSE_SCHEMA.keypoint_names:
        candidates = (name, _NAME_ALIASES.get(name))
        for cand in candidates:
            if cand in JTA_SCHEMA.keypoint_names:
                indices.append(JTA_SCHEMA.keypoint_names.index(cand))
                break
        else:
            raise MappingError(f"no JTA joint matches CrowdPose joint {name!r}")
    return tuple(indices)


def convert_jta_to_crowdpose(pose: Pose, mapping: Optional[Sequence[int]] = None) -> Pose:
    """Reorder and discard JTA keypoints into the 14-keypoint CrowdPose layout.

    Output keypoint k is the input keypoint mapping[k], coordinates and
    visibility untouched.
    """
    if pose.schema.count != JTA_SCHEMA.count:
        raise SchemaError(f"expected a {JTA_SCHEMA.count}-keypoint pose, got "
                          f"{pose.schema.count}")
    if mapping is None:
        mapping = default_jta_to_crowdpose_mapping()
    mapping = tuple(int(i) for i in mapping)
    if len(mapping) != CROWDPOSE_SCHEMA.count:
        raise MappingError(f"mapping must have {CROWDPOSE_SCHEMA.count} entries, got "
                           f"{len(mapping)}")
    if len(set(mapping)) != len(mapping):
        raise MappingError("mapping entries must be distinct")
    for idx in mapping:
        if not 0 <= idx < pose.schema.count:
            raise MappingError(f"mapping index {idx} out of range [0, {pose.schema.count})")
    return Pose(CROWDPOSE_SCHEMA, tuple(pose.keypoints[i] for i in mapping))


def convert_dataset_jta_to_crowdpose(dataset: Dataset,
                                     mapping: Optional[Sequence[int]] = None) -> Dataset:
    """Apply convert_jta_to_crowdpose to every person of every image."""
    images = []
    for img in dataset.images:
        persons = tuple(
            replace(p, pose=convert_jta_to_crowdpose(p.pose, mapping)) for p in img.persons
        )
        images.append(replace(img, persons=persons))
    return Dataset(schema=CROWDPOSE_SCHEMA, images=tuple(images), meta=dict(dataset.meta))


@dataclass(frozen=True)
class Violation:
    image_id: str
    person_index: Optional[int]
    kind: str
    detail: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "counts": self.counts,
            "violations": [
                {"image_id": v.image_id, "person_index": v.person_index,
                 "kind": v.kind, "detail": v.detail}
                for v in self.violations
            ],
        }


def validate(dataset: Dataset) -> ValidationReport:
    """Report every invariant violation; the dataset itself is left untouched.

    Checked invariants: positive bbox area, pose length matching the dataset
    schema, finite coordinates on labeled keypoints, scores in [0, 1], RLE
    run sums, and polygon vertex counts.
    """
    report = ValidationReport()

    def add(img_id, person_idx, kind, detail):
        report.violations.append(Violation(img_id, person_idx, kind, detail))

    seen_ids = set()
    for img in dataset.images:
        if img.id in seen_ids:
            add(img.id, None, "duplicate_image_id", f"image id {img.id!r} repeats")
        seen_ids.add(img.id)
        for pi, person in enumerate(img.persons):
            if not (person.bbox.w > 0 and person.bbox.h > 0):
                add(img.id, pi, "degenerate_bbox",
                    f"bbox {person.bbox.w}x{person.bbox.h}")
            if person.pose.schema.count != dataset.schema.count or \
                    len(person.pose.keypoints) != dataset.schema.count:
                add(img.id, pi, "schema_mismatch",
                    f"pose length {len(person.pose.keypoints)} vs schema "
                    f"{dataset.schema.count}")
            for ki, kp in enumerate(person.pose.keypoints):
                if kp.vis is not Visibility.UNLABELED and not (
                        math.isfinite(kp.x) and math.isfinite(kp.y)):
                    add(img.id, pi, "nonfinite_coordinate", f"keypoint {ki}")
            if person.score is not None and not (0.0 <= person.score <= 1.0):
                add(img.id, pi, "score_out_of_range", f"score {person.score}")
            seg = person.segmentation
            if seg is not None:
                if seg.kind == "polygons":
                    for poly in seg.polygons:
                        if len(poly) < 3:
                            add(img.id, pi, "degenerate_polygon",
                                f"{len(poly)} vertices")
                elif seg.kind == "rle":
                    h, w = seg.rle_size
                    if sum(seg.rle_counts) != h * w:
                        add(img.id, pi, "rle_sum_mismatch",
                            f"runs sum to {sum(seg.rle_counts)}, expected {h * w}")
    return report
