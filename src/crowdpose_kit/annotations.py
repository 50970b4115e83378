"""Canonical pose annotation model and dataset parsers.

The canonical model is a 4-state visibility flag per keypoint plus boxes,
optional segmentation and scores, grouped per image. A pose holds its
keypoints as two read-only arrays: (K, 2) coordinates and (K,) visibility
codes. Three JSON input flavors are supported: COCO-like
(``images``/``annotations`` arrays), JTA-like (per-frame arrays with
occluded/self-occluded flag pairs) and the toolkit's own self-describing
native format. Each parser gathers the keypoints of the whole document and
converts them to arrays at once.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import MappingError, ParseError, SchemaError


class Visibility(str, enum.Enum):
    VISIBLE = "visible"
    OCCLUDED = "occluded"
    SELF_OCCLUDED = "self_occluded"
    UNLABELED = "unlabeled"


# Visibility by its tag string, looked up rather than calling Visibility(tag)
# once per keypoint.
VISIBILITY_BY_TAG = {v.value: v for v in Visibility}

# A pose stores each keypoint's Visibility as its code: its index in this
# order. The parsers map tag strings to codes, the serializer codes to tags.
VISIBILITY_ORDER = tuple(Visibility)
_CODE_OF = {v: i for i, v in enumerate(VISIBILITY_ORDER)}
_CODE_BY_TAG = {v.value: i for v, i in _CODE_OF.items()}
_TAG_OF_CODE = tuple(v.value for v in VISIBILITY_ORDER)
CODE_VISIBLE = _CODE_OF[Visibility.VISIBLE]
CODE_OCCLUDED = _CODE_OF[Visibility.OCCLUDED]
CODE_SELF_OCCLUDED = _CODE_OF[Visibility.SELF_OCCLUDED]
CODE_UNLABELED = _CODE_OF[Visibility.UNLABELED]


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


@dataclass(frozen=True, init=False)
class Pose:
    """K keypoints as two read-only arrays: `xy`, (K, 2) float64
    coordinates, and `codes`, (K,) int8 indices into VISIBILITY_ORDER.

    Pose(schema, keypoints) builds the arrays from Keypoint objects;
    Pose.from_arrays copies them, so a pose owns its memory and never
    changes after it is built. `keypoints`, a tuple of
    Keypoint, is built from the arrays on first use. Two poses are equal
    when their schemas are and their arrays hold the same bytes: -0.0
    differs from 0.0, and a NaN equals the same NaN.
    """

    schema: PoseSchema
    xy: np.ndarray = field(init=False)
    codes: np.ndarray = field(init=False)

    def __init__(self, schema: PoseSchema, keypoints: Sequence[Keypoint]):
        kps = tuple(keypoints)
        xy = np.array([(k.x, k.y) for k in kps], dtype=np.float64).reshape(len(kps), 2)
        codes = np.array([_CODE_OF[k.vis] for k in kps], dtype=np.int8)
        xy.flags.writeable = codes.flags.writeable = False
        self.__dict__.update(schema=schema, xy=xy, codes=codes)

    @classmethod
    def from_arrays(cls, schema: PoseSchema, xy, codes) -> "Pose":
        """A pose over read-only copies of (K, 2) coordinates and (K,)
        codes: it shares no memory with the arguments."""
        xy, codes = np.array(xy, dtype=np.float64), np.array(codes, dtype=np.int8)
        if codes.ndim != 1 or xy.shape != (len(codes), 2):
            raise ValueError(f"pose arrays of shapes {xy.shape} and {codes.shape}; "
                             f"expected (K, 2) and (K,)")
        xy.flags.writeable = codes.flags.writeable = False
        pose = object.__new__(cls)
        pose.__dict__.update(schema=schema, xy=xy, codes=codes)
        return pose

    @classmethod
    def _of(cls, schema: PoseSchema, xy: np.ndarray, codes: np.ndarray) -> "Pose":
        """A pose over the arrays themselves, for the package's builders:
        float64 (K, 2) and int8 (K,) arrays just made, or views of them,
        frozen, with no writeable array or view left over their memory."""
        pose = object.__new__(cls)
        pose.__dict__.update(schema=schema, xy=xy, codes=codes)
        return pose

    @functools.cached_property
    def keypoints(self) -> tuple[Keypoint, ...]:
        return tuple(Keypoint(x, y, VISIBILITY_ORDER[c])
                     for (x, y), c in zip(self.xy.tolist(), self.codes.tolist()))

    def to_json(self) -> list:
        """[x, y, tag] rows, the native format's keypoints."""
        return [[x, y, _TAG_OF_CODE[c]]
                for (x, y), c in zip(self.xy.tolist(), self.codes.tolist())]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.schema == other.schema
                and self.codes.tobytes() == other.codes.tobytes()
                and self.xy.tobytes() == other.xy.tobytes())

    def __hash__(self):
        return hash((self.schema, self.codes.tobytes(), self.xy.tobytes()))

    def __reduce__(self):
        # unpickled arrays are writeable; from_arrays freezes copies of them
        return Pose.from_arrays, (self.schema, self.xy, self.codes)


class _PoseTable:
    """Keypoint rows [x, y, tag] of many poses, gathered in document order;
    poses() converts them all at once."""

    def __init__(self):
        self.rows: list = []
        self.ends: list[int] = []

    def add(self, rows) -> int:
        """Gather one pose's rows; returns its index."""
        self.rows += rows
        self.ends.append(len(self.rows))
        return len(self.ends) - 1

    def poses(self, schema: PoseSchema) -> list[Pose]:
        """The gathered poses, in order; each holds read-only views of one
        coordinate array and one code array. A row that is not a triple, a
        coordinate that float() refuses or an unknown tag raises."""
        if set(map(len, self.rows)) - {3}:
            raise ParseError("a keypoint row is not an [x, y, tag] triple")
        # one flat list, not zip(*rows): zip would hold an iterator per row
        flat = list(itertools.chain.from_iterable(self.rows))
        xy = np.empty((len(self.rows), 2), dtype=np.float64)
        xy[:, 0] = list(map(float, flat[0::3]))
        xy[:, 1] = list(map(float, flat[1::3]))
        try:
            codes = np.array(list(map(_CODE_BY_TAG.__getitem__, flat[2::3])), dtype=np.int8)
        except KeyError as exc:
            raise ParseError(f"unknown keypoint visibility tag {exc.args[0]!r}; "
                             f"expected one of {sorted(_CODE_BY_TAG)}") from exc
        xy.flags.writeable = codes.flags.writeable = False
        return [Pose._of(schema, xy[start:end], codes[start:end])
                for start, end in zip([0] + self.ends, self.ends)]

    def records(self, schema: PoseSchema, images) -> tuple[ImageRecord, ...]:
        """Image records from (id, width, height, source, persons) tuples,
        each person a (pose index, bbox, segmentation, score, track id)
        tuple."""
        poses = self.poses(schema)
        return tuple(
            ImageRecord(id=img_id, width=width, height=height, source=source,
                        persons=tuple(PersonInstance(bbox, poses[i], seg, score, track)
                                      for i, bbox, seg, score, track in persons))
            for img_id, width, height, source, persons in images)


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


def gather_keypoints(persons: Sequence[PersonInstance]) -> tuple[np.ndarray, ...]:
    """The keypoints of `persons`, in order, as new arrays that the caller
    may write to: (T, 2) coordinates, (T,) codes and N + 1 row offsets;
    person i holds rows offsets[i]:offsets[i + 1]."""
    poses = [p.pose for p in persons]
    offsets = np.fromiter(itertools.accumulate([len(pose.codes) for pose in poses],
                                               initial=0), np.intp, len(poses) + 1)
    # the empty heads give no persons (0, 2) float64 and (0,) int8 arrays
    xy = np.concatenate([np.empty((0, 2))] + [pose.xy for pose in poses])
    codes = np.concatenate([np.empty(0, np.int8)] + [pose.codes for pose in poses])
    return xy, codes, offsets


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

    table = _PoseTable()
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
        rows = []
        for i in range(count):
            x, y, v = flat[3 * i], flat[3 * i + 1], flat[3 * i + 2]
            vis = COCO_VISIBILITY.get(int(v))
            if vis is None:
                raise ParseError(f"unknown COCO visibility code {v}")
            if vis is Visibility.UNLABELED:
                rows.append((0.0, 0.0, vis.value))
            else:
                rows.append((float(x), float(y), vis.value))
        pose = table.add(rows)
        bx, by, bw, bh = (float(v) for v in ann["bbox"])
        score = ann.get("score")
        images[img_id][1].append((
            pose, BBox(bx, by, bw, bh),
            _segmentation_from_json(ann.get("segmentation")),
            None if score is None else float(score),
            None if ann.get("track_id") is None else int(ann["track_id"]),
        ))

    if schema is None:
        schema = CROWDPOSE_SCHEMA
    rows = []
    for img_id in order:
        img, persons = images[img_id]
        rows.append((img_id, int(img["width"]), int(img["height"]), img.get("file_name"),
                     persons))
    return Dataset(schema=schema, images=table.records(schema, rows), meta={})


def _parse_jta_like(doc) -> Dataset:
    schema = JTA_SCHEMA
    table = _PoseTable()
    images = []
    for frame in doc.get("frames", []):
        persons = []
        for entry in frame.get("people", []):
            rows = entry["keypoints"]
            if len(rows) != schema.count:
                raise SchemaError(f"JTA person has {len(rows)} keypoints, expected "
                                  f"{schema.count}")
            kps = []
            for row in rows:
                x, y, occ, self_occ = row
                kps.append((float(x), float(y),
                            jta_flags_to_visibility(bool(occ), bool(self_occ)).value))
            pose = table.add(kps)
            if "bbox" in entry and entry["bbox"] is not None:
                bx, by, bw, bh = (float(v) for v in entry["bbox"])
            else:
                xs = [k[0] for k in kps]
                ys = [k[1] for k in kps]
                bx, by = min(xs), min(ys)
                bw = max(max(xs) - bx, 1.0)
                bh = max(max(ys) - by, 1.0)
            persons.append((
                pose, BBox(bx, by, bw, bh), None, None,
                None if entry.get("track_id") is None else int(entry["track_id"]),
            ))
        images.append((str(frame["id"]), int(frame["width"]), int(frame["height"]),
                       frame.get("source"), persons))
    return Dataset(schema=schema, images=table.records(schema, images), meta={})


def _parse_native(doc) -> Dataset:
    if doc.get("format") != NATIVE_FORMAT_TAG:
        raise ParseError(f"not a native dataset document (format tag "
                         f"{doc.get('format')!r})")
    sblock = doc["schema"]
    schema = PoseSchema(str(sblock["name"]), tuple(str(n) for n in sblock["keypoint_names"]))
    table = _PoseTable()
    images = []
    for img in doc["images"]:
        persons = []
        for p in img["persons"]:
            pose = table.add(p["keypoints"])
            bx, by, bw, bh = map(float, p["bbox"])
            persons.append((
                pose, BBox(bx, by, bw, bh),
                _segmentation_from_json(p.get("segmentation")),
                None if p.get("score") is None else float(p["score"]),
                None if p.get("track_id") is None else int(p["track_id"]),
            ))
        images.append((str(img["id"]), int(img["width"]), int(img["height"]),
                       img.get("source"), persons))
    return Dataset(schema=schema, images=table.records(schema, images),
                   meta=dict(doc.get("meta", {})))


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


def require_schema_lengths(dataset: Dataset) -> Dataset:
    """The dataset itself when every pose has its schema's keypoint count;
    otherwise SchemaError naming the first pose that has not. `validate`
    reports such a pose as `schema_mismatch` instead."""
    count = dataset.schema.count
    for img in dataset.images:
        for pi, person in enumerate(img.persons):
            if len(person.pose.codes) != count:
                raise SchemaError(f"person {pi} of image {img.id!r} has "
                                  f"{len(person.pose.codes)} keypoints; schema "
                                  f"{dataset.schema.name!r} expects {count}")
    return dataset


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def image_json(img: ImageRecord) -> str:
    """One image's entry in a native document's "images" list, as text."""
    return _dumps({
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
                "keypoints": p.pose.to_json(),
            }
            for p in img.persons
        ],
    })


def native_document(schema: PoseSchema, meta: dict, image_entries) -> bytes:
    """A native document from image_json entries: the bytes that one
    json.dumps of the whole document, keys sorted, would give."""
    head = _dumps({"format": NATIVE_FORMAT_TAG})[:-1]
    tail = _dumps({"meta": meta, "schema": {"name": schema.name,
                                             "keypoint_names": list(schema.keypoint_names)}})
    return (f'{head},"images":[{",".join(image_entries)}],{tail[1:]}\n').encode("utf-8")


def serialize_dataset(dataset: Dataset) -> bytes:
    """Serialize to the native format. Deterministic: equal datasets give equal bytes."""
    return native_document(dataset.schema, dataset.meta, map(image_json, dataset.images))


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
    mapping = [int(i) for i in mapping]
    if len(mapping) != CROWDPOSE_SCHEMA.count:
        raise MappingError(f"mapping must have {CROWDPOSE_SCHEMA.count} entries, got "
                           f"{len(mapping)}")
    if len(set(mapping)) != len(mapping):
        raise MappingError("mapping entries must be distinct")
    for idx in mapping:
        if not 0 <= idx < pose.schema.count:
            raise MappingError(f"mapping index {idx} out of range [0, {pose.schema.count})")
    return Pose.from_arrays(CROWDPOSE_SCHEMA, pose.xy[mapping], pose.codes[mapping])


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


def _nonfinite_keypoints(persons: Sequence[PersonInstance]) -> dict[int, list[int]]:
    """Person index -> indices of its labeled keypoints with a non-finite
    coordinate, for the persons that have any; one array pass over all."""
    xy, codes, offsets = gather_keypoints(persons)
    rows = np.flatnonzero((codes != CODE_UNLABELED) & ~np.isfinite(xy).all(axis=1))
    owners = np.searchsorted(offsets, rows, side="right") - 1
    out: dict[int, list[int]] = {}
    for owner, k in zip(owners.tolist(), (rows - offsets[owners]).tolist()):
        out.setdefault(owner, []).append(k)
    return out


def validate(dataset: Dataset) -> ValidationReport:
    """Report every invariant violation; the dataset itself is left untouched.

    Checked invariants: positive bbox area, pose length matching the dataset
    schema, finite coordinates on labeled keypoints, scores in [0, 1], RLE
    run sums, and polygon vertex counts.
    """
    report = ValidationReport()

    def add(img_id, person_idx, kind, detail):
        report.violations.append(Violation(img_id, person_idx, kind, detail))

    nonfinite = _nonfinite_keypoints([p for img in dataset.images for p in img.persons])
    seen_ids = set()
    ordinal = 0
    for img in dataset.images:
        if img.id in seen_ids:
            add(img.id, None, "duplicate_image_id", f"image id {img.id!r} repeats")
        seen_ids.add(img.id)
        for pi, person in enumerate(img.persons):
            if not (person.bbox.w > 0 and person.bbox.h > 0):
                add(img.id, pi, "degenerate_bbox",
                    f"bbox {person.bbox.w}x{person.bbox.h}")
            length = len(person.pose.codes)
            if person.pose.schema.count != dataset.schema.count or \
                    length != dataset.schema.count:
                add(img.id, pi, "schema_mismatch",
                    f"pose length {length} vs schema {dataset.schema.count}")
            for ki in nonfinite.get(ordinal, ()):
                add(img.id, pi, "nonfinite_coordinate", f"keypoint {ki}")
            ordinal += 1
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
