"""Canonical pose annotation model and dataset parsers.

The canonical model is a 4-state visibility flag per keypoint plus boxes,
optional segmentation and scores, grouped per image. A pose holds its
keypoints as two read-only arrays: (K, 2) coordinates and (K,) visibility
codes. Three JSON input formats are supported, named as the CLI names them:
"coco" (``images``/``annotations`` arrays), "jta" (per-frame arrays with
occluded/self-occluded flag pairs) and the toolkit's own self-describing
"native" format. COCO and JTA documents are read as native image objects,
their own vocabularies (COCO visibility codes, polygon lists and bare RLE,
JTA flag pairs) translated where their parsers read them, and one builder
turns the image objects of any document into records, converting the
keypoints of the whole document to arrays at once.
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


# The tags in code order. A pose stores each keypoint's tag as its code, the
# tag's index here: the parsers map tags to codes, the serializer codes to
# tags, and a foreign format's vocabulary becomes tags where it is parsed.
TAGS = tuple(v.value for v in Visibility)
CODE_VISIBLE, CODE_OCCLUDED, CODE_SELF_OCCLUDED, CODE_UNLABELED = range(len(TAGS))
_CODE_BY_TAG = {tag: code for code, tag in enumerate(TAGS)}
VISIBILITY_ORDER = tuple(Visibility)  # the member of each code


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

@dataclass(frozen=True, init=False)
class Pose:
    """K keypoints as two read-only arrays: `xy`, (K, 2) float64
    coordinates, and `codes`, (K,) int8 indices into TAGS.

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
        codes = np.array([_CODE_BY_TAG[k.vis] for k in kps], dtype=np.int8)
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
        return [[x, y, TAGS[c]]
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
    """Image records under one schema, each id once: every parser and
    builder makes one, and ParseError names the first id that repeats."""
    schema: PoseSchema
    images: tuple[ImageRecord, ...] = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for img in self.images:
            if img.id in seen:
                raise ParseError(f"image id {img.id!r} repeats")
            seen.add(img.id)


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
    except RecursionError as exc:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from exc


def _schema_for_count(count: int) -> PoseSchema:
    schema = _BUILTIN_SCHEMAS.get(count)
    if schema is None:
        raise SchemaError(f"unknown keypoint count {count}; expected one of "
                          f"{sorted(_BUILTIN_SCHEMAS)}")
    return schema


def _segmentation_from_json(obj) -> Optional[SegmentMask]:
    """A native segmentation, {"kind": "polygons", "polygons": [[[x, y], ...],
    ...]} or {"kind": "rle", "size": [h, w], "counts": [...]}, or None."""
    if obj is None:
        return None
    kind = obj["kind"]
    if kind == "polygons":
        return SegmentMask(kind="polygons", polygons=tuple(
            tuple((float(x), float(y)) for x, y in poly) for poly in obj["polygons"]))
    if kind == "rle":
        h, w = obj["size"]
        return SegmentMask(kind="rle", rle_size=(int(h), int(w)),
                           rle_counts=tuple(int(c) for c in obj["counts"]))
    raise ParseError(f"unknown segmentation kind {kind!r}; expected 'polygons' or 'rle'")


def _segmentation_to_json(seg: Optional[SegmentMask]):
    if seg is None:
        return None
    if seg.kind == "polygons":
        return {"kind": "polygons",
                "polygons": [[[float(x), float(y)] for x, y in poly] for poly in seg.polygons]}
    return {"kind": "rle", "size": list(seg.rle_size), "counts": list(seg.rle_counts)}


def _poses(schema: PoseSchema, rows: list, ends: list[int]) -> list[Pose]:
    """The poses over keypoint rows [x, y, tag] gathered in order, pose i
    ending at row ends[i]; each holds read-only views of one coordinate
    array and one code array. A row that is not a triple, a coordinate that
    float() refuses or an unknown tag raises."""
    if set(map(len, rows)) - {3}:
        raise ParseError("a keypoint row is not an [x, y, tag] triple")
    # one flat list, not zip(*rows): zip would hold an iterator per row
    flat = list(itertools.chain.from_iterable(rows))
    xy = np.empty((len(rows), 2), dtype=np.float64)
    xy[:, 0] = list(map(float, flat[0::3]))
    xy[:, 1] = list(map(float, flat[1::3]))
    try:
        codes = np.array(list(map(_CODE_BY_TAG.__getitem__, flat[2::3])), dtype=np.int8)
    except KeyError as exc:
        raise ParseError(f"unknown keypoint visibility tag {exc.args[0]!r}; "
                         f"expected one of {sorted(_CODE_BY_TAG)}") from exc
    xy.flags.writeable = codes.flags.writeable = False
    return [Pose._of(schema, xy[start:end], codes[start:end])
            for start, end in zip([0] + ends, ends)]


def _records(schema: PoseSchema, images: Sequence) -> tuple[ImageRecord, ...]:
    """Image records from native image objects, {"id", "width", "height",
    "source", "persons"}, each person {"keypoints": [[x, y, tag], ...],
    "bbox", "segmentation", "score", "track_id"}. The keypoints of every
    person are converted at once, before any other member is read."""
    rows, ends = [], []
    for img in images:
        for p in img["persons"]:
            rows += p["keypoints"]
            ends.append(len(rows))
    poses = iter(_poses(schema, rows, ends))
    return tuple(
        ImageRecord(id=str(img["id"]), width=int(img["width"]), height=int(img["height"]),
                    source=img.get("source"), persons=tuple(
                        PersonInstance(BBox(*map(float, p["bbox"])), next(poses),
                                       _segmentation_from_json(p.get("segmentation")),
                                       None if p.get("score") is None else float(p["score"]),
                                       None if p.get("track_id") is None else int(p["track_id"]))
                        for p in img["persons"]))
        for img in images)


# COCO keypoint visibility code -> tag. Code 1 ("labeled but not visible")
# maps to occluded, the closest semantic match to JTA's occluded flag.
_COCO_TAGS = {2: "visible", 1: "occluded", 0: "unlabeled"}


def _parse_coco_like(doc) -> Dataset:
    categories = doc.get("categories") or []
    schema = None
    if categories and categories[0].get("keypoints"):
        names = tuple(str(n) for n in categories[0]["keypoints"])
        schema = PoseSchema(str(categories[0].get("name", "coco")), names)

    # natives in document order, so that a repeated id reaches Dataset
    natives, persons_of = [], {}
    for img in doc.get("images", []):
        persons_of[str(img["id"])] = persons = []
        natives.append({"id": str(img["id"]), "width": img["width"], "height": img["height"],
                        "source": img.get("file_name"), "persons": persons})

    for ann in doc.get("annotations", []):
        img_id = str(ann["image_id"])
        if img_id not in persons_of:
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
        for x, y, v in zip(flat[0::3], flat[1::3], flat[2::3]):
            tag = _COCO_TAGS.get(int(v))
            if tag is None:
                raise ParseError(f"unknown COCO visibility code {v}")
            # an unlabeled keypoint's coordinates are zeroed, never read
            rows.append([0.0, 0.0, tag] if tag == "unlabeled" else [x, y, tag])
        seg = ann.get("segmentation")
        if isinstance(seg, list):  # flat [x0, y0, x1, y1, ...] polygons
            seg = {"kind": "polygons", "polygons": [
                [[poly[i], poly[i + 1]] for i in range(0, len(poly), 2)] for poly in seg]}
        elif seg is not None:  # a bare {"size", "counts"} RLE
            seg = {"kind": "rle", "size": seg["size"], "counts": seg["counts"]}
        persons_of[img_id].append({"keypoints": rows, "bbox": ann["bbox"], "segmentation": seg,
                                   "score": ann.get("score"), "track_id": ann.get("track_id")})

    schema = schema or CROWDPOSE_SCHEMA
    return Dataset(schema=schema, images=_records(schema, natives), meta={})


def _parse_jta_like(doc) -> Dataset:
    images = []
    for frame in doc.get("frames", []):
        persons = []
        for entry in frame.get("people", []):
            rows = entry["keypoints"]
            if len(rows) != JTA_SCHEMA.count:
                raise SchemaError(f"JTA person has {len(rows)} keypoints, expected "
                                  f"{JTA_SCHEMA.count}")
            # occlusion by another entity dominates self-occlusion
            rows = [[x, y, "occluded" if occ else "self_occluded" if self_occ else "visible"]
                    for x, y, occ, self_occ in rows]
            bbox = entry.get("bbox")
            if bbox is None:  # the keypoints' extent, at least 1 x 1
                xs = [float(row[0]) for row in rows]
                ys = [float(row[1]) for row in rows]
                bbox = [min(xs), min(ys), max(max(xs) - min(xs), 1.0),
                        max(max(ys) - min(ys), 1.0)]
            persons.append({"keypoints": rows, "bbox": bbox, "track_id": entry.get("track_id")})
        images.append({"id": frame["id"], "width": frame["width"], "height": frame["height"],
                       "source": frame.get("source"), "persons": persons})
    return Dataset(schema=JTA_SCHEMA, images=_records(JTA_SCHEMA, images), meta={})


def _parse_native(doc) -> Dataset:
    if doc.get("format") != NATIVE_FORMAT_TAG:
        raise ParseError(f"not a native dataset document (format tag "
                         f"{doc.get('format')!r})")
    sblock = doc["schema"]
    schema = PoseSchema(str(sblock["name"]), tuple(str(n) for n in sblock["keypoint_names"]))
    return Dataset(schema=schema, images=_records(schema, doc["images"]),
                   meta=dict(doc.get("meta", {})))


_PARSERS = {"coco": _parse_coco_like, "jta": _parse_jta_like, "native": _parse_native}


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


# JTA source index of each CrowdPose keypoint, matched by joint name; JTA
# names the top of the head "head_top".
_JTA_TO_CROWDPOSE = tuple(JTA_SCHEMA.keypoint_names.index(
    "head_top" if name == "top_head" else name) for name in CROWDPOSE_SCHEMA.keypoint_names)


def default_jta_to_crowdpose_mapping() -> tuple[int, ...]:
    """JTA source index for each CrowdPose keypoint, matched by joint name."""
    return _JTA_TO_CROWDPOSE


def _jta_mapping(mapping: Optional[Sequence[int]]) -> list[int]:
    """`mapping` as a list of ints, or the default one when it is None;
    MappingError unless it names 14 distinct JTA keypoints."""
    if mapping is None:
        mapping = default_jta_to_crowdpose_mapping()
    mapping = [int(i) for i in mapping]
    if len(mapping) != CROWDPOSE_SCHEMA.count:
        raise MappingError(f"mapping must have {CROWDPOSE_SCHEMA.count} entries, got "
                           f"{len(mapping)}")
    if len(set(mapping)) != len(mapping):
        raise MappingError("mapping entries must be distinct")
    for idx in mapping:
        if not 0 <= idx < JTA_SCHEMA.count:
            raise MappingError(f"mapping index {idx} out of range [0, {JTA_SCHEMA.count})")
    return mapping


def convert_jta_to_crowdpose(pose: Pose, mapping: Optional[Sequence[int]] = None) -> Pose:
    """Reorder and discard JTA keypoints into the 14-keypoint CrowdPose layout.

    Output keypoint k is the input keypoint mapping[k], coordinates and
    visibility untouched.
    """
    if pose.schema.count != JTA_SCHEMA.count or len(pose.codes) != JTA_SCHEMA.count:
        raise SchemaError(f"expected a {JTA_SCHEMA.count}-keypoint pose, got "
                          f"{len(pose.codes)} keypoints of schema {pose.schema.name!r}")
    mapping = _jta_mapping(mapping)
    return Pose.from_arrays(CROWDPOSE_SCHEMA, pose.xy[mapping], pose.codes[mapping])


def convert_dataset_jta_to_crowdpose(dataset: Dataset,
                                     mapping: Optional[Sequence[int]] = None) -> Dataset:
    """Apply convert_jta_to_crowdpose to every person of every image. The
    mapping is checked once, before any person is looked at."""
    mapping = _jta_mapping(mapping)
    images = tuple(
        replace(img, persons=tuple(replace(p, pose=convert_jta_to_crowdpose(p.pose, mapping))
                                   for p in img.persons))
        for img in dataset.images)
    return Dataset(schema=CROWDPOSE_SCHEMA, images=images, meta=dict(dataset.meta))


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
    ordinal = 0
    for img in dataset.images:
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
