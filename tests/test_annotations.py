import dataclasses
import json
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crowdpose_kit import annotations as anno
from crowdpose_kit.annotations import (CROWDPOSE_SCHEMA, JTA_SCHEMA, BBox, Dataset,
                                       ImageRecord, Keypoint, PersonInstance, Pose,
                                       SegmentMask, Visibility)
from crowdpose_kit.errors import CrowdKitError, MappingError, ParseError, SchemaError

from conftest import make_pose

import oracles


def coco_doc(keypoints, bbox=(5, 5, 40, 60)):
    return {
        "images": [{"id": 1, "width": 100, "height": 100, "file_name": "a.jpg"}],
        "annotations": [{"image_id": 1, "bbox": list(bbox), "keypoints": keypoints}],
        "categories": [{"name": "person",
                        "keypoints": list(CROWDPOSE_SCHEMA.keypoint_names)}],
    }


def jta_doc(rows, frame_id="seq0/f0"):
    return {"frames": [{"id": frame_id, "width": 1920, "height": 1080,
                        "people": [{"track_id": 7, "keypoints": rows}]}]}


def valid_native_doc() -> dict:
    """Two images: a scored person with a polygon mask and one with an RLE mask."""
    pose = make_pose([(float(k), float(k)) for k in range(14)])
    persons = (
        PersonInstance(bbox=BBox(0, 0, 10, 10), pose=pose, score=0.5, track_id=3,
                       segmentation=SegmentMask(kind="polygons",
                                                polygons=(((1.0, 2.0), (8.5, 2.0),
                                                           (5.0, 9.0)),))),
        PersonInstance(bbox=BBox(2, 2, 6, 6), pose=pose,
                       segmentation=SegmentMask(kind="rle", rle_size=(4, 4),
                                                rle_counts=(4, 8, 4))),
    )
    ds = Dataset(schema=CROWDPOSE_SCHEMA, meta={"k": [1, 2]},
                 images=(ImageRecord("a", 20, 20, persons=persons, source="a.pam"),
                         ImageRecord("b", 30, 10)))
    return json.loads(anno.serialize_dataset(ds))


def valid_coco_doc() -> dict:
    """Two images: a scored, tracked person with a polygon-list mask and one
    with an RLE mask and an unlabeled keypoint."""
    flat = [float(v) for k in range(14) for v in (k, k + 1, 2)]
    return {
        "images": [{"id": 1, "width": 20, "height": 20, "file_name": "a.jpg"},
                   {"id": 2, "width": 30, "height": 10}],
        "annotations": [
            {"image_id": 1, "bbox": [0, 0, 10, 10], "keypoints": flat, "score": 0.5,
             "track_id": 3, "segmentation": [[1.0, 2.0, 8.5, 2.0, 5.0, 9.0]]},
            {"image_id": 2, "bbox": [2, 2, 6, 6], "keypoints": [0, 0, 0] + flat[3:],
             "segmentation": {"size": [4, 4], "counts": [4, 8, 4]}}],
        "categories": [{"name": "person",
                        "keypoints": list(CROWDPOSE_SCHEMA.keypoint_names)}],
    }


def valid_jta_doc() -> dict:
    """One frame: a tracked person with a bbox and one whose bbox is derived."""
    rows = [[float(k), float(k + 1), k % 2, k % 3 == 0] for k in range(22)]
    return {"frames": [{"id": "seq0/f0", "width": 64, "height": 48, "source": "f0.pam",
                        "people": [{"track_id": 7, "bbox": [0, 0, 30, 30], "keypoints": rows},
                                   {"keypoints": rows}]}]}


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _json_paths(node, prefix=()):
    """Path (key sequence) of every object member and array item in a JSON tree."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=4))


def _json_containers(kids):
    # a named def: hypothesis parses `extend`'s source to check that it uses
    # its argument, and a lambda's source inside a call does not parse alone
    return st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                        max_size=3)


JSON_VALUES = st.recursive(JSON_SCALARS, _json_containers, max_leaves=6)


@st.composite
def mutated_doc(draw, valid: dict):
    """A copy of the valid document `valid` with one defect: a dropped or
    retyped member anywhere, a shortened array (keypoint row, bbox, ...), or
    a non-object top level."""
    doc = json.loads(json.dumps(valid))
    action = draw(st.sampled_from(("drop", "retype", "shorten", "top_level")))
    if action == "top_level":
        return draw(JSON_SCALARS | st.lists(JSON_VALUES, max_size=3))
    paths = list(_json_paths(doc))
    if action == "shorten":
        paths = [p for p in paths if isinstance(_lookup(doc, p), list) and _lookup(doc, p)]
    path = draw(st.sampled_from(paths))
    parent, key = _lookup(doc, path[:-1]), path[-1]
    if action == "drop":
        del parent[key]
    elif action == "retype":
        parent[key] = draw(JSON_VALUES)
    else:
        parent[key] = parent[key][:draw(st.integers(0, len(parent[key]) - 1))]
    return doc


class TestParseCoco:
    def test_visibility_codes(self):
        flat = []
        codes = [2, 1, 0] + [2] * 11
        for i, v in enumerate(codes):
            flat += [10.0 + i, 20.0 + i, v]
        ds = anno.parse_dataset(json.dumps(coco_doc(flat)).encode(), "coco")
        kps = ds.images[0].persons[0].pose.keypoints
        assert kps[0].vis is Visibility.VISIBLE
        assert kps[1].vis is Visibility.OCCLUDED
        assert kps[2].vis is Visibility.UNLABELED
        assert kps[0].x == 10.0 and kps[0].y == 20.0

    def test_empty_image_list(self):
        ds = anno.parse_dataset(b'{"images": [], "annotations": []}', "coco")
        assert ds.images == ()

    def test_malformed_json_reports_byte_offset(self):
        with pytest.raises(ParseError) as err:
            anno.parse_dataset(b'{"images": [,]}', "coco")
        assert err.value.offset == 12

    def test_unknown_keypoint_count(self):
        doc = coco_doc([1.0, 2.0, 2] * 5)
        doc.pop("categories")
        with pytest.raises(SchemaError):
            anno.parse_dataset(json.dumps(doc).encode(), "coco")

    def test_duplicate_image_id_is_refused(self):
        # annotations join images by id: a repeated id leaves them no one image
        doc = valid_coco_doc()
        doc["annotations"][1]["image_id"] = 1
        for second_id in (1, "1"):
            doc["images"][1]["id"] = second_id
            with pytest.raises(ParseError, match="image id '1' repeats"):
                anno.parse_dataset(json.dumps(doc).encode(), "coco")

    # a COCO segmentation is flat polygon lists or a bare RLE, never the
    # native form
    @pytest.mark.parametrize("seg", [[[1.0, 2.0, 3.0]], {"counts": [16]}, {"size": [4, 4]},
                                     {"kind": "polygons", "polygons": []}, "x"])
    def test_malformed_segmentation_is_refused(self, seg):
        doc = valid_coco_doc()
        doc["annotations"][0]["segmentation"] = seg
        with pytest.raises(ParseError):
            anno.parse_dataset(json.dumps(doc).encode(), "coco")

    def test_format_names_are_the_cli_words(self):
        assert sorted(anno._PARSERS) == ["coco", "jta", "native"]
        with pytest.raises(ParseError, match="unknown dataset format 'coco_like'"):
            anno.parse_dataset(b'{"images": []}', "coco_like")

    @settings(max_examples=300, deadline=None)
    @given(mutated_doc(valid_coco_doc()))
    def test_mutated_document_raises_only_domain_errors(self, doc):
        try:
            anno.parse_dataset(json.dumps(doc).encode(), "coco")
        except CrowdKitError:
            pass


class TestParseJta:
    def test_flag_pairs(self):
        # hand-written fixture covering all four flag pairs
        rows = [[float(i), float(i + 100), 0, 0] for i in range(22)]
        rows[1][2:] = [1, 0]   # occluded only
        rows[2][2:] = [0, 1]   # self-occluded only
        rows[3][2:] = [1, 1]   # both set: occlusion by others dominates
        ds = anno.parse_dataset(json.dumps(jta_doc(rows)).encode(), "jta")
        kps = ds.images[0].persons[0].pose.keypoints
        assert kps[0].vis is Visibility.VISIBLE
        assert kps[1].vis is Visibility.OCCLUDED
        assert kps[2].vis is Visibility.SELF_OCCLUDED
        assert kps[3].vis is Visibility.OCCLUDED
        assert ds.schema is JTA_SCHEMA
        assert ds.images[0].persons[0].track_id == 7

    def test_wrong_count_rejected(self):
        rows = [[0.0, 0.0, 0, 0]] * 21
        with pytest.raises(SchemaError):
            anno.parse_dataset(json.dumps(jta_doc(rows)).encode(), "jta")

    def test_missing_bbox_is_the_keypoint_extent(self):
        doc = jta_doc([[float(i), 2.0 * i + 5, 0, 0] for i in range(22)])
        doc["frames"][0]["people"].append({"keypoints": [[3.0, 4.0, 0, 1]] * 22})
        extent, single = anno.parse_dataset(json.dumps(doc).encode(),
                                            "jta").images[0].persons
        assert extent.bbox == BBox(0.0, 5.0, 21.0, 42.0)
        assert single.bbox == BBox(3.0, 4.0, 1.0, 1.0)

    def test_repeated_frame_id_is_refused(self):
        doc = valid_jta_doc()
        doc["frames"] *= 2
        with pytest.raises(ParseError, match="image id 'seq0/f0' repeats"):
            anno.parse_dataset(json.dumps(doc).encode(), "jta")

    @settings(max_examples=300, deadline=None)
    @given(mutated_doc(valid_jta_doc()))
    def test_mutated_document_raises_only_domain_errors(self, doc):
        try:
            anno.parse_dataset(json.dumps(doc).encode(), "jta")
        except CrowdKitError:
            pass


class TestNativeRoundtrip:
    def test_serialize_parse_idempotent(self, rng):
        from conftest import rand_record
        records = tuple(rand_record(rng, image_id=f"img_{i}") for i in range(4))
        ds = Dataset(schema=CROWDPOSE_SCHEMA, images=records, meta={"k": [1, 2]})
        once = anno.serialize_dataset(ds)
        again = anno.serialize_dataset(anno.parse_dataset(once, "native"))
        assert once == again
        assert anno.parse_dataset(again, "native").images[0].persons[0].pose \
            .keypoints[0].x == ds.images[0].persons[0].pose.keypoints[0].x

    def test_unknown_visibility_tag_is_named(self, rng):
        from conftest import rand_record
        ds = Dataset(schema=CROWDPOSE_SCHEMA, images=(rand_record(rng),), meta={})
        doc = json.loads(anno.serialize_dataset(ds))
        doc["images"][0]["persons"][0]["keypoints"][3][2] = "bogus"
        with pytest.raises(ParseError) as err:
            anno.parse_dataset(json.dumps(doc).encode(), "native")
        assert "'bogus'" in str(err.value)
        assert all(repr(v.value) in str(err.value) for v in Visibility)

    def test_format_tag_required(self):
        with pytest.raises(ParseError):
            anno.parse_dataset(b'{"format": "other", "schema": {}, "images": []}',
                               "native")

    def test_repeated_image_id_is_refused(self):
        doc = valid_native_doc()
        doc["images"][1]["id"] = doc["images"][0]["id"]
        with pytest.raises(ParseError, match="image id 'a' repeats"):
            anno.parse_dataset(json.dumps(doc).encode(), "native")

    @settings(max_examples=300, deadline=None)
    @given(mutated_doc(valid_native_doc()))
    def test_mutated_document_raises_only_domain_errors(self, doc):
        try:
            anno.parse_dataset(json.dumps(doc).encode(), "native")
        except CrowdKitError:
            pass

    def test_segmentation_survives_roundtrip(self):
        from crowdpose_kit.annotations import SegmentMask
        pose = make_pose([(float(k), float(k)) for k in range(14)])
        seg_poly = SegmentMask(kind="polygons",
                               polygons=(((1.0, 2.0), (8.5, 2.0), (5.0, 9.0)),))
        seg_rle = SegmentMask(kind="rle", rle_size=(4, 4),
                              rle_counts=(4, 8, 4))
        persons = (
            PersonInstance(bbox=BBox(0, 0, 10, 10), pose=pose,
                           segmentation=seg_poly),
            PersonInstance(bbox=BBox(0, 0, 10, 10), pose=pose,
                           segmentation=seg_rle),
        )
        ds = Dataset(schema=CROWDPOSE_SCHEMA,
                     images=(ImageRecord("a", 20, 20, persons=persons),))
        back = anno.parse_dataset(anno.serialize_dataset(ds), "native")
        got_poly, got_rle = (p.segmentation for p in back.images[0].persons)
        assert got_poly == seg_poly
        assert got_rle == seg_rle

    @pytest.mark.parametrize("seg", [
        [[1.0, 2.0, 8.5, 2.0, 5.0, 9.0]], {"polygons": [[[1, 2], [8, 2], [5, 9]]]},
        {"size": [4, 4], "counts": [16]}, {"kind": "x", "polygons": []},
        {"kind": None, "size": [4, 4], "counts": [16]}])
    def test_segmentation_without_a_known_kind_is_refused(self, seg):
        doc = valid_native_doc()
        doc["images"][0]["persons"][0]["segmentation"] = seg
        with pytest.raises(ParseError):
            anno.parse_dataset(json.dumps(doc).encode(), "native")


def jta_pose(vis=Visibility.VISIBLE):
    coords = [(float(i * 3 + 1), float(i * 5 + 2)) for i in range(22)]
    return make_pose(coords, vis=vis, schema=JTA_SCHEMA)


class TestConversion:
    def test_identity_prefix_mapping(self):
        pose = jta_pose()
        out = anno.convert_jta_to_crowdpose(pose, mapping=list(range(14)))
        assert out.schema is CROWDPOSE_SCHEMA
        for k in range(14):
            assert out.keypoints[k] == pose.keypoints[k]

    def test_flags_preserved(self):
        out = anno.convert_jta_to_crowdpose(jta_pose(vis=Visibility.OCCLUDED))
        assert all(k.vis is Visibility.OCCLUDED for k in out.keypoints)

    def test_default_mapping_matches_name_table(self):
        # independent name-to-name table built from both schemas
        aliases = {"top_head": "head_top"}
        table = {}
        for ci, cname in enumerate(CROWDPOSE_SCHEMA.keypoint_names):
            jname = aliases.get(cname, cname)
            table[ci] = JTA_SCHEMA.keypoint_names.index(jname)
        mapping = anno.default_jta_to_crowdpose_mapping()
        assert tuple(table[ci] for ci in range(14)) == mapping

    def test_no_invented_coordinates(self, rng):
        # every output keypoint is bitwise equal to some input keypoint
        from conftest import rand_pose
        pose = rand_pose(rng, BBox(0, 0, 50, 100), schema=JTA_SCHEMA)
        out = anno.convert_jta_to_crowdpose(pose)
        source = {(k.x, k.y) for k in pose.keypoints}
        assert all((k.x, k.y) in source for k in out.keypoints)

    def test_mapping_errors(self):
        pose = jta_pose()
        with pytest.raises(MappingError):
            anno.convert_jta_to_crowdpose(pose, mapping=[22] + list(range(13)))
        with pytest.raises(MappingError):
            anno.convert_jta_to_crowdpose(pose, mapping=[0] * 14)
        with pytest.raises(MappingError):
            anno.convert_jta_to_crowdpose(pose, mapping=list(range(10)))
        with pytest.raises(SchemaError):
            anno.convert_jta_to_crowdpose(
                make_pose([(0, 0)] * 14, schema=CROWDPOSE_SCHEMA))
        with pytest.raises(SchemaError):  # shorter than its schema
            anno.convert_jta_to_crowdpose(
                Pose.from_arrays(JTA_SCHEMA, np.zeros((3, 2)), np.zeros(3, np.int8)))
        with pytest.raises(MappingError):  # checked before any person
            anno.convert_dataset_jta_to_crowdpose(Dataset(schema=JTA_SCHEMA), [0] * 14)


class TestValidate:
    def test_well_formed(self, rng):
        from conftest import rand_record
        ds = Dataset(schema=CROWDPOSE_SCHEMA,
                     images=(rand_record(rng),))
        assert anno.validate(ds).ok

    def test_degenerate_bbox(self):
        pose = make_pose([(1.0, 1.0)] * 14)
        person = PersonInstance(bbox=BBox(0, 0, 0, 10), pose=pose)
        ds = Dataset(schema=CROWDPOSE_SCHEMA,
                     images=(ImageRecord("a", 10, 10, persons=(person,)),))
        report = anno.validate(ds)
        assert report.counts == {"degenerate_bbox": 1}
        assert report.violations[0].image_id == "a"

    def test_schema_mismatch(self):
        short = Pose(CROWDPOSE_SCHEMA, tuple(Keypoint(0.0, 0.0, Visibility.VISIBLE)
                                             for _ in range(5)))
        person = PersonInstance(bbox=BBox(0, 0, 5, 5), pose=short)
        ds = Dataset(schema=CROWDPOSE_SCHEMA,
                     images=(ImageRecord("a", 10, 10, persons=(person,)),))
        assert anno.validate(ds).counts == {"schema_mismatch": 1}

    def test_duplicate_image_id_and_degenerate_polygon(self):
        """A repeated image id never reaches validate: Dataset refuses it."""
        seg = anno.SegmentMask(kind="polygons", polygons=(((0.0, 0.0), (1.0, 1.0)),
                                                          ((0, 0), (2, 0), (0, 2))))
        person = PersonInstance(bbox=BBox(0, 0, 5, 5), pose=make_pose([(1.0, 1.0)] * 14),
                                segmentation=seg)
        image = ImageRecord("a", 10, 10, persons=(person,))
        with pytest.raises(ParseError, match="image id 'a' repeats"):
            Dataset(schema=CROWDPOSE_SCHEMA, images=(image, image))
        report = anno.validate(Dataset(schema=CROWDPOSE_SCHEMA, images=(
            image, dataclasses.replace(image, id="b"))))
        assert report.counts == {"degenerate_polygon": 2}
        assert [(v.image_id, v.person_index) for v in report.violations] == [
            ("a", 0), ("b", 0)]

    def test_score_and_nonfinite(self):
        kps = [Keypoint(float("nan"), 0.0, Visibility.VISIBLE)] + \
              [Keypoint(0.0, 0.0, Visibility.VISIBLE)] * 13
        person = PersonInstance(bbox=BBox(0, 0, 5, 5),
                                pose=Pose(CROWDPOSE_SCHEMA, tuple(kps)), score=1.5)
        ds = Dataset(schema=CROWDPOSE_SCHEMA,
                     images=(ImageRecord("a", 10, 10, persons=(person,)),))
        counts = anno.validate(ds).counts
        assert counts["nonfinite_coordinate"] == 1
        assert counts["score_out_of_range"] == 1


# Coordinates as JSON may hold them: integers (some beyond the float range),
# floats of every kind, booleans.
_COORDS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6), st.integers(-2 ** 1023, 2 ** 1023),
    st.integers(2 ** 1023, 2 ** 1030), st.floats(), st.booleans(),
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, 2 ** 53 + 1, math.nan,
                     math.inf, -math.inf]))
_FINITE = st.floats(-1e6, 1e6)


@st.composite
def native_docs(draw):
    """Native documents whose persons have any number of keypoints, every
    tag and any JSON coordinate."""
    rows = st.lists(st.tuples(_COORDS, _COORDS, st.sampled_from(
        [v.value for v in Visibility])).map(list), max_size=16)
    person = st.fixed_dictionaries({
        "bbox": st.lists(_FINITE, min_size=4, max_size=4), "keypoints": rows,
        "score": st.none() | _FINITE, "track_id": st.none() | st.integers(0, 9)})
    image = st.fixed_dictionaries({
        "id": st.text(max_size=4), "width": st.integers(1, 99),
        "height": st.integers(1, 99), "persons": st.lists(person, max_size=4)})
    return {"format": anno.NATIVE_FORMAT_TAG,
            "schema": {"name": "s", "keypoint_names": ["a", "b"]},
            "meta": {}, "images": draw(st.lists(image, max_size=3,
                                                  unique_by=lambda img: img["id"]))}


def _fields(dataset):
    """Every field of a parsed dataset, each keypoint's coordinates as the
    bytes of the floats and their types."""
    return (dataset.schema, dataset.meta, [
        (img.id, img.width, img.height, img.source, [
            (p.bbox, p.segmentation, p.score, p.track_id, p.pose.schema,
             [(type(k.x), type(k.y), struct.pack("<dd", k.x, k.y), k.vis)
              for k in p.pose.keypoints])
            for p in img.persons])
        for img in dataset.images])


class TestArrayPoses:
    @settings(max_examples=300, deadline=None)
    @example({"format": anno.NATIVE_FORMAT_TAG,
              "schema": {"name": "s", "keypoint_names": ["a"]}, "meta": {},
              "images": [{"id": "i", "width": 1, "height": 1, "persons": [
                  {"bbox": [0, 0, 1, 1], "keypoints": [[1, True, "visible"],
                                                       [-0.0, 10 ** 300, "unlabeled"]]},
                  {"bbox": [0, 0, 1, 1], "keypoints": []}]}]})
    @given(native_docs())
    def test_parser_matches_keypoint_reference(self, doc):
        data = json.dumps(doc).encode()
        try:
            want = oracles.parse_native_reference(json.loads(data))
        except OverflowError:  # an integer beyond the float range
            with pytest.raises(ParseError):
                anno.parse_dataset(data, "native")
            return
        got = anno.parse_dataset(data, "native")
        assert _fields(got) == _fields(want)

    @pytest.mark.parametrize("row", [
        [None, 1.0, "visible"], [1.0, None, "visible"], [[1.0], 2.0, "visible"],
        [[1.0, 2.0], "visible"], [1.0, 2.0, "visible", 0], [1.0, 2.0, "hidden"],
        [1.0, 2.0, ["visible"]], [1.0, 2.0], None])
    def test_malformed_row_is_a_parse_error(self, row):
        doc = json.loads(anno.serialize_dataset(Dataset(
            schema=CROWDPOSE_SCHEMA, images=(ImageRecord("a", 9, 9, persons=(
                PersonInstance(BBox(0, 0, 5, 5), make_pose([(1, 1)] * 14)),)),))))
        doc["images"][0]["persons"][0]["keypoints"][5] = row
        with pytest.raises(ParseError):
            anno.parse_dataset(json.dumps(doc).encode(), "native")

    def test_arrays_are_read_only(self, rng):
        from conftest import rand_record
        record = rand_record(rng)
        ds = Dataset(schema=CROWDPOSE_SCHEMA, images=(record,))
        parsed = anno.parse_dataset(anno.serialize_dataset(ds), "native")
        pose = record.persons[0].pose
        writeable = np.zeros((14, 2))
        # a read-only array whose memory a writeable view still reaches
        frozen = np.zeros((14, 2))
        view = frozen[:]
        frozen.flags.writeable = False
        frozen_codes = np.zeros(14, np.int8)
        frozen_codes.flags.writeable = False
        poses = [pose, parsed.images[0].persons[0].pose,
                 Pose.from_arrays(CROWDPOSE_SCHEMA, writeable, np.zeros(14, np.int8)),
                 Pose.from_arrays(CROWDPOSE_SCHEMA, frozen[:], frozen_codes),
                 pickle.loads(pickle.dumps(pose)),
                 anno.convert_jta_to_crowdpose(make_pose([(1, 2)] * 22, schema=JTA_SCHEMA))]
        hashed = hash(poses[3])
        writeable[0, 0] = view[0, 0] = 5.0  # copies were taken
        assert poses[2].xy[0, 0] == poses[3].xy[0, 0] == 0.0
        assert hash(poses[3]) == hashed
        for p in poses:
            assert p.xy.dtype == np.float64 and p.codes.dtype == np.int8
            assert not p.xy.flags.writeable and not p.codes.flags.writeable
            with pytest.raises(ValueError):
                p.xy[0, 0] = 1.0
            with pytest.raises(ValueError):
                p.codes[0] = 1

    def test_keypoints_follow_the_arrays(self):
        pose = Pose.from_arrays(JTA_SCHEMA, np.arange(44.0).reshape(22, 2),
                                np.arange(22) % len(anno.VISIBILITY_ORDER))
        assert [(k.x, k.y, k.vis) for k in pose.keypoints] == [
            (2.0 * i, 2.0 * i + 1, anno.VISIBILITY_ORDER[i % 4]) for i in range(22)]
        assert all(type(k.x) is float for k in pose.keypoints)
        assert pose.to_json()[1] == [2.0, 3.0, anno.VISIBILITY_ORDER[1].value]

    def test_equality_compares_bytes(self):
        base = make_pose([(1.0, 2.0)] * 14)
        assert base == make_pose([(1.0, 2.0)] * 14)
        assert hash(base) == hash(make_pose([(1.0, 2.0)] * 14))
        assert base != make_pose([(1.0, 2.0)] * 14, vis=Visibility.OCCLUDED)
        assert base != make_pose([(1.0, 2.0)] * 14, schema=JTA_SCHEMA)
        assert make_pose([(0.0, 0.0)] * 14) != make_pose([(-0.0, 0.0)] * 14)
        nan = make_pose([(math.nan, 0.0)] * 14)
        assert nan == pickle.loads(pickle.dumps(nan))
        person = PersonInstance(BBox(0, 0, 1, 1), base)
        assert person == PersonInstance(BBox(0, 0, 1, 1), make_pose([(1.0, 2.0)] * 14))
        assert len({person, PersonInstance(BBox(0, 0, 1, 1), base)}) == 1

    def test_replace_keypoints(self):
        base = make_pose([(1.0, 2.0)] * 14)
        moved = dataclasses.replace(base, keypoints=tuple(
            Keypoint(k.x + 1.0, k.y, k.vis) for k in base.keypoints))
        assert moved.xy[:, 0].tolist() == [2.0] * 14
        assert moved.codes.tolist() == base.codes.tolist()


_SCORES = st.none() | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
_TEXT = st.text(max_size=4) | st.sampled_from(["é", "人群", " ", "\x00", '"\\'])


@st.composite
def datasets(draw):
    """Datasets with polygon, RLE or no segmentation, any score, non-ASCII
    ids and meta, and images with no persons."""
    polygons = st.lists(st.lists(st.tuples(_FINITE, _FINITE), max_size=3), max_size=2).map(
        lambda polys: SegmentMask(kind="polygons",
                                  polygons=tuple(tuple(p) for p in polys)))
    rle = st.lists(st.integers(0, 9), max_size=4).map(
        lambda counts: SegmentMask(kind="rle", rle_size=(2, 3), rle_counts=tuple(counts)))
    person = st.builds(
        PersonInstance,
        bbox=st.builds(BBox, _FINITE, _FINITE, _FINITE, _FINITE),
        pose=st.lists(st.tuples(st.floats(), st.floats()), min_size=14, max_size=14).map(
            make_pose),
        segmentation=st.none() | polygons | rle, score=_SCORES,
        track_id=st.none() | st.integers(0, 9))
    image = st.builds(ImageRecord, id=_TEXT, width=st.integers(1, 99),
                      height=st.integers(1, 99),
                      persons=st.lists(person, max_size=3).map(tuple),
                      source=st.none() | _TEXT)
    meta = st.dictionaries(_TEXT, st.none() | _TEXT | _SCORES | st.lists(st.integers()),
                           max_size=3)
    images = st.lists(image, max_size=3, unique_by=lambda img: img.id)
    return Dataset(schema=CROWDPOSE_SCHEMA, images=tuple(draw(images)), meta=draw(meta))


class TestSerializer:
    @settings(max_examples=300, deadline=None)
    @example(Dataset(schema=CROWDPOSE_SCHEMA))
    @given(datasets())
    def test_bytes_equal_one_dumps_of_the_document(self, ds):
        assert anno.serialize_dataset(ds) == oracles.serialize_dataset_reference(ds)
