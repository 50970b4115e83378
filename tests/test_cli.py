import contextlib
import dataclasses
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crowdpose_kit import annotations as anno
from crowdpose_kit import augment as AUG
from crowdpose_kit import heatmaps as H
from crowdpose_kit import synthgen
from crowdpose_kit.cli import dispatch
from crowdpose_kit.masks import read_pam

from conftest import blob_cutout, make_pose


def run(*argv):
    return dispatch(list(argv))


@pytest.fixture()
def gen_dir(tmp_path):
    out = tmp_path / "corpus"
    code = run("gen", "--scenes", "12", "--seed", "3", "--target", "uniform",
               "--bins", "3", "--out", str(out))
    assert code == 0
    return out


class TestGen:
    def test_outputs_exist(self, gen_dir):
        assert (gen_dir / "dataset.json").is_file()
        assert (gen_dir / "manifest.json").is_file()
        assert (gen_dir / "scene_00000.pam").is_file()
        assert (gen_dir / "scene_00000_depth.pam").is_file()
        ds = anno.parse_dataset((gen_dir / "dataset.json").read_bytes(), "native")
        assert len(ds.images) == 12
        raster = read_pam((gen_dir / "scene_00000.pam").read_bytes())
        assert (raster.width, raster.height) == (ds.images[0].width,
                                                 ds.images[0].height)

    def test_manifest_fields(self, gen_dir):
        manifest = json.loads((gen_dir / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["command"][0] == "crowdpose-kit"
        assert "config_digest" in manifest and "tool_version" in manifest

    @pytest.mark.parametrize("bins", [[], ["--bins", "3"]])
    def test_target_file_sets_bins(self, tmp_path, bins):
        target = _write(tmp_path / "t.json", [1, 1, 1])
        assert run(*_gen(tmp_path, "--target", target, "--no-rasters", *bins)) == 0
        doc = json.loads((tmp_path / "g" / "dataset.json").read_text())
        assert doc["meta"]["generator"]["bins"] == 3


class TestAnalyzeValidate:
    def test_analyze(self, gen_dir, tmp_path, capsys):
        stats_file = tmp_path / "stats.json"
        assert run("analyze", "--in", str(gen_dir / "dataset.json"),
                   "--bins", "5", "--out", str(stats_file)) == 0
        stats = json.loads(stats_file.read_text())
        assert sum(stats["histogram"]) == 12
        assert len(stats["per_image"]) == 12

    def test_analyze_stdout(self, gen_dir, capsys):
        assert run("analyze", "--in", str(gen_dir / "dataset.json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["levels"].values()) == 12

    def test_validate_clean(self, gen_dir, capsys):
        assert run("validate", "--in", str(gen_dir / "dataset.json")) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


class TestConvert:
    def test_jta_to_crowdpose(self, tmp_path, capsys):
        rows = [[float(i), float(i * 2), 0, 0] for i in range(22)]
        rows[4][2] = 1  # right shoulder occluded
        doc = {"frames": [{"id": "f0", "width": 640, "height": 480,
                           "people": [{"track_id": 1, "keypoints": rows}]}]}
        src = tmp_path / "jta.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "cp.json"
        assert run("convert", "--from", "jta", "--to", "crowdpose",
                   "--in", str(src), "--out", str(out)) == 0
        ds = anno.parse_dataset(out.read_bytes(), "native")
        assert ds.schema.name == "crowdpose"
        kps = ds.images[0].persons[0].pose.keypoints
        assert kps[1].vis is anno.Visibility.OCCLUDED  # mapped right shoulder
        assert kps[12].x == 0.0  # head top came from JTA index 0
        assert (out.parent / "cp.json.manifest.json").is_file()

    def test_custom_mapping_file(self, tmp_path):
        rows = [[float(i), 0.0, 0, 0] for i in range(22)]
        doc = {"frames": [{"id": "f0", "width": 64, "height": 48,
                           "people": [{"keypoints": rows}]}]}
        src = tmp_path / "jta.json"
        src.write_text(json.dumps(doc))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps(list(range(14))))
        out = tmp_path / "out.json"
        assert run("convert", "--from", "jta", "--to", "crowdpose",
                   "--mapping", str(mapping), "--in", str(src),
                   "--out", str(out)) == 0
        ds = anno.parse_dataset(out.read_bytes(), "native")
        assert [k.x for k in ds.images[0].persons[0].pose.keypoints] == \
            [float(i) for i in range(14)]


class TestHeatmapCommands:
    def test_encode_then_decode(self, gen_dir, tmp_path):
        hm_dir = tmp_path / "hm"
        assert run("heatmap", "encode", "--in", str(gen_dir / "dataset.json"),
                   "--out", str(hm_dir)) == 0
        index = json.loads((hm_dir / "heatmaps.json").read_text())
        name, entry = sorted(index.items())[0]
        pose_file = tmp_path / "pose.json"
        bbox = [str(v) for v in entry["bbox"]]
        assert run("heatmap", "decode", "--in", str(hm_dir / name),
                   "--bbox", *bbox, "--out", str(pose_file)) == 0
        decoded = json.loads(pose_file.read_text())
        assert len(decoded["keypoints"]) == 14
        ds = anno.parse_dataset((gen_dir / "dataset.json").read_bytes(), "native")
        record = {img.id: img for img in ds.images}[entry["image_id"]]
        gt = record.persons[entry["person_index"]].pose.keypoints
        scale = 192.0 / max(entry["bbox"][2], entry["bbox"][3] * 0.75)
        tol = 2.0 * max(1.0, 1.0 / scale) + 1e-9
        for k, (x, y, _) in enumerate(decoded["keypoints"]):
            if entry["encoded"][k]:
                assert abs(x - gt[k].x) <= tol and abs(y - gt[k].y) <= tol


class TestAugmentCommand:
    def test_end_to_end(self, gen_dir, tmp_path, rng):
        inv_dir = tmp_path / "inv"
        inventory = AUG.CutoutInventory(
            objects=[blob_cutout(rng, 14, 12)],
            persons=[blob_cutout(rng, 16, 30, kind="full_body")])
        AUG.save_inventory(inv_dir, inventory)
        out = tmp_path / "aug"
        assert run("augment", "--method", "objects", "--seed", "5",
                   "--inventory", str(inv_dir),
                   "--in", str(gen_dir / "dataset.json"),
                   "--images", str(gen_dir), "--out", str(out)) == 0
        assert (out / "dataset.json").is_file()
        assert (out / "augment_log.json").is_file()
        log = json.loads((out / "augment_log.json").read_text())
        assert len(log) == 12
        assert any(entry["placements"] for entry in log.values())

    def test_missing_inventory_exits_1(self, gen_dir, tmp_path, capsys):
        code = run("augment", "--method", "objects", "--seed", "5",
                   "--inventory", str(tmp_path / "nothing"),
                   "--in", str(gen_dir / "dataset.json"),
                   "--images", str(gen_dir), "--out", str(tmp_path / "x"))
        assert code == 1


class TestEvalCommand:
    def test_self_eval_perfect(self, gen_dir, tmp_path):
        ds = anno.parse_dataset((gen_dir / "dataset.json").read_bytes(), "native")
        pred = anno.Dataset(schema=ds.schema, images=tuple(
            replace(img, persons=tuple(replace(p, score=0.9) for p in img.persons))
            for img in ds.images), meta={})
        pred_file = tmp_path / "pred.json"
        pred_file.write_bytes(anno.serialize_dataset(pred))
        report_file = tmp_path / "report.json"
        csv_file = tmp_path / "report.csv"
        assert run("eval", "--gt", str(gen_dir / "dataset.json"),
                   "--pred", str(pred_file), "--out", str(report_file),
                   "--csv", str(csv_file)) == 0
        report = json.loads(report_file.read_text())
        assert report["ap"] == 1.0
        header, row = csv_file.read_text().strip().splitlines()
        assert header == "AP,AP_Easy,AP_Med,AP_Hard"
        assert row.split(",")[0] == "1.000"

    def test_jobs_do_not_change_report_bytes(self, gen_dir, tmp_path):
        rng = np.random.default_rng(7)
        ds = anno.parse_dataset((gen_dir / "dataset.json").read_bytes(), "native")
        pred = anno.Dataset(schema=ds.schema, images=tuple(
            replace(img, persons=tuple(
                replace(p, score=float(rng.uniform(0.1, 1.0)), pose=make_pose(
                    [(k.x + rng.normal(0, 3), k.y + rng.normal(0, 3))
                     for k in p.pose.keypoints]))
                for p in img.persons))
            for img in ds.images), meta={})
        pred_file = tmp_path / "pred.json"
        pred_file.write_bytes(anno.serialize_dataset(pred))
        reports = []
        for jobs in ("1", "4"):
            out = tmp_path / f"report_{jobs}.json"
            assert run("eval", "--gt", str(gen_dir / "dataset.json"),
                       "--pred", str(pred_file), "--out", str(out),
                       "--jobs", jobs) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert 0.0 < json.loads(reports[0])["ap"] < 1.0


def _native_doc() -> dict:
    person = anno.PersonInstance(bbox=anno.BBox(0, 0, 10, 10),
                                 pose=make_pose([(float(k), float(k)) for k in range(14)]))
    ds = anno.Dataset(schema=anno.CROWDPOSE_SCHEMA,
                      images=(anno.ImageRecord("a", 20, 20, persons=(person,)),))
    return json.loads(anno.serialize_dataset(ds))


def _without_persons(doc):
    del doc["images"][0]["persons"]
    return doc


def _short_keypoint_row(doc):
    doc["images"][0]["persons"][0]["keypoints"][0] = [1.0, 2.0]
    return doc


def _write(path, payload) -> str:
    """Write bytes or str as is and anything else as JSON; returns the path."""
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _gen(d, *extra):
    return ["gen", "--seed", "1", "--scenes", "10", "--out", str(d / "g"), *extra]


def _eval(d, *extra):
    scored = _native_doc()
    scored["images"][0]["persons"][0]["score"] = 0.9
    return ["eval", "--gt", _write(d / "gt.json", _native_doc()),
            "--pred", _write(d / "pred.json", scored), "--out", str(d / "r.json"),
            *extra]


def _convert(d, *extra):
    rows = [[float(i), 0.0, 0, 0] for i in range(22)]
    doc = {"frames": [{"id": "f0", "width": 64, "height": 48,
                       "people": [{"keypoints": rows}]}]}
    return ["convert", "--from", "jta", "--to", "crowdpose",
            "--in", _write(d / "jta.json", doc), "--out", str(d / "c.json"), *extra]


# Inputs that once escaped dispatch with a traceback: argv builder, exit code.
BAD_INPUTS = {
    "top_level_array": (lambda d: ["analyze", "--in", _write(d / "a.json", [])], 1),
    "native_image_without_persons": (lambda d: [
        "analyze", "--in", _write(d / "a.json", _without_persons(_native_doc()))], 1),
    "keypoint_row_xy": (lambda d: [
        "analyze", "--in", _write(d / "a.json", _short_keypoint_row(_native_doc()))], 1),
    "gen_config_bad_json": (lambda d: _gen(
        d, "--config", _write(d / "c.json", "{not json")), 1),
    "gen_config_unknown_key": (lambda d: _gen(
        d, "--config", _write(d / "c.json", {"no_such_field": 1})), 1),
    "gen_bins_0": (lambda d: _gen(d, "--bins", "0"), 1),
    "gen_target_all_zero": (lambda d: _gen(
        d, "--target", _write(d / "t.json", [0, 0, 0])), 1),
    "gen_config_count_range_int": (lambda d: _gen(
        d, "--config", _write(d / "c.json", {"person_count_range": 5})), 1),
    "gen_config_count_range_triple": (lambda d: _gen(
        d, "--config", _write(d / "c.json", {"person_count_range": [1, 2, 3]})), 1),
    "gen_config_width_string": (lambda d: _gen(
        d, "--config", _write(d / "c.json", {"image_w": "x"})), 1),
    "gen_config_negative_width": (lambda d: _gen(
        d, "--config", _write(d / "c.json", {"image_w": -5})), 1),
    "gen_target_bins_mismatch": (lambda d: _gen(
        d, "--target", _write(d / "t.json", [1, 1, 1]), "--bins", "2"), 1),
    "eval_sigmas_object": (lambda d: _eval(
        d, "--sigmas", _write(d / "s.json", {"a": 1})), 1),
    "eval_sigmas_short": (lambda d: _eval(
        d, "--sigmas", _write(d / "s.json", [1, 2])), 1),
    "eval_sigmas_long": (lambda d: _eval(
        d, "--sigmas", _write(d / "s.json", [0.079] * 40)), 1),
    "convert_mapping_object": (lambda d: _convert(
        d, "--mapping", _write(d / "m.json", {"a": 1})), 1),
    "decode_zero_bbox": (lambda d: [
        "heatmap", "decode", "--bbox", "0", "0", "0", "0", "--in",
        _write(d / "x.hm", H.write_heatmap_pair(H.HeatmapPair.zeros(14)))], 1),
    "encode_without_out": (lambda d: [
        "heatmap", "encode", "--in", _write(d / "a.json", _native_doc())], 2),
}


class TestExitCodes:
    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_bad_input_exits_with_one_error_line(self, name, tmp_path, capsys):
        build, code = BAD_INPUTS[name]
        assert run(*build(tmp_path)) == code
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1

    def test_gen_tolerance_is_not_an_option(self, tmp_path, capsys):
        assert run(*_gen(tmp_path, "--tolerance", "0.03")) == 2

    def test_unknown_subcommand_usage_error(self, capsys):
        assert run("frobnicate") == 2

    def test_missing_file_domain_error(self, tmp_path, capsys):
        assert run("analyze", "--in", str(tmp_path / "none.json")) == 1

    def test_decode_without_bbox_usage_error(self, tmp_path, capsys):
        blob = tmp_path / "x.hm"
        blob.write_bytes(b"CPKH" + b"\x00" * 12)
        assert run("heatmap", "decode", "--in", str(blob)) == 2

    def test_augment_images_default_beside_dataset(self, gen_dir, tmp_path, rng):
        inv_dir = tmp_path / "inv"
        AUG.save_inventory(inv_dir, AUG.CutoutInventory(
            objects=[blob_cutout(rng, 10, 10)],
            persons=[blob_cutout(rng, 12, 24, kind="full_body")]))
        out = tmp_path / "aug_default"
        assert run("augment", "--method", "objects", "--seed", "2",
                   "--inventory", str(inv_dir),
                   "--in", str(gen_dir / "dataset.json"),
                   "--out", str(out)) == 0
        assert (out / "dataset.json").is_file()

    def test_losscheck_pass(self, capsys):
        assert run("losscheck", "--alpha", "1.5", "--trials", "3",
                   "--seed", "1") == 0
        assert "PASS" in capsys.readouterr().out

    def test_losscheck_fail_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr("crowdpose_kit.occloss.grad_check", lambda *a, **kw: 1e-3)
        assert run("losscheck", "--trials", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == "max_relative_error=1.000e-03 FAIL\n"
        assert captured.err.startswith("error: ")


# JSON as Python's json module reads it, NaN and Infinity included. Numbers
# stay small: a well-typed gen config's cost grows with its person count.
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-100, 100)
                | st.floats(-1e6, 1e6) | st.sampled_from([math.nan, math.inf, -math.inf])
                | st.text(max_size=6))
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.sampled_from(sorted(
                          f.name for f in dataclasses.fields(synthgen.SceneConfig)))
                          | st.text(max_size=6), children, max_size=4)),
    max_leaves=16)

def _small_gen(d, *extra):
    return ["gen", "--seed", "1", "--scenes", "3", "--no-rasters", "--out",
            str(d / "g"), *extra]


# The command each JSON input flag is fuzzed through.
_FILE_FLAGS = {
    "--config": lambda d: _small_gen(d, "--bins", "1"),
    "--target": _small_gen,
    "--sigmas": _eval,
    "--mapping": _convert,
}


class TestJsonInputFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # lists of 14 positive numbers also reach eval's success path
    @given(flag=st.sampled_from(sorted(_FILE_FLAGS)),
           payload=_JSON | st.lists(st.floats(1e-3, 1.0), min_size=14, max_size=14))
    def test_any_json_exits_cleanly(self, tmp_path, flag, payload):
        (tmp_path / "in.json").write_text(json.dumps(payload))
        argv = _FILE_FLAGS[flag](tmp_path) + [flag, str(tmp_path / "in.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = dispatch(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().count("error:") == 1
