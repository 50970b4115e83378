import argparse
import ast
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import multiprocessing
import platform
import re
import shutil
import struct
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crowdpose_kit import annotations as anno
from crowdpose_kit import augment as AUG
from crowdpose_kit import cli
from crowdpose_kit import crowd_metrics
from crowdpose_kit import heatmaps as H
from crowdpose_kit import synthgen
from crowdpose_kit.cli import dispatch
from crowdpose_kit.masks import RasterImage, read_pam, write_pam

from conftest import blob_cutout, child_env, dump_bytes, make_pose


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

    def test_image_ids_name_files(self, gen_dir):
        """gen's ids pass the check that augment and heatmap encode make
        before naming files after them."""
        dataset = cli._read_named_images(str(gen_dir / "dataset.json"))
        assert [img.id for img in dataset.images] == [f"scene_{i:05d}" for i in range(12)]

    def test_manifest_fields(self, gen_dir):
        manifest = json.loads((gen_dir / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["command"][0] == "crowdpose-kit"
        assert "config_digest" in manifest and "tool_version" in manifest
        assert manifest["versions"] == {"python": platform.python_version(),
                                        "numpy": np.__version__}

    @pytest.mark.parametrize("key", sorted(cli._SCENE_FIELDS))
    def test_every_config_key_changes_output(self, tmp_path, key):
        # a valid non-default value per `gen --config` key; a knob that
        # leaves dataset.json unchanged has no effect and should not exist
        value = {"image_w": 200, "image_h": 100, "person_count_range": [2, 6],
                 "scale_range": [30.0, 60.0], "depth_model": "ground_plane",
                 "limb_radius_frac": 0.05}[key]
        argv = ["gen", "--seed", "1", "--scenes", "10", "--bins", "2", "--no-rasters"]
        assert run(*argv, "--out", str(tmp_path / "default")) == 0
        config = _write(tmp_path / "c.json", {key: value})
        assert run(*argv, "--config", config, "--out", str(tmp_path / "knob")) == 0
        assert ((tmp_path / "knob" / "dataset.json").read_bytes()
                != (tmp_path / "default" / "dataset.json").read_bytes())

    # (seed, depth model) -> first 16 hex digits of the sha256 over the names
    # and bytes of a 20-scene gen's files, manifest excluded: with rasters
    # (dataset.json and every PAM), then with --no-rasters
    GEN_DIGESTS = {
        (1, "ground_plane"): ("a942b247f8bfb6b0", "f19c74da237b3a77"),
        (1, "uniform_z"): ("51bdc5b2bd0da28c", "c3767a65ef575e0e"),
        (7, "ground_plane"): ("8f0ee9386e5c5536", "335bd6bc671c2d88"),
        (7, "uniform_z"): ("0f123e43fcc8af7c", "c2064279de113414"),
    }

    @pytest.mark.parametrize("seed, depth", sorted(GEN_DIGESTS))
    def test_gen_digests(self, tmp_path, seed, depth):
        """Pins gen's bytes with --jobs 1 and 2 and without rasters."""
        config = _write(tmp_path / "c.json", {"depth_model": depth})
        digests = []
        for extra in (["--jobs", "1"], ["--jobs", "2"], ["--no-rasters"]):
            out = tmp_path / "".join(extra)
            assert run("gen", "--seed", str(seed), "--scenes", "20", "--config", config,
                       "--out", str(out), *extra) == 0
            h = hashlib.sha256()
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":
                    h.update(path.name.encode())
                    h.update(path.read_bytes())
            digests.append(h.hexdigest()[:16])
        with_rasters, without = self.GEN_DIGESTS[(seed, depth)]
        assert digests == [with_rasters, with_rasters, without]

    def test_easy_target_puts_every_scene_in_bin_0(self, tmp_path):
        assert run(*_gen(tmp_path, "--target", "easy", "--no-rasters")) == 0
        meta = json.loads((tmp_path / "g" / "dataset.json").read_text())["meta"]
        assert meta["generator"]["bins"] == cli.DEFAULT_BINS
        assert len(meta["crowd_index"]) == 10
        assert all(crowd_metrics.histogram_bin(c, cli.DEFAULT_BINS) == 0
                   for c in meta["crowd_index"].values())

    def test_tallest_person_generates_without_warnings(self, tmp_path, capsys):
        """Person heights at the cap draw, flag and render in finite
        arithmetic: gen exits 0 and prints nothing."""
        top = synthgen.MAX_PERSON_HEIGHT
        config = _write(tmp_path / "c.json", {"scale_range": [40.0, top]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*_gen(tmp_path, "--bins", "1", "--config", config)) == 0
        assert capsys.readouterr().err == ""

    def test_widest_limbs_generate_without_warnings(self, tmp_path, capsys):
        """A limb radius at its cap, on the tallest persons, flags and
        renders in finite arithmetic."""
        config = _write(tmp_path / "c.json", {"scale_range": [40.0, synthgen.MAX_PERSON_HEIGHT],
                                              "limb_radius_frac": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*_gen(tmp_path, "--bins", "1", "--config", config)) == 0
        assert capsys.readouterr().err == ""

    def test_unreachable_target_fails_alike_at_any_jobs(self, tmp_path, capsys):
        """One person per scene never reaches the top CrowdIndex bin. Each
        --jobs exits 1 with the serial message, removes what it wrote and
        the directories it made, and leaves no worker running."""
        config = _write(tmp_path / "c.json", {"person_count_range": [1, 1]})
        target = _write(tmp_path / "t.json", [0] * 9 + [1])
        errors = []
        for jobs in ("1", "2"):
            out = tmp_path / f"new{jobs}" / "gen"
            capsys.readouterr()
            assert run("gen", "--seed", "1", "--scenes", "20", "--config", config,
                       "--target", target, "--jobs", jobs, "--out", str(out)) == 1
            errors.append(capsys.readouterr().err)
            assert not out.parent.exists()
            assert not multiprocessing.active_children()
        assert errors == ["error: exhausted 2000 candidate scenes with 0/20 accepted\n"] * 2

    def test_failure_after_written_scenes_removes_them(self, tmp_path, capsys):
        """A budget that runs out mid-corpus, after some scenes' PAMs were
        written, leaves the existing --out directory as it was."""
        config = _write(tmp_path / "c.json", {"person_count_range": [1, 1]})
        target = _write(tmp_path / "t.json", [1] + [0] * 8 + [1])
        out = tmp_path / "gen"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        assert run("gen", "--seed", "1", "--scenes", "20", "--config", config,
                   "--target", target, "--jobs", "2", "--out", str(out)) == 1
        assert capsys.readouterr().err == ("error: exhausted 2000 candidate scenes "
                                           "with 10/20 accepted\n")
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_pool_size_is_capped(self, tmp_path, pool_sizes):
        """--jobs 64 over 10 scenes starts one worker per CPU (4 here), run
        in this process by the recording pool, with the bytes of --jobs 1."""
        digests = []
        for jobs in ("1", "64"):
            out = tmp_path / jobs
            assert run("gen", "--seed", "2", "--scenes", "10", "--jobs", jobs,
                       "--out", str(out)) == 0
            digests.append([p.read_bytes() for p in sorted(out.iterdir())
                            if p.name != "manifest.json"])
        assert pool_sizes == [4]
        assert digests[0] == digests[1]

    def test_runs_hold_at_most_five_slots(self, tmp_path, pool_submitted):
        """--jobs 2 over 200 scenes submits 40 runs of 5 slots, in slot
        order, rather than 8 runs of 25."""
        assert run("gen", "--seed", "1", "--scenes", "200", "--jobs", "2",
                   "--no-rasters", "--out", str(tmp_path / "g")) == 0
        assert [len(r) for r in pool_submitted] == [cli.RUN_SLOTS] * 40
        assert [slot for r in pool_submitted for slot, _ in r] == list(range(200))

    def test_target_file_is_digested(self, tmp_path):
        """The manifest's config_digest covers a --target weights file; a
        named target adds nothing to it."""
        digests = []
        for name, target in [("a", [1, 2]), ("b", [2, 1]), ("uniform", None)]:
            argv = ["--target", _write(tmp_path / f"{name}.json", target)] if target else []
            assert run(*_gen(tmp_path / name, "--no-rasters", *argv)) == 0
            manifest = json.loads((tmp_path / name / "g" / "manifest.json").read_text())
            digests.append(manifest["config_digest"])
        assert digests[0] != digests[1]
        assert digests[2] == hashlib.sha256(b"").hexdigest()

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

    def test_bins_cap(self, gen_dir, capsys):
        path = str(gen_dir / "dataset.json")
        cap = crowd_metrics.MAX_BINS
        assert run("analyze", "--in", path, "--bins", str(cap)) == 0
        assert len(json.loads(capsys.readouterr().out)["histogram"]) == cap
        assert run("analyze", "--in", path, "--bins", str(cap + 1)) == 1
        assert capsys.readouterr().err == (
            f"error: need 1 to {cap} bins, got {cap + 1}\n")

    def test_validate_clean(self, gen_dir, capsys):
        assert run("validate", "--in", str(gen_dir / "dataset.json")) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


    def test_file_output_without_suffix_gets_a_manifest(self, gen_dir, tmp_path):
        out = tmp_path / "report"
        assert run("validate", "--in", str(gen_dir / "dataset.json"),
                   "--out", str(out)) == 0
        assert json.loads(out.read_text())["ok"]
        manifest = json.loads((tmp_path / "report.manifest.json").read_text())
        assert set(manifest["versions"]) == {"python", "numpy"}

    @pytest.mark.parametrize("command", ["augment", "encode", "gen"])
    def test_directory_output_with_suffix_holds_its_manifest(self, tmp_path, command):
        argv = _PATH_COMMANDS[command](tmp_path)
        out = tmp_path / "out.d"
        argv[argv.index("--out") + 1] = str(out)
        assert run(*argv) == 0
        assert json.loads((out / "manifest.json").read_text())["command"][1:] == argv
        assert not (tmp_path / "out.d.manifest.json").exists()

    @pytest.mark.parametrize("command", ["analyze", "eval"])
    def test_ratio_zero_persons_make_one_note(self, tmp_path, capsys, command):
        """Persons whose box holds none of their own keypoints are counted
        into one stderr note, with no warning."""
        doc = _native_doc()
        person = doc["images"][0]["persons"][0]
        person["score"] = 0.5
        doc["images"][0]["persons"] = [person, dict(person, bbox=[50, 50, 5, 5]),
                                       dict(person, bbox=[60, 0, 5, 5])]
        path = _write(tmp_path / "a.json", doc)
        argv = ["analyze", "--in", path] if command == "analyze" else \
            ["eval", "--gt", path, "--pred", path]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv) == 0
        assert not [w for w in caught if issubclass(w.category, UserWarning)]
        assert capsys.readouterr().err == (
            "note: 2 persons with no own keypoints in their box counted as ratio 0\n")

    def test_pose_length_must_match_the_schema(self, tmp_path, capsys):
        """analyze and heatmap encode refuse a pose whose length differs
        from its schema, as eval does; validate reports it."""
        doc = _write(tmp_path / "a.json", _short_pose(_native_doc()))
        message = ("error: person 0 of image 'a' has 3 keypoints; schema "
                   "'crowdpose' expects 14\n")
        assert run("analyze", "--in", doc) == 1
        assert capsys.readouterr().err == message
        assert run("heatmap", "encode", "--in", doc, "--out", str(tmp_path / "hm")) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "hm").exists()
        assert run("eval", "--gt", doc, "--pred", doc) == 1
        capsys.readouterr()
        assert run("validate", "--in", doc) == 0
        report = json.loads(capsys.readouterr().out)
        assert [v["kind"] for v in report["violations"]] == ["schema_mismatch"]

    def test_other_warnings_pass_through(self, gen_dir, monkeypatch, capsys):
        def analyze(args):
            warnings.warn("something else", UserWarning)
            return []
        monkeypatch.setitem(cli.COMMANDS, "analyze", cli.COMMANDS["analyze"]._replace(run=analyze))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("analyze", "--in", "x") == 0
        assert [str(w.message) for w in caught] == ["something else"]
        assert capsys.readouterr().err == ""


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

    # sha256 of augment_log.json then dataset.json, first 16 hex digits
    METHOD_DIGESTS = {
        "objects": "fa7cf346b4c9f2ea",
        "body_parts": "b5b9c64a606fef51",
        "full_body": "12a2b3738aa24a44",
        "parts_and_objects": "4868edff65354907",
        "full_and_objects": "512cdec8436dbb4b",
        "parts_or_objects": "55f29957693b4262",
        "full_or_objects": "3bd330820c8fc8be",
    }

    def test_method_digests(self, gen_dir, tmp_path):
        """Pins the planner's draw order: every method's log and dataset."""
        rng = np.random.default_rng(5)
        AUG.save_inventory(tmp_path / "inv", AUG.CutoutInventory(
            objects=[blob_cutout(rng, 14, 12), blob_cutout(rng, 9, 17)],
            persons=[blob_cutout(rng, 16, 30, kind="full_body"),
                     blob_cutout(rng, 12, 26, kind="full_body")]))
        digests = {}
        for method in self.METHOD_DIGESTS:
            out = tmp_path / method
            assert run("augment", "--method", method, "--seed", "4",
                       "--inventory", str(tmp_path / "inv"),
                       "--in", str(gen_dir / "dataset.json"),
                       "--out", str(out)) == 0
            h = hashlib.sha256()
            for name in ("augment_log.json", "dataset.json"):
                h.update((out / name).read_bytes())
            digests[method] = h.hexdigest()[:16]
        assert digests == self.METHOD_DIGESTS
        assert AUG.METHODS == tuple(self.METHOD_DIGESTS)

    def test_rewritten_inventory_is_read_again(self, gen_dir, tmp_path):
        """A second run in the same process reads the inventory directory's
        new contents, as the manifest digest does."""
        rng = np.random.default_rng(8)
        first, second = (AUG.CutoutInventory(
            objects=[blob_cutout(rng, 6 + 8 * i, 5 + 9 * i)],
            persons=[blob_cutout(rng, 14 + 6 * i, 28 + 8 * i, kind="full_body")])
            for i in range(2))

        def augment(inventory, inv_dir, out):
            AUG.save_inventory(tmp_path / inv_dir, inventory)
            assert run("augment", "--method", "full_and_objects", "--seed", "6",
                       "--inventory", str(tmp_path / inv_dir),
                       "--in", str(gen_dir / "dataset.json"),
                       "--out", str(tmp_path / out)) == 0
            return (tmp_path / out / "augment_log.json").read_bytes()

        before = augment(first, "inv", "a")
        rewritten = augment(second, "inv", "b")
        assert rewritten != before
        assert rewritten == augment(second, "inv_fresh", "c")

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


def _bogus_visibility(doc):
    doc["images"][0]["persons"][0]["keypoints"][0][2] = "bogus"
    return doc


def _short_pose(doc):
    """The first person cut to 3 keypoints of the 14-keypoint schema."""
    person = doc["images"][0]["persons"][0]
    person["keypoints"] = person["keypoints"][:3]
    return doc


def _with_schema(doc, block):
    doc["schema"] = block
    return doc


def _keypoint_row(row):
    """A document edit that sets the first keypoint row to `row`."""
    def edit(doc):
        doc["images"][0]["persons"][0]["keypoints"][0] = row
        return doc
    return edit


def _a_file(d) -> str:
    return _write(d / "afile", "x")


def _write(path, payload) -> str:
    """Write bytes or str as is and anything else as JSON; returns the path."""
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _gen(d, *extra):
    return ["gen", "--seed", "1", "--scenes", "10", "--out", str(d / "g"), *extra]


def _eval(d, *extra, score=0.9):
    scored = _native_doc()
    scored["images"][0]["persons"][0]["score"] = score
    return ["eval", "--gt", _write(d / "gt.json", _native_doc()),
            "--pred", _write(d / "pred.json", scored), "--out", str(d / "r.json"),
            *extra]


def _convert(d, *extra, persons=1, frames=1):
    """convert --from jta of `frames` frames, each with id f0 and `persons`
    persons."""
    rows = [[float(i), 0.0, 0, 0] for i in range(22)]
    doc = {"frames": [{"id": "f0", "width": 64, "height": 48,
                       "people": [{"keypoints": rows}] * persons}] * frames}
    return ["convert", "--from", "jta", "--to", "crowdpose",
            "--in", _write(d / "jta.json", doc), "--out", str(d / "c.json"), *extra]


def _coco(d, **annotation):
    """convert --from coco of one image with one 14-keypoint person, the
    annotation's fields replaced by `annotation`."""
    ann = {"image_id": 1, "bbox": [0, 0, 10, 10], "keypoints": [1, 1, 2] * 14, **annotation}
    doc = {"images": [{"id": 1, "width": 20, "height": 20}], "annotations": [ann],
           "categories": [{"name": "person", "keypoints": [f"k{i}" for i in range(14)]}]}
    return ["convert", "--from", "coco", "--to", "native",
            "--in", _write(d / "coco.json", doc), "--out", str(d / "c.json")]


def _with_ids(*ids):
    """The native document with one copy of its image per id."""
    doc = _native_doc()
    doc["images"] = [dict(doc["images"][0], id=image_id) for image_id in ids]
    return doc


def _encode_ids(d, *ids):
    return ["heatmap", "encode", "--in", _write(d / "a.json", _with_ids(*ids)),
            "--out", str(d / "hm" / "out")]


def _augment_ids(d, *ids):
    """augment over images with these ids, each raster where augment reads
    it: under --images d/img, so that "../x" reads d/x.pam."""
    argv = _augment(d, doc=_with_ids(*ids))
    (d / "img").mkdir()
    for image_id in ids:
        if "\0" not in image_id:
            (d / "img" / f"{image_id}.pam").write_bytes((d / "a.pam").read_bytes())
    return argv + ["--images", str(d / "img")]


def _eval_repeated_gt_id(d):
    """gt lists image a twice, with 1 person and then 2; pred lists a once,
    with a scored copy of the first record's person."""
    gt = _native_doc()
    first = gt["images"][0]
    gt["images"].append(dict(first, persons=first["persons"] * 2))
    pred = _native_doc()
    pred["images"][0]["persons"][0]["score"] = 0.9
    return ["eval", "--gt", _write(d / "gt.json", gt), "--pred", _write(d / "p.json", pred)]


def _pam_header(depth):
    return f"P7\nWIDTH 20\nHEIGHT 20\nDEPTH {depth}\nMAXVAL 255\nENDHDR\n".encode()


def _augment(d, inventory_index=None, image_pam=None, method="objects", box=None,
             doc=None):
    """augment over one 20x20 image; either input may be replaced by bytes,
    the document by another, and the person's box by another [x, y, w, h]."""
    doc = _native_doc() if doc is None else doc
    if box is not None:
        doc["images"][0]["persons"][0]["bbox"] = box
    _write(d / "a.json", doc)
    raster = RasterImage.filled(20, 20, (90, 90, 90, 255))
    _write(d / "a.pam", image_pam or write_pam(raster))
    AUG.save_inventory(d / "inv", AUG.CutoutInventory(
        objects=[blob_cutout(np.random.default_rng(0), 6, 6)]))
    if inventory_index is not None:
        _write(d / "inv" / "inventory.json", inventory_index)
    return ["augment", "--method", method, "--seed", "1", "--in", str(d / "a.json"),
            "--inventory", str(d / "inv"), "--out", str(d / "aug")]


# A heatmap dump of an all-zero 14-keypoint pair.
_ZERO_DUMP = dump_bytes(H.HeatmapPair(np.zeros((2, 14, H.HEATMAP_H, H.HEATMAP_W),
                                              dtype=np.float32)))

# Bad inputs, each an argv builder and its exit code: first those that once
# escaped dispatch with a traceback, then domain errors no other test reaches.
BAD_INPUTS = {
    "top_level_array": (lambda d: ["analyze", "--in", _write(d / "a.json", [])], 1),
    "native_image_without_persons": (lambda d: [
        "analyze", "--in", _write(d / "a.json", _without_persons(_native_doc()))], 1),
    "keypoint_row_xy": (lambda d: [
        "analyze", "--in", _write(d / "a.json", _short_keypoint_row(_native_doc()))], 1),
    "native_visibility_bogus": (lambda d: [
        "analyze", "--in", _write(d / "a.json", _bogus_visibility(_native_doc()))], 1),
    # numpy would read a null coordinate as NaN; float() refuses it
    "keypoint_x_null": (lambda d: [
        "analyze", "--in", _write(d / "a.json", _keypoint_row(
            [None, 1.0, "visible"])(_native_doc()))], 1),
    "keypoint_row_nested": (lambda d: [
        "analyze", "--in", _write(d / "a.json", _keypoint_row(
            [[1.0, 2.0], 3.0, "visible"])(_native_doc()))], 1),
    "eval_keypoint_y_null": (lambda d: [
        "eval", "--gt", _write(d / "gt.json", _native_doc()), "--pred",
        _write(d / "p.json", _keypoint_row([1.0, None, "visible"])(_native_doc()))], 1),
    # an --out that collides with an existing file
    "gen_out_is_file": (lambda d: _gen(d)[:-2] + ["--out", _a_file(d)], 1),
    "gen_out_under_file": (lambda d: _gen(d)[:-2] + ["--out", _a_file(d) + "/sub"], 1),
    "encode_out_is_file": (lambda d: [
        "heatmap", "encode", "--in", _write(d / "a.json", _native_doc()),
        "--out", _a_file(d)], 1),
    "analyze_out_under_file": (lambda d: [
        "analyze", "--in", _write(d / "a.json", _native_doc()),
        "--out", _a_file(d) + "/x.json"], 1),
    "validate_out_under_file": (lambda d: [
        "validate", "--in", _write(d / "a.json", _native_doc()),
        "--out", _a_file(d) + "/v.json"], 1),
    "gen_config_bad_json": (lambda d: _gen(
        d, "--config", _write(d / "c.json", "{not json")), 1),
    "gen_config_unknown_key": (lambda d: _gen(
        d, "--config", _write(d / "c.json", {"no_such_field": 1})), 1),
    "gen_bins_0": (lambda d: _gen(d, "--bins", "0"), 1),
    # above the caps, each of these built a list of 10**9 items first
    "analyze_bins_huge": (lambda d: [
        "analyze", "--bins", "1000000000", "--in", _write(d / "a.json", _native_doc())], 1),
    "gen_scenes_huge": (lambda d: [
        "gen", "--seed", "1", "--scenes", "1000000000", "--bins", "1",
        "--out", str(d / "g")], 1),
    "gen_bins_huge": (lambda d: _gen(d, "--bins", "1000000000"), 1),
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
    # one bin accepts every scene, so only the size check can fail these
    "gen_config_huge_width": (lambda d: _gen(
        d, "--no-rasters", "--bins", "1",
        "--config", _write(d / "c.json", {"image_w": 10 ** 30})), 1),
    "gen_config_huge_count": (lambda d: _gen(
        d, "--no-rasters", "--bins", "1",
        "--config", _write(d / "c.json", {"person_count_range": [1, 101]})), 1),
    # an infinite-looking person height overflowed the draw and the kernels
    "gen_config_huge_scale": (lambda d: _gen(
        d, "--no-rasters", "--bins", "1",
        "--config", _write(d / "c.json", {"scale_range": [40, 1e308]})), 1),
    # a limb radius far above every person height overflowed the flag kernel
    "gen_config_huge_limb_radius": (lambda d: _gen(
        d, "--no-rasters", "--bins", "1",
        "--config", _write(d / "c.json", {"limb_radius_frac": 1e300})), 1),
    "gen_config_attach_prob": (lambda d: _gen(
        d, "--config", _write(d / "c.json", {"attach_prob": 0.5})), 1),
    # --seed sets the seed; a config seed used to be accepted and dropped
    "gen_config_seed": (lambda d: _gen(
        d, "--config", _write(d / "c.json", {"seed": 5})), 1),
    "gen_target_bins_mismatch": (lambda d: _gen(
        d, "--target", _write(d / "t.json", [1, 1, 1]), "--bins", "2"), 1),
    "eval_sigmas_object": (lambda d: _eval(
        d, "--sigmas", _write(d / "s.json", {"a": 1})), 1),
    "eval_sigmas_short": (lambda d: _eval(
        d, "--sigmas", _write(d / "s.json", [1, 2])), 1),
    "eval_sigmas_long": (lambda d: _eval(
        d, "--sigmas", _write(d / "s.json", [0.079] * 40)), 1),
    # a NaN score has no rank, so the AP would depend on the input order
    "eval_score_nan": (lambda d: _eval(d, score=math.nan), 1),
    "convert_mapping_object": (lambda d: _convert(
        d, "--mapping", _write(d / "m.json", {"a": 1})), 1),
    # the mapping is checked even on a frame with no persons
    "convert_bad_mapping_no_persons": (lambda d: _convert(
        d, "--mapping", _write(d / "m.json", [0] * 14), persons=0), 1),
    # a 22-name schema over a 3-keypoint pose
    "convert_pose_length_3_to_crowdpose": (lambda d: [
        "convert", "--from", "native", "--to", "crowdpose", "--out", str(d / "c.json"),
        "--in", _write(d / "a.json", _with_schema(_short_pose(_native_doc()), {
            "name": "jta", "keypoint_names": list(anno.JTA_SCHEMA.keypoint_names)}))], 1),
    "decode_zero_bbox": (lambda d: [
        "heatmap", "decode", "--bbox", "0", "0", "0", "0", "--in",
        _write(d / "x.hm", _ZERO_DUMP)], 1),
    "decode_empty_grid": (lambda d: [
        "heatmap", "decode", "--bbox", "0", "0", "10", "10", "--in",
        _write(d / "x.hm", H.DUMP_MAGIC + struct.pack("<III", 1, 0, 5))], 1),
    "augment_inventory_bad_json": (lambda d: _augment(d, inventory_index="{not json"), 1),
    "augment_inventory_objects_int": (lambda d: _augment(
        d, inventory_index={"objects": 5}), 1),
    "augment_pam_width_x": (lambda d: _augment(d, image_pam=(
        b"P7\nWIDTH x\nHEIGHT 20\nDEPTH 4\nMAXVAL 255\nTUPLTYPE RGB_ALPHA\n"
        b"ENDHDR\n" + bytes(20 * 20 * 4))), 1),
    "decode_zero_keypoints": (lambda d: [
        "heatmap", "decode", "--bbox", "0", "0", "10", "10", "--in",
        _write(d / "x.hm", H.DUMP_MAGIC + struct.pack("<III", 0, 64, 48))], 1),
    "decode_bbox_nan": (lambda d: [
        "heatmap", "decode", "--bbox", "nan", "0", "10", "10", "--in",
        _write(d / "x.hm", _ZERO_DUMP)], 1),
    # the crop scale 192 / 5e-324 overflows to inf
    "decode_bbox_subnormal": (lambda d: [
        "heatmap", "decode", "--bbox", "0", "0", "5e-324", "5e-324", "--in",
        _write(d / "x.hm", _ZERO_DUMP)], 1),
    "decode_threshold_nan": (lambda d: [
        "heatmap", "decode", "--bbox", "0", "0", "10", "10", "--threshold", "nan",
        "--in", _write(d / "x.hm", _ZERO_DUMP)], 1),
    "encode_sigma_inf": (lambda d: [
        "heatmap", "encode", "--sigma", "inf", "--out", str(d / "hm"),
        "--in", _write(d / "a.json", _native_doc())], 1),
    "encode_sigma_nan": (lambda d: [
        "heatmap", "encode", "--sigma", "nan", "--out", str(d / "hm"),
        "--in", _write(d / "a.json", _native_doc())], 1),
    "encode_sigma_underflow": (lambda d: [
        "heatmap", "encode", "--sigma", "1e-300", "--out", str(d / "hm"),
        "--in", _write(d / "a.json", _native_doc())], 1),
    "losscheck_alpha_nan": (lambda d: ["losscheck", "--trials", "1", "--alpha", "nan"], 1),
    "losscheck_alpha_inf": (lambda d: ["losscheck", "--trials", "1", "--alpha", "inf"], 1),
    # finite, but above the caps that keep the check's loss from
    # overflowing: a config error, not a failed check
    "losscheck_alpha_huge": (lambda d: [
        "losscheck", "--trials", "1", "--alpha", "1e308"], 1),
    "losscheck_fd_step_huge": (lambda d: [
        "losscheck", "--trials", "1", "--fd-step", "1e308"], 1),
    "losscheck_fd_step_nan": (lambda d: [
        "losscheck", "--trials", "1", "--fd-step", "nan"], 1),
    "losscheck_fd_step_inf": (lambda d: [
        "losscheck", "--trials", "1", "--fd-step", "inf"], 1),
    "augment_box_width_nan": (lambda d: _augment(d, box=[0, 0, math.nan, 10]), 1),
    "augment_box_width_inf": (lambda d: _augment(d, box=[0, 0, math.inf, 10]), 1),
    "augment_box_area_overflow": (lambda d: _augment(
        d, box=[0, 0, 1e308, 10]), 1),
    "augment_box_edge_overflow": (lambda d: _augment(
        d, box=[1e308, 0, 1e308, 1]), 1),
    # a pose shorter than its schema encoded to a 3-channel pair
    "encode_pose_length_3": (lambda d: [
        "heatmap", "encode", "--out", str(d / "hm"),
        "--in", _write(d / "a.json", _short_pose(_native_doc()))], 1),
    "analyze_pose_length_3": (lambda d: [
        "analyze", "--in", _write(d / "a.json", _short_pose(_native_doc()))], 1),
    "encode_without_out": (lambda d: [
        "heatmap", "encode", "--in", _write(d / "a.json", _native_doc())], 2),
    "augment_pose_length_3": (lambda d: _augment(d, doc=_short_pose(_native_doc())), 1),
    # domain errors that exit 1 by design
    "decode_bad_magic": (lambda d: [
        "heatmap", "decode", "--bbox", "0", "0", "10", "10", "--in",
        _write(d / "x.hm", b"NOPE" + _ZERO_DUMP[4:])], 1),
    "decode_truncated": (lambda d: [
        "heatmap", "decode", "--bbox", "0", "0", "10", "10", "--in",
        _write(d / "x.hm", _ZERO_DUMP[:-4])], 1),
    # K * H * W near 2**96: the length check, not frombuffer, refuses it
    "decode_huge_header": (lambda d: [
        "heatmap", "decode", "--bbox", "0", "0", "10", "10", "--in",
        _write(d / "x.hm", H.DUMP_MAGIC + struct.pack("<III", *[2**32 - 1] * 3)
               + _ZERO_DUMP[16:])], 1),
    "augment_pam_depth_3": (lambda d: _augment(
        d, image_pam=_pam_header(3) + bytes(20 * 20 * 3)), 1),
    "augment_pam_truncated": (lambda d: _augment(
        d, image_pam=_pam_header(4) + bytes(20 * 20 * 4 - 1)), 1),
    "coco_unknown_image_id": (lambda d: _coco(d, image_id=2), 1),
    "coco_keypoints_not_triples": (lambda d: _coco(d, keypoints=[1, 1, 2] * 14 + [1]), 1),
    "coco_visibility_5": (lambda d: _coco(d, keypoints=[1, 1, 5] + [1, 1, 2] * 13), 1),
    "coco_more_keypoints_than_names": (lambda d: _coco(d, keypoints=[1, 1, 2] * 15), 1),
    "convert_14_keypoints_to_crowdpose": (lambda d: [
        "convert", "--from", "native", "--to", "crowdpose",
        "--in", _write(d / "a.json", _native_doc()), "--out", str(d / "c.json")], 1),
    "gen_config_depth_model": (lambda d: _gen(
        d, "--config", _write(d / "c.json", {"depth_model": "x"})), 1),
    # nested past the interpreter's recursion limit
    "validate_nested_too_deeply": (lambda d: [
        "validate", "--in", _write(d / "a.json", "[" * 10 ** 5 + "]" * 10 ** 5)], 1),
    "eval_sigmas_nested_too_deeply": (lambda d: _eval(
        d, "--sigmas", _write(d / "s.json", "[" * 10 ** 5 + "]" * 10 ** 5)), 1),
    "validate_not_utf8": (lambda d: [
        "validate", "--in", _write(d / "a.json", b"\xff\xfe{}")], 1),
    "native_schema_duplicate_names": (lambda d: [
        "validate", "--in", _write(d / "a.json", _with_schema(
            _native_doc(), {"name": "x", "keypoint_names": ["a", "a"]}))], 1),
    # an integer beyond the float range
    "eval_sigmas_overflow": (lambda d: _eval(
        d, "--sigmas", _write(d / "s.json", [10 ** 400] * 14)), 1),
    # image ids that name no file of their own: each once wrote outside --out,
    # wrote one file for two images, or ended in a ValueError traceback
    "encode_image_id_escapes": (lambda d: _encode_ids(d, "../escaped"), 1),
    "encode_image_id_repeated": (lambda d: _encode_ids(d, "a", "a"), 1),
    "encode_image_id_nul": (lambda d: _encode_ids(d, "a\0b"), 1),
    "encode_image_id_empty": (lambda d: _encode_ids(d, ""), 1),
    "encode_image_id_dot": (lambda d: _encode_ids(d, "."), 1),
    "encode_image_id_dotdot": (lambda d: _encode_ids(d, ".."), 1),
    "augment_image_id_escapes": (lambda d: _augment_ids(d, "../esc"), 1),
    "augment_image_id_repeated": (lambda d: _augment_ids(d, "a", "a"), 1),
    "augment_image_id_nul": (lambda d: _augment_ids(d, "a\0b"), 1),
    # it counted the second gt record in the place of both
    "eval_repeated_gt_image_id": (_eval_repeated_gt_id, 1),
    # it wrote a document that every reader of it refused
    "convert_jta_repeated_frame_id": (lambda d: _convert(d, frames=2), 1),
    "validate_jta_repeated_frame_id": (lambda d: [
        "validate", "--format", "jta", "--in", _convert(d, frames=2)[-3]], 1),
    "validate_native_repeated_image_id": (lambda d: [
        "validate", "--in", _write(d / "a.json", _with_ids("f0", "f0"))], 1),
}


# Commands that write, each made to fail partway or at its manifest by a
# directory in a file's place or a missing input. Each takes the work dir,
# the directory `root` that holds --out, and a 12-scene corpus, and returns
# the argv and the path the error names.

def _gen_partway(d, root, corpus):
    (root / "g" / "scene_00004_depth.pam").mkdir(parents=True)
    return _gen(root), root / "g" / "scene_00004_depth.pam"


def _gen_manifest(d, root, corpus):
    (root / "g" / "manifest.json").mkdir(parents=True)
    return _gen(root), root / "g" / "manifest.json"


def _augment_missing_pam(d, root, corpus):
    (corpus / "scene_00010.pam").unlink()
    AUG.save_inventory(d / "inv", AUG.CutoutInventory(
        objects=[blob_cutout(np.random.default_rng(0), 6, 6)]))
    return (["augment", "--method", "objects", "--seed", "1", "--inventory", str(d / "inv"),
             "--in", str(corpus / "dataset.json"), "--out", str(root / "new" / "aug")],
            corpus / "scene_00010.pam")


def _encode_partway(d, root, corpus):
    (root / "hm" / "scene_00005_p0.hm").mkdir(parents=True)
    return (["heatmap", "encode", "--in", str(corpus / "dataset.json"),
             "--out", str(root / "hm")], root / "hm" / "scene_00005_p0.hm")


def _convert_manifest(d, root, corpus):
    (root / "c.json.manifest.json").mkdir()
    return _convert(d)[:-2] + ["--out", str(root / "c.json")], root / "c.json.manifest.json"


def _analyze_manifest(d, root, corpus):
    (root / "out1" / "a.json.manifest.json").mkdir(parents=True)
    return (["analyze", "--in", str(corpus / "dataset.json"),
             "--out", str(root / "out1" / "a.json")], root / "out1" / "a.json.manifest.json")


def _validate_manifest(d, root, corpus):
    # a file --out without a suffix gets its manifest beside it
    (root / "v.manifest.json").mkdir()
    return (["validate", "--in", str(corpus / "dataset.json"), "--out", str(root / "v")],
            root / "v.manifest.json")


def _decode_manifest(d, root, corpus):
    (root / "p.json.manifest.json").mkdir()
    return (["heatmap", "decode", "--in", _hm_file(d), "--bbox", "0", "0", "10", "10",
             "--out", str(root / "p.json")], root / "p.json.manifest.json")


def _eval_csv(d, root, corpus):
    # the report lands in directories the run makes, then --csv fails
    (root / "r.csv").mkdir()
    return (_eval(d)[:-2] + ["--out", str(root / "new" / "deep" / "r.json"),
                             "--csv", str(root / "r.csv")], root / "r.csv")


FAILING_WRITES = {f.__name__.lstrip("_"): f for f in (
    _gen_partway, _gen_manifest, _augment_missing_pam, _encode_partway,
    _convert_manifest, _analyze_manifest, _validate_manifest, _decode_manifest,
    _eval_csv)}


def _tree(root):
    """Every path under root, with the bytes of each file."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


class TestExitCodes:
    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_bad_input_exits_with_one_error_line(self, name, tmp_path, capsys):
        build, code = BAD_INPUTS[name]
        assert run(*build(tmp_path)) == code
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("cmd, strerror", [
        (["gen", "--seed", "1", "--scenes", "10", "--no-rasters"], "File exists"),
        (["heatmap", "encode"], "File exists"),
        (["augment", "--method", "objects", "--seed", "1"], "File exists")])
    def test_out_is_a_file_names_it(self, tmp_path, capsys, cmd, strerror):
        argv = {"gen": lambda: cmd, "heatmap": lambda: cmd + [
            "--in", _write(tmp_path / "a.json", _native_doc())],
            "augment": lambda: _augment(tmp_path)[:-2]}[cmd[0]]()
        afile = _a_file(tmp_path)
        assert run(*argv, "--out", afile) == 1
        assert capsys.readouterr().err == f"error: {strerror}: {afile}\n"
        assert (tmp_path / "afile").read_text() == "x"

    def test_gen_write_failure_removes_what_it_made(self, tmp_path, capsys, monkeypatch):
        """An OSError while writing (a full disk here) exits 1, and gen
        removes the files and directories it made."""
        def full(*_):
            raise OSError(28, "No space left on device", "dataset.json")
        monkeypatch.setattr(anno, "native_document", full)
        out = tmp_path / "new" / "gen"
        assert run(*_gen(tmp_path)[:-2], "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: No space left on device: dataset.json\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch):
        """A command that runs out of memory after writing part of its
        output exits 1 with one error line and leaves nothing behind."""
        def exhausted(args):
            (cli.Path(args.out) / "sub").mkdir(parents=True)
            (cli.Path(args.out) / "sub" / "part.pam").write_bytes(b"x")
            raise MemoryError
        monkeypatch.setitem(cli.COMMANDS, "gen", cli.COMMANDS["gen"]._replace(run=exhausted))
        assert run(*_gen(tmp_path)) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []

    def test_gen_into_a_directory_in_a_file_place(self, tmp_path, capsys):
        """A directory where dataset.json goes: gen exits 1, removes the
        rasters it wrote and leaves the directory as it was."""
        out = tmp_path / "g"
        (out / "dataset.json").mkdir(parents=True)
        assert run(*_gen(tmp_path)) == 1
        assert capsys.readouterr().err == \
            f"error: Is a directory: {out / 'dataset.json'}\n"
        assert [p.name for p in out.iterdir()] == ["dataset.json"]
        assert not any((out / "dataset.json").iterdir())

    @pytest.mark.parametrize("name", sorted(FAILING_WRITES))
    def test_failed_command_leaves_out_as_it_was(self, name, gen_dir, tmp_path, capsys):
        """A command that fails after writing some of its output, or at its
        manifest, removes what it made; what was there before stays."""
        root = tmp_path / "root"
        root.mkdir()
        (root / "keep.txt").write_text("kept")
        argv, culprit = FAILING_WRITES[name](tmp_path, root, gen_dir)
        before = _tree(root)
        assert run(*argv) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and str(culprit) in errors[0]
        assert _tree(root) == before

    def test_new_parent_keeps_a_sibling_output(self, tmp_path, capsys, monkeypatch):
        """Two runs into runs/1 and runs/2 both find runs/ new. When one
        fails, it removes its own output but not runs/, which holds the
        other's finished corpus."""
        sibling = tmp_path / "runs" / "2" / "dataset.json"

        def full(*_):
            sibling.parent.mkdir(parents=True)
            sibling.write_text("other run")
            raise OSError(28, "No space left on device", "dataset.json")
        monkeypatch.setattr(anno, "native_document", full)
        assert run(*_gen(tmp_path)[:-2], "--out", str(tmp_path / "runs" / "1")) == 1
        assert capsys.readouterr().err == "error: No space left on device: dataset.json\n"
        assert _tree(tmp_path) == {"runs": None, "runs/2": None,
                                   "runs/2/dataset.json": b"other run"}

    def test_partial_manifest_is_removed(self, tmp_path, capsys, monkeypatch):
        """A disk that fills while the manifest is written: the report and
        the part of the manifest beside it both go."""
        write_text = cli.Path.write_text

        def full(path, text, **kw):
            if not path.name.endswith(".manifest.json"):
                return write_text(path, text, **kw)
            write_text(path, text[:10], **kw)
            raise OSError(28, "No space left on device", str(path))
        monkeypatch.setattr(cli.Path, "write_text", full)
        (tmp_path / "keep.txt").write_text("kept")
        assert run("analyze", "--in", _write(tmp_path / "a.json", _native_doc()),
                   "--out", str(tmp_path / "stats.json")) == 1
        assert capsys.readouterr().err.startswith("error: No space left on device")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "keep.txt"]

    def test_augment_method_none_usage_error(self, tmp_path, capsys):
        assert run(*_augment(tmp_path)) == 0
        assert run(*_augment(tmp_path, method="none")) == 2

    @pytest.mark.parametrize("method", ["objects", "full_and_objects", "body_parts"])
    @pytest.mark.parametrize("box", [[0, 0, 1e300, 1], [0, 0, 1e5, 1e5],
                                     [-1e5, -1e5, 2e5, 2e5]])
    def test_augment_huge_box(self, tmp_path, method, box):
        # built at full size, a 1e300-wide paste overflows numpy and a
        # 1e5 x 1e5 one needs tens of GB: only the part inside the image is
        argv = _augment(tmp_path, method=method, box=box)
        AUG.save_inventory(tmp_path / "inv", AUG.CutoutInventory(
            objects=[blob_cutout(np.random.default_rng(0), 6, 6)],
            persons=[blob_cutout(np.random.default_rng(1), 8, 16, kind="full_body")]))
        assert run(*argv) == 0
        log = json.loads((tmp_path / "aug" / "augment_log.json").read_text())
        assert log["a"]["placements"]

    def test_augment_nonfinite_keypoint_keeps_its_flag(self, tmp_path):
        doc = _native_doc()
        keypoints = doc["images"][0]["persons"][0]["keypoints"]
        for k, value in enumerate((math.nan, math.inf, -math.inf)):
            keypoints[k][0] = value
        assert run(*_augment(tmp_path, doc=doc)) == 0
        out = json.loads((tmp_path / "aug" / "dataset.json").read_text())
        flags = [row[2] for row in out["images"][0]["persons"][0]["keypoints"][:3]]
        assert flags == ["visible"] * 3

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


def _json_containers(children):
    # a named def: hypothesis parses `extend`'s source to check that it uses
    # its argument, and a lambda's source inside a call does not parse alone
    return (st.lists(children, max_size=5)
            | st.dictionaries(st.sampled_from(sorted(
                f.name for f in dataclasses.fields(synthgen.SceneConfig)))
                | st.text(max_size=6), children, max_size=4))


_JSON = st.recursive(_JSON_LEAVES, _json_containers, max_leaves=16)


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


# The edges of the float range: NaN, the infinities, the largest and
# smallest magnitudes, and negative zero.
_EXTREME_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308,
                                   5e-324, -0.0])


def _hm_file(d):
    return _write(d / "x.hm", _ZERO_DUMP)


# Each command over valid inputs, as an argv of paths under the work dir.
_PATH_COMMANDS = {
    "convert": _convert,
    "validate": lambda d: ["validate", "--in", _write(d / "a.json", _native_doc()),
                           "--out", str(d / "v.json")],
    "analyze": lambda d: ["analyze", "--in", _write(d / "a.json", _native_doc()),
                          "--out", str(d / "s.json")],
    "augment": lambda d: _augment_ids(d, "a"),
    "gen": lambda d: _small_gen(d, "--bins", "1"),
    "encode": lambda d: ["heatmap", "encode", "--in", _write(d / "a.json", _native_doc()),
                         "--out", str(d / "hm")],
    "decode": lambda d: ["heatmap", "decode", "--bbox", "0", "0", "10", "10",
                         "--in", _hm_file(d), "--out", str(d / "p.json")],
    "eval": _eval,
}
_PATH_FLAGS = [(name, flag) for name in _PATH_COMMANDS for flag in ("--in", "--out")
               if (name, flag) not in (("gen", "--in"), ("eval", "--in"))]
_PATH_FLAGS += [("augment", "--images"), ("augment", "--inventory")]
_PATH_STATES = ("missing", "file", "empty_dir", "under_file", "two_under_file",
                "holds_truncated", "truncated")


def _path_in_state(d, valid: str, state: str, name: str = "state") -> str:
    """A path d/name in `state` to stand in for `valid`, an input file or
    directory or a new output path; "valid" leaves `valid` as it is."""
    if state == "valid":
        return valid
    path, valid = d / name, Path(valid)
    if state == "file":  # foreign bytes, also where a directory is expected
        path.write_bytes(b"foreign\n")
    elif state == "empty_dir":  # also where a file is expected
        path.mkdir()
    elif state in ("under_file", "two_under_file"):
        path.write_bytes(b"x")
        path = path / "sub" if state == "under_file" else path / "sub" / "deeper"
    elif state == "holds_truncated":  # the valid files cut short, in a directory
        if valid.is_dir():
            shutil.copytree(valid, path)
        else:
            path.mkdir()
            if valid.is_file():
                shutil.copy(valid, path)
            else:  # an output: a foreign file under a name the command may write
                (path / "dataset.json").write_bytes(b'{"format": "crowdpose-kit/dat')
        for f in path.iterdir():
            f.write_bytes(f.read_bytes()[:f.stat().st_size // 2])
    elif state == "truncated" and valid.is_file():
        path.write_bytes(valid.read_bytes()[:valid.stat().st_size // 2])
    elif state == "truncated":  # an output or a directory: a file cut short
        path.write_bytes(b'{"format": "crowdpose-kit/dat')
    return str(path)


class TestPathStates:
    """Every path flag of every command, in each state a path can be in:
    missing, a file where a directory is expected or a directory where a
    file is, one or two levels under a file, or holding or being a file
    cut short. Read-only paths are left out: run as root, the suite would
    find that permission bits do not stop a write."""

    @pytest.mark.parametrize("state", _PATH_STATES)
    @pytest.mark.parametrize("command, flag", _PATH_FLAGS)
    def test_path_state_exits_cleanly(self, tmp_path, capsys, command, flag, state):
        argv = _PATH_COMMANDS[command](tmp_path)
        at = argv.index(flag) + 1
        argv[at] = _path_in_state(tmp_path, argv[at], state)
        before = _tree(tmp_path)
        code = run(*argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 1:
            assert len([line for line in err.splitlines() if "error:" in line]) == 1
        if code:
            assert _tree(tmp_path) == before
        if flag == "--out" and state.endswith("under_file"):  # every command names the file
            assert err == f"error: File exists: {tmp_path / 'state'}\n"

    @settings(max_examples=100, deadline=None)
    @given(states=st.lists(st.sampled_from(("valid",) + _PATH_STATES), min_size=4, max_size=4))
    def test_augment_paths_in_any_states(self, tmp_path_factory, states):
        """augment's four path flags at once, each valid or in any state."""
        d = tmp_path_factory.mktemp("augment")
        argv = _augment_ids(d, "a")
        for flag, state in zip(("--in", "--out", "--images", "--inventory"), states):
            at = argv.index(flag) + 1
            argv[at] = _path_in_state(d, argv[at], state, flag.strip("-"))
        before = _tree(d)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = dispatch(argv)
        assert code in (0, 1)
        if code:
            assert err.getvalue().count("error:") == 1
            assert _tree(d) == before


# Float flags, each with a function of the work dir and the value as text
# that returns the argv.
_FLOAT_FLAGS = {
    "--sigma": lambda d, v: ["heatmap", "encode", f"--sigma={v}", "--out", str(d / "hm"),
                             "--in", _write(d / "a.json", _native_doc())],
    "--threshold": lambda d, v: ["heatmap", "decode", f"--threshold={v}", "--in",
                                 _hm_file(d), "--bbox", "0", "0", "10", "10"],
    "--alpha": lambda d, v: ["losscheck", "--trials", "1", f"--alpha={v}"],
    "--fd-step": lambda d, v: ["losscheck", "--trials", "1", f"--fd-step={v}"],
    "--bbox X": lambda d, v: ["heatmap", "decode", "--in", _hm_file(d),
                              "--bbox", v, "0", "10", "10"],
    "--bbox W": lambda d, v: ["heatmap", "decode", "--in", _hm_file(d),
                              "--bbox", "0", "0", v, "10"],
}

# Every command that reads a native document, given the work dir and the
# document's path.
_DOC_COMMANDS = {
    "validate": lambda d, doc: ["validate", "--in", doc],
    "analyze": lambda d, doc: ["analyze", "--in", doc],
    "heatmap encode": lambda d, doc: ["heatmap", "encode", "--in", doc,
                                      "--out", str(d / "hm")],
    "eval": lambda d, doc: ["eval", "--gt", doc, "--pred", doc],
    "convert": lambda d, doc: ["convert", "--from", "native", "--to", "native",
                               "--in", doc, "--out", str(d / "c.json")],
}

# Float fields of the native document's person entry, as key paths.
_DOC_FIELDS = ([("bbox", i) for i in range(4)] + [("score",)]
               + [("keypoints", k, j) for k in range(14) for j in range(2)])


def _fuzzed_doc(path, value) -> dict:
    doc = _native_doc()
    node = doc["images"][0]["persons"][0]
    node["score"] = 0.9
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestFloatFuzz:
    # an infinite or huge keypoint once printed numpy warnings from both
    @example(target="heatmap encode", field=("keypoints", 0, 0), value=math.inf)
    @example(target="heatmap encode", field=("keypoints", 0, 1), value=1e308)
    @example(target="eval", field=("keypoints", 0, 0), value=-math.inf)
    # a huge box's area overflowed with a numpy warning
    @example(target="eval", field=("bbox", 2), value=1e308)
    # a huge alpha or step overflowed the check's loss, and warned on exit 1
    @example(target="--alpha", field=("score",), value=1e308)
    @example(target="--fd-step", field=("score",), value=1e308)
    # a float32 pair's confidences compared with a huge threshold in float32
    # overflowed it with a numpy warning
    @example(target="--threshold", field=("score",), value=1e308)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(target=st.sampled_from(sorted(_FLOAT_FLAGS) + sorted(_DOC_COMMANDS)
                                  + ["augment"]),
           field=st.sampled_from(_DOC_FIELDS), value=_EXTREME_FLOATS)
    def test_extreme_floats_exit_cleanly(self, tmp_path, target, field, value):
        if target in _FLOAT_FLAGS:
            argv = _FLOAT_FLAGS[target](tmp_path, repr(value))
        elif target == "augment":
            argv = _augment(tmp_path, doc=_fuzzed_doc(field, value))
        else:
            doc = _write(tmp_path / "doc.json", _fuzzed_doc(field, value))
            argv = _DOC_COMMANDS[target](tmp_path, doc)
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = dispatch(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        # no run prints numpy warning lines, whether it succeeds or fails
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if "PASS" in out.getvalue():
            error = float(out.getvalue().split("=")[1].split()[0])
            assert math.isfinite(error) and error < 1e-5


# The float and integer extremes, and each SceneConfig cap with the value
# just above it.
_CONFIG_EDGES = [1e308, 5e-324, -0.0, 2**63] + [
    v for cap in (synthgen.MAX_IMAGE_SIDE, synthgen.MAX_PERSONS,
                  synthgen.MAX_PERSON_HEIGHT) for v in (cap, cap + 1)]


class TestConfigEdges:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(sorted(cli._SCENE_FIELDS)),
           value=st.sampled_from(_CONFIG_EDGES))
    def test_edge_value_exits_cleanly(self, tmp_path, field, value):
        """One `gen --config` field at an edge: a pair field gets it as
        both ends. Every value exits 0, 1 or 2, with one error line on 1,
        no traceback and no numpy warning."""
        config = _write(tmp_path / "c.json",
                        {field: [value, value] if field.endswith("_range") else value})
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = dispatch(["gen", "--seed", "1", "--scenes", "2", "--bins", "1",
                             "--no-rasters", "--config", config,
                             "--out", str(tmp_path / "g")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code == 1:
            assert err.getvalue().count("error:") == 1


def _flags(command: str) -> list:
    """(first option string, dest) of every flag that `command`, a
    cli.COMMANDS key, declares."""
    parser = argparse.ArgumentParser()
    cli.COMMANDS[command].flags(parser)
    return [(action.option_strings[0], action.dest) for action in parser._actions
            if action.option_strings and action.dest != "help"]


def _args_read(func) -> set:
    """Every name that `func` reads as `args.<name>`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


# Flags a command takes without reading them, each with the callers that
# pass it and would fail if it went.
UNREAD_FLAGS = {
    ("augment", "--jobs"): "bench/workloads.py train_prep step 'augment'; ACCEPTANCE 9",
    ("eval", "--jobs"): "bench/workloads.py eval_crowded step 'eval'; ACCEPTANCE 9",
}

def _doc_command(name):
    """The _DOC_COMMANDS argv of `name` over a valid document."""
    return lambda d: _DOC_COMMANDS[name](d, _write(d / "a.json", _native_doc()))


def _decode(d):
    return ["heatmap", "decode", "--in", _hm_file(d), "--bbox", "0", "0", "10", "10"]


# Each flag that a command once took and ignored: a function of the work dir
# that returns a valid argv for that command, and the flag with its value.
_SEED = ["--seed", "1"]
_REMOVED_FLAGS = {
    "convert --seed": (_convert, _SEED),
    "validate --seed": (_doc_command("validate"), _SEED),
    "analyze --seed": (_doc_command("analyze"), _SEED),
    "eval --seed": (_eval, _SEED),
    "heatmap encode --seed": (_doc_command("heatmap encode"), _SEED),
    "heatmap encode --bbox": (_doc_command("heatmap encode"), ["--bbox", "0", "0", "10", "10"]),
    "heatmap encode --threshold": (_doc_command("heatmap encode"), ["--threshold", "0.5"]),
    "heatmap decode --seed": (_decode, _SEED),
    "heatmap decode --sigma": (_decode, ["--sigma", "2"]),
    "gen --tolerance": (_gen, ["--tolerance", "0.03"]),
}


class TestFlags:
    def test_every_flag_is_read_by_its_command(self):
        """Each option of each command is read as args.<dest> in the
        function that runs it; only UNREAD_FLAGS are not."""
        unread = []
        for command, entry in cli.COMMANDS.items():
            read = _args_read(entry.run)
            unread += [(command, flag) for flag, dest in _flags(command) if dest not in read]
        assert sorted(unread) == sorted(UNREAD_FLAGS)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_help_lists_every_flag(self, command, capsys):
        assert run(*command.split(), "--help") == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: crowdpose-kit {command} [-h]")
        listed = set(re.findall(r"(?<![\w-])--[\w-]+", out)) - {"--help"}
        assert listed == {flag for flag, _ in _flags(command)}

    def test_unknown_command_names_every_command(self, capsys):
        assert run("bogus") == 2
        err = capsys.readouterr().err
        assert "error: argument command: invalid choice: 'bogus'" in err
        assert len(cli.COMMANDS) == 9
        for command in cli.COMMANDS:
            assert f"'{command.split()[0]}'" in err

    def test_group_without_action_is_a_usage_error(self, capsys):
        assert run("heatmap") == 2
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: {encode,decode}\n")

    @pytest.mark.parametrize("name", sorted(_REMOVED_FLAGS))
    def test_removed_flag_is_a_usage_error(self, name, tmp_path, capsys):
        build, flag = _REMOVED_FLAGS[name]
        argv = build(tmp_path)
        assert run(*argv) == 0
        capsys.readouterr()
        assert run(*argv, *flag) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_manifest_seed_is_null_without_a_seed_flag(self, tmp_path):
        out = tmp_path / "stats.json"
        assert run("analyze", "--in", _write(tmp_path / "a.json", _native_doc()),
                   "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
        assert manifest["seed"] is None


# What `import crowdpose_kit.cli` loads of the package.
_CLI_LOADS = ("crowdpose_kit", "crowdpose_kit.annotations", "crowdpose_kit.cli",
              "crowdpose_kit.errors")
# The package modules each command runs, with the modules they import, and
# numpy.random for the commands that draw.
_COMMAND_LOADS = {
    "convert": (),
    "validate": (),
    "analyze": ("crowd_metrics",),
    "augment": ("augment", "masks", "seeding", "numpy.random"),
    "gen": ("synthgen", "crowd_metrics", "masks", "seeding", "numpy.random"),
    "heatmap encode": ("heatmaps",),
    "heatmap decode": ("heatmaps",),
    "losscheck": ("occloss", "heatmaps", "seeding", "numpy.random"),
    "eval": ("evaluator", "crowd_metrics"),
}
# Each command over valid inputs, as an argv of paths under the work dir.
_RUN_ARGV = {**_PATH_COMMANDS, "heatmap encode": _PATH_COMMANDS["encode"],
             "heatmap decode": _PATH_COMMANDS["decode"],
             "losscheck": lambda d: ["losscheck", "--trials", "1"]}

# Run in a fresh interpreter with the command words and the argv as JSON:
# prints what is loaded after the import, after `--help` (with its exit
# code) and after the run.
_FOOTPRINT_CHILD = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "crowdpose_kit"
                  or m in ("numpy.random", "concurrent.futures", "multiprocessing"))
from crowdpose_kit import cli
words, argv = sys.argv[1].split(), json.loads(sys.argv[2])
stages = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    stages["help"] = [cli.dispatch([*words, "--help"]), loaded()]
    stages["run"] = [cli.dispatch(argv), loaded()]
print(json.dumps(stages))
"""


class TestImportFootprint:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_command_loads_only_what_it_runs(self, tmp_path, command):
        """In a fresh interpreter, importing the CLI loads only itself,
        `annotations` and `errors`; the command's `--help` loads nothing
        that the command does not run, and running it loads exactly the
        modules it runs, no pool module, and numpy.random only if it draws."""
        argv = _RUN_ARGV[command](tmp_path)
        proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_CHILD, command,
                               json.dumps(argv)], cwd=tmp_path, env=child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        stages = json.loads(proc.stdout)
        runs = sorted({*_CLI_LOADS, *(m if "." in m else f"crowdpose_kit.{m}"
                                      for m in _COMMAND_LOADS[command])})
        assert stages["import"] == list(_CLI_LOADS)
        assert stages["help"][0] == 0 and set(stages["help"][1]) <= set(runs)
        assert stages["run"] == [0, runs]
