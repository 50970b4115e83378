"""Output digests of every command.

golden.json maps "command/variant/seed" to the sha256 over the names and
bytes of every file a run writes (manifests excluded), followed by its
stdout. Every input is built from the seed alone, so a mismatch means an
output byte changed; the failure message prints the new digest.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crowdpose_kit import annotations as anno
from crowdpose_kit import augment as aug
from crowdpose_kit.cli import dispatch

from conftest import blob_cutout

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())
SEEDS = (1, 2)
_COCO_CODE = {anno.Visibility.VISIBLE: 2, anno.Visibility.OCCLUDED: 1,
              anno.Visibility.SELF_OCCLUDED: 1, anno.Visibility.UNLABELED: 0}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """seed -> (dataset.json, heatmap dump directory) of a 12-scene gen,
    with its rasters beside dataset.json."""
    built = {}

    def corpus(seed):
        if seed not in built:
            d = tmp_path_factory.mktemp(f"corpus{seed}")
            assert dispatch(["gen", "--seed", str(seed), "--scenes", "12", "--bins", "3",
                             "--out", str(d / "gen")]) == 0
            assert dispatch(["heatmap", "encode", "--in", str(d / "gen" / "dataset.json"),
                             "--out", str(d / "hm")]) == 0
            built[seed] = d / "gen" / "dataset.json", d / "hm"
        return built[seed]
    return corpus


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _coco_doc(dataset: anno.Dataset, rng) -> dict:
    """The corpus as a COCO-like document with scores, polygon and RLE
    segmentations, and a few violations for validate to report."""
    images, annotations = [], []
    for img in dataset.images:
        images.append({"id": img.id, "width": img.width, "height": img.height,
                       "file_name": f"{img.id}.png"})
        for p in img.persons:
            box = p.bbox
            seg = [[box.x, box.y, box.x + box.w, box.y, box.x + box.w, box.y + box.h]]
            if rng.random() < 0.4:
                seg = {"size": [img.height, img.width],
                       "counts": [img.height * img.width - int(rng.integers(0, 2))]}
            annotations.append({
                "image_id": img.id,
                "keypoints": [v for k in p.pose.keypoints
                              for v in (k.x, k.y, _COCO_CODE[k.vis])],
                "bbox": [box.x, box.y, box.w if rng.random() < 0.9 else 0.0, box.h],
                "score": float(rng.uniform(0.0, 1.2)),
                "track_id": p.track_id,
                "segmentation": seg,
            })
    return {"images": images, "annotations": annotations}


def _jta_doc(rng) -> dict:
    frames = []
    for f in range(3):
        people = []
        for t in range(int(rng.integers(1, 5))):
            rows = [[float(rng.uniform(0, 320)), float(rng.uniform(0, 240)),
                     int(rng.random() < 0.3), int(rng.random() < 0.2)] for _ in range(22)]
            person = {"track_id": t, "keypoints": rows}
            if t % 2:
                person["bbox"] = [float(v) for v in rng.uniform(0, 100, 4)]
            people.append(person)
        frames.append({"id": f"frame_{f}", "width": 320, "height": 240, "people": people})
    return {"frames": frames}


def _predictions(dataset: anno.Dataset, rng) -> anno.Dataset:
    """Jittered, scored copies of every gt person plus one false positive
    per image."""
    images = []
    for img in dataset.images:
        persons = [replace(p, score=float(rng.uniform(0.05, 1.0)), pose=replace(
            p.pose, keypoints=tuple(
                anno.Keypoint(k.x + float(rng.normal(0, 4)), k.y + float(rng.normal(0, 4)),
                              anno.Visibility.VISIBLE) for k in p.pose.keypoints)))
                   for p in img.persons]
        fp = persons[0] if persons else None
        if fp is not None:
            persons.append(replace(fp, score=float(rng.uniform(0.05, 1.0)),
                                   bbox=replace(fp.bbox, x=fp.bbox.x + 30.0)))
        images.append(replace(img, persons=tuple(persons)))
    return anno.Dataset(schema=dataset.schema, images=tuple(images), meta={})


def _decode(corpus, *extra):
    """Decode the first three dumps of the corpus at their own boxes."""
    _, hm = corpus
    index = json.loads((hm / "heatmaps.json").read_text())
    return [["heatmap", "decode", "--in", str(hm / name), *extra,
             "--bbox", *(repr(v) for v in index[name]["bbox"])]
            for name in sorted(index)[:3]]


def _eval(corpus, d, seed):
    gt, _ = corpus
    dataset = anno.parse_dataset(gt.read_bytes(), "native")
    pred = d / "pred.json"
    pred.write_bytes(anno.serialize_dataset(
        _predictions(dataset, np.random.default_rng(seed))))
    return [["eval", "--gt", str(gt), "--pred", str(pred), "--out",
             str(d / "out" / "report.json"), "--csv", str(d / "out" / "report.csv")]]


def _edge_gt(dataset: anno.Dataset) -> anno.Dataset:
    """The corpus with one extra gt person per image: every third image gets
    one without labeled keypoints (no OKS, a NaN column), the next one whose
    box holds none of its own keypoints (CrowdIndex ratio 0)."""
    unlabeled = anno.Keypoint(0.0, 0.0, anno.Visibility.UNLABELED)
    images = []
    for i, img in enumerate(dataset.images):
        persons = img.persons
        if persons and i % 3 == 0:
            p = persons[0]
            persons += (replace(p, pose=replace(
                p.pose, keypoints=(unlabeled,) * len(p.pose.keypoints))),)
        elif persons and i % 3 == 1:
            p = persons[0]
            persons += (replace(p, bbox=replace(p.bbox, x=float(img.width) + 50.0)),)
        images.append(replace(img, persons=persons))
    return replace(dataset, images=tuple(images))


def _eval_edge(corpus, d, seed):
    """eval on _edge_gt with prediction scores rounded to one decimal, so
    scores tie within and across images."""
    dataset = _edge_gt(anno.parse_dataset(corpus[0].read_bytes(), "native"))
    pred = _predictions(dataset, np.random.default_rng(seed))
    pred = replace(pred, images=tuple(
        replace(img, persons=tuple(replace(p, score=round(p.score, 1))
                                   for p in img.persons))
        for img in pred.images))
    gt, pred_path = d / "gt.json", d / "pred.json"
    gt.write_bytes(anno.serialize_dataset(dataset))
    pred_path.write_bytes(anno.serialize_dataset(pred))
    return [["eval", "--gt", str(gt), "--pred", str(pred_path), "--out",
             str(d / "out" / "report.json"), "--csv", str(d / "out" / "report.csv")]]


def _augment(corpus, d, seed, jobs):
    """augment full_and_objects over the corpus rasters with a seeded
    inventory of objects and keypointed full-body cutouts."""
    rng = np.random.default_rng(seed)
    kps = tuple(anno.Keypoint(float(2 + k), float(3 + 2 * k), anno.Visibility.VISIBLE)
                for k in range(14))
    aug.save_inventory(d / "inv", aug.CutoutInventory(
        objects=[blob_cutout(rng, 10 + 4 * i, 8 + 5 * i) for i in range(3)],
        persons=[blob_cutout(rng, 16 + 4 * i, 34 + 6 * i, kind="full_body",
                             keypoints=kps) for i in range(2)]))
    return [["augment", "--method", "full_and_objects", "--seed", str(seed),
             "--jobs", str(jobs), "--inventory", str(d / "inv"), "--in", str(corpus[0]),
             "--out", str(d / "out" / "aug")]]


def _coco(corpus, d, seed):
    dataset = anno.parse_dataset(corpus[0].read_bytes(), "native")
    return _write(d / "coco.json", _coco_doc(dataset, np.random.default_rng(seed)))


def _gen(d, seed, *extra):
    """A 24-scene, 3-bin gen: enough slots that every --jobs value splits
    them into several runs of more than one slot."""
    return [["gen", "--seed", str(seed), "--scenes", "24", "--bins", "3", *extra,
             "--out", str(d / "out" / "gen")]]


# "command/variant" -> function(corpus, work dir, seed) giving the argv lists
CASES = {
    "gen/jobs_1": lambda c, d, s: _gen(d, s, "--jobs", "1"),
    "gen/jobs_2": lambda c, d, s: _gen(d, s, "--jobs", "2"),
    "gen/jobs_3": lambda c, d, s: _gen(d, s, "--jobs", "3"),
    "gen/no_rasters": lambda c, d, s: _gen(d, s, "--no-rasters"),
    "augment/full_and_objects_jobs_1": lambda c, d, s: _augment(c, d, s, 1),
    "augment/full_and_objects_jobs_2": lambda c, d, s: _augment(c, d, s, 2),
    "heatmap_encode/default": lambda c, d, s: [[
        "heatmap", "encode", "--in", str(c[0]), "--out", str(d / "out" / "hm")]],
    "heatmap_encode/sigma_3": lambda c, d, s: [[
        "heatmap", "encode", "--sigma", "3", "--in", str(c[0]),
        "--out", str(d / "out" / "hm")]],
    "heatmap_decode/default": lambda c, d, s: _decode(c),
    "heatmap_decode/threshold_0.9": lambda c, d, s: _decode(c, "--threshold", "0.9"),
    "losscheck/default": lambda c, d, s: [["losscheck", "--trials", "2", "--seed", str(s)]],
    "losscheck/alpha_3": lambda c, d, s: [[
        "losscheck", "--trials", "2", "--alpha", "3", "--seed", str(s)]],
    "analyze/labeled": lambda c, d, s: [[
        "analyze", "--in", str(c[0]), "--bins", "5", "--count-mode", "labeled"]],
    "analyze/visible_only": lambda c, d, s: [[
        "analyze", "--in", str(c[0]), "--bins", "5", "--count-mode", "visible_only"]],
    "validate/native": lambda c, d, s: [["validate", "--in", str(c[0])]],
    "validate/coco": lambda c, d, s: [[
        "validate", "--format", "coco", "--in", _coco(c, d, s)]],
    "convert/jta": lambda c, d, s: [[
        "convert", "--from", "jta", "--to", "crowdpose",
        "--in", _write(d / "jta.json", _jta_doc(np.random.default_rng(s))),
        "--out", str(d / "out" / "crowdpose.json")]],
    "convert/coco": lambda c, d, s: [[
        "convert", "--from", "coco", "--to", "native", "--in", _coco(c, d, s),
        "--out", str(d / "out" / "native.json")]],
    "eval/csv": _eval,
    "eval/edge": _eval_edge,
}


def _digest(case: str, seed: int, corpus, d: Path, capsys) -> str:
    h = hashlib.sha256()
    capsys.readouterr()
    for argv in CASES[case](corpus, d, seed):
        assert dispatch(argv) == 0, argv
    out = d / "out"
    for path in sorted(out.rglob("*")) if out.is_dir() else ():
        if path.is_file() and not path.name.endswith("manifest.json"):
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())
    h.update(capsys.readouterr().out.encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digest(case, seed, corpora, tmp_path, capsys):
    key = f"{case}/{seed}"
    digest = _digest(case, seed, corpora(seed), tmp_path, capsys)
    assert digest == GOLDEN.get(key), f"{key}: output digest is now {digest}"
