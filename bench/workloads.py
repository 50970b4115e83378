"""The three benchmark workloads: inputs, timed steps and output checks.

A workload is a fixed list of steps. A step is either one `cli.dispatch`
call (argv with `{out}` standing for the repetition's output directory) or
the benchmark's own read-back of the heatmap dumps. Every command that
accepts `--jobs` runs with `--jobs 2`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from crowdpose_kit import annotations as anno
from crowdpose_kit import heatmaps
from crowdpose_kit import occloss

from . import inputs

JOBS = 2
LEVEL_EDGES = (0.1, 0.8)  # CrowdIndex easy | medium | hard
LEVELS = ("easy", "medium", "hard")

WHY = {
    "corpus": "gen of default-density scenes with rasters, then analyze and "
              "validate: synthgen planning and capsule rendering do the work",
    "train_prep": "augment, heatmap encode and a read-back with decode and loss: "
                  "masks, augment, heatmaps and occloss do the work; write-heavy",
    "eval_crowded": "eval of seeded predictions on a 2-20 person corpus weighted to "
                    "hard bins: OKS and greedy matching do the work",
}

# Work per repetition. "tiny" is for the smoke test only.
SIZES = {
    "corpus": {"full": 200, "tiny": 10},        # scenes generated
    "train_prep": {"full": 80, "tiny": 10},     # images augmented
    "eval_crowded": {"full": 70, "tiny": 10},   # images evaluated
}


def _level(c: float) -> str:
    return LEVELS[0] if c < LEVEL_EDGES[0] else LEVELS[1] if c < LEVEL_EDGES[1] else LEVELS[2]


def prepare(name: str, work: Path, seed: int, size: str = "full") -> dict:
    """Build a workload's inputs under `work`; returns the repetition spec."""
    n = SIZES[name][size]
    work.mkdir(parents=True, exist_ok=True)
    spec = {"workload": name, "seed": seed, "size": size, "n": n}
    if name == "corpus":
        spec["steps"] = [
            {"label": "gen", "out": "gen",
             "argv": ["gen", "--seed", str(seed), "--scenes", str(n),
                      "--out", "{out}/gen", "--jobs", str(JOBS)]},
            {"label": "analyze", "out": "analyze.json",
             "argv": ["analyze", "--in", "{out}/gen/dataset.json",
                      "--out", "{out}/analyze.json"]},
            {"label": "validate", "out": "validate.json",
             "argv": ["validate", "--in", "{out}/gen/dataset.json",
                      "--out", "{out}/validate.json"]},
        ]
        spec["expect"] = {"histogram": inputs.quotas((1,) * 10, n)}
        spec["items"] = {"gen": n}
    elif name == "train_prep":
        cfg, scenes = inputs.plan(inputs.derived_seed(seed, "train"), n)
        inputs.write_corpus(work / "train", cfg, scenes, rasters=True)
        inputs.build_inventory(work / "inventory", inputs.derived_seed(seed, "inventory"))
        persons = sum(len(s.record.persons) for s in scenes)
        spec["steps"] = [
            {"label": "augment", "out": "aug",
             "argv": ["augment", "--method", "full_and_objects", "--seed", str(seed),
                      "--inventory", str(work / "inventory"),
                      "--in", str(work / "train" / "dataset.json"),
                      "--out", "{out}/aug", "--jobs", str(JOBS)]},
            {"label": "encode", "out": "hm",
             "argv": ["heatmap", "encode", "--in", "{out}/aug/dataset.json",
                      "--out", "{out}/hm"]},
            {"label": "readback", "out": "readback.json", "argv": None},
        ]
        spec["expect"] = {"input": str(work / "train" / "dataset.json")}
        spec["items"] = {"augment": n, "encode": persons}
    elif name == "eval_crowded":
        cfg, scenes = inputs.plan(inputs.derived_seed(seed, "crowded"), n,
                                  inputs.CROWDED_WEIGHTS, inputs.CROWDED_PERSONS)
        gt = inputs.write_corpus(work / "crowded", cfg, scenes, rasters=False)
        pred = inputs.predictions(gt, inputs.derived_seed(seed, "predictions"))
        (work / "crowded" / "pred.json").write_bytes(anno.serialize_dataset(pred))
        images = {level: 0 for level in LEVELS}
        instances = {level: 0 for level in LEVELS}
        for s in scenes:
            images[_level(s.crowd_index)] += 1
            instances[_level(s.crowd_index)] += len(s.record.persons)
        spec["steps"] = [
            {"label": "eval", "out": "report.json",
             "argv": ["eval", "--gt", str(work / "crowded" / "dataset.json"),
                      "--pred", str(work / "crowded" / "pred.json"),
                      "--out", "{out}/report.json", "--jobs", str(JOBS)]},
        ]
        spec["expect"] = {"images": images, "instances": instances}
        spec["items"] = {"eval": n}
    else:
        raise ValueError(f"unknown workload {name!r}")
    return spec


def argv_for(step: dict, out: Path) -> list[str]:
    return [a.replace("{out}", str(out)) for a in step["argv"]]


# --- the benchmark's own timed step ---------------------------------------

def readback(out: Path) -> None:
    """Read every heatmap dump back, decode it against its person's box,
    and score it with loss and loss_grad against the next person's target."""
    dataset = anno.parse_dataset((out / "aug" / "dataset.json").read_bytes(), "native")
    index = json.loads((out / "hm" / "heatmaps.json").read_text(encoding="utf-8"))
    boxes = {(img.id, pi): p.bbox for img in dataset.images
             for pi, p in enumerate(img.persons)}
    cfg = occloss.LossConfig()
    rows = []
    prev = None
    for name in sorted(index):
        entry = index[name]
        pair = heatmaps.read_heatmap_pair((out / "hm" / name).read_bytes())
        bbox = boxes[(entry["image_id"], entry["person_index"])]
        decoded = heatmaps.decode(pair, heatmaps.bbox_to_crop(bbox))
        row = {"name": name,
               "keypoints": [[k.x, k.y, k.vis.value] for k in decoded.pose.keypoints]}
        if prev is not None:
            row["loss"] = occloss.loss(prev, pair, cfg).total
            grad = occloss.loss_grad(prev, pair, cfg)
            row["grad_l1"] = float(np.abs(grad.visible.values).sum()
                                   + np.abs(grad.occluded.values).sum())
        rows.append(row)
        prev = pair
    (out / "readback.json").write_text(json.dumps(rows) + "\n", encoding="utf-8")


# --- output checks (untimed) ----------------------------------------------

def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _check_corpus(spec, out) -> dict:
    fails = {"gen": [], "analyze": [], "validate": []}
    hist = _load(out / "analyze.json")["histogram"]
    if hist != spec["expect"]["histogram"]:
        fails["analyze"].append(f"histogram {hist} != quotas {spec['expect']['histogram']}")
    report = _load(out / "validate.json")
    if not report["ok"] or report["violations"]:
        fails["validate"].append(f"validate reports violations: {report['counts']}")
    images = _load(out / "gen" / "dataset.json")["images"]
    if len(images) != spec["n"]:
        fails["gen"].append(f"{len(images)} scenes, expected {spec['n']}")
    return fails


def _check_augment(spec, out) -> list[str]:
    fails = []
    before = _load(Path(spec["expect"]["input"]))["images"]
    after = _load(out / "aug" / "dataset.json")["images"]
    log = _load(out / "aug" / "augment_log.json")
    if [i["id"] for i in before] != [i["id"] for i in after]:
        return ["augmented image ids differ from the input"]
    for img0, img1 in zip(before, after):
        logged = set()
        for change in log[img0["id"]]["flag_changes"]:
            pi, ki = change["person_index"], change["keypoint_index"]
            old = img0["persons"][pi]["keypoints"][ki][2]
            if change["old"] != old or old not in ("visible", "self_occluded") \
                    or change["new"] != "occluded":
                fails.append(f"{img0['id']}: bad flag change {change}")
            logged.add((pi, ki))
        for pi, (p0, p1) in enumerate(zip(img0["persons"], img1["persons"])):
            for ki, (k0, k1) in enumerate(zip(p0["keypoints"], p1["keypoints"])):
                if k0[:2] != k1[:2]:
                    fails.append(f"{img0['id']} p{pi} k{ki}: coordinates moved")
                if (k0[2] != k1[2]) != ((pi, ki) in logged):
                    fails.append(f"{img0['id']} p{pi} k{ki}: unlogged flag change")
    return fails


def _check_roundtrip(out) -> list[str]:
    """decode(encode(gt)): each encoded keypoint lands in the branch its flag
    implies, within one heatmap cell of the ground truth on each axis."""
    fails = []
    gt = {img["id"]: img for img in _load(out / "aug" / "dataset.json")["images"]}
    index = _load(out / "hm" / "heatmaps.json")
    rows = _load(out / "readback.json")
    if sorted(index) != [r["name"] for r in rows]:
        return ["read-back does not cover every dump"]
    for row in rows:
        entry = index[row["name"]]
        person = gt[entry["image_id"]]["persons"][entry["person_index"]]
        bbox = anno.BBox(*person["bbox"])
        cell = heatmaps.STRIDE / heatmaps.bbox_to_crop(bbox).matrix[0, 0]
        for k, encoded in enumerate(entry["encoded"]):
            if not encoded:
                continue
            x, y, flag = person["keypoints"][k]
            dx, dy, branch = row["keypoints"][k]
            want = "visible" if flag in ("visible", "self_occluded") else "occluded"
            if branch != want:
                fails.append(f"{row['name']} k{k}: branch {branch}, flag {flag}")
            if abs(dx - x) > cell or abs(dy - y) > cell:
                fails.append(f"{row['name']} k{k}: decoded {dx:.2f},{dy:.2f} vs "
                             f"{x:.2f},{y:.2f} (cell {cell:.2f})")
    return fails


def _check_eval(spec, out) -> dict:
    fails = []
    report = _load(out / "report.json")
    for key in ("images", "instances"):
        if report["counts"][key] != spec["expect"][key]:
            fails.append(f"{key} per level {report['counts'][key]} != "
                         f"{spec['expect'][key]}")
    aps = [report["ap"], report["ap_easy"], report["ap_medium"], report["ap_hard"]]
    aps += [t["ap"] for t in report["per_threshold"]]
    if any(a is None or not 0.0 <= a <= 1.0 for a in aps):
        fails.append(f"AP outside [0, 1]: {aps}")
    return {"eval": fails}


def check(spec: dict, out: Path) -> dict:
    """Failed output checks per step label (empty lists when all pass)."""
    name = spec["workload"]
    if name == "corpus":
        return _check_corpus(spec, out)
    if name == "train_prep":
        return {"augment": _check_augment(spec, out), "encode": [],
                "readback": _check_roundtrip(out)}
    return _check_eval(spec, out)


# --- output digests and sizes -----------------------------------------------

def _is_manifest(path: Path) -> bool:
    return path.name == "manifest.json" or path.name.endswith(".manifest.json")


def _files(path: Path) -> list[Path]:
    if path.is_file():
        return [path]
    return sorted(p for p in path.rglob("*") if p.is_file())


def digest(path: Path) -> str:
    """sha256 over relative names and bytes of a step's outputs, manifests excluded."""
    h = hashlib.sha256()
    for f in _files(path):
        if _is_manifest(f):
            continue
        h.update(str(f.relative_to(path.parent)).encode("utf-8") + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def output_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in _files(path) if not _is_manifest(f))


def all_bytes(out: Path) -> int:
    return sum(f.stat().st_size for f in _files(out))
