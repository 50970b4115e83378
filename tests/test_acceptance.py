"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (written straight to the real stderr so pytest capture never
hides it). Run via `pytest tests/test_acceptance.py -v`.
"""

import hashlib
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from crowdpose_kit import annotations as anno
from crowdpose_kit import augment as AUG
from crowdpose_kit import crowd_metrics as CM
from crowdpose_kit import evaluator as E
from crowdpose_kit import heatmaps as H
from crowdpose_kit import occloss as L
from crowdpose_kit import synthgen as S
from crowdpose_kit.annotations import (CROWDPOSE_SCHEMA, JTA_SCHEMA, BBox, Dataset,
                                       ImageRecord, Keypoint, PersonInstance, Pose,
                                       Visibility)
from crowdpose_kit.heatmaps import HeatmapPair
from crowdpose_kit.masks import CUTOUT_FULL_BODY
from crowdpose_kit.seeding import substream

import conftest
import oracles
from conftest import blob_cutout, child_env, make_pose, rand_pose, rand_raster, rand_record


def check(number: int, ok: bool, message: str) -> None:
    line = f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'} - {message}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"criterion {number}: {message}"


# 1 ---------------------------------------------------------------------------

def test_criterion_1_loss_gradient_check():
    started = time.time()
    worst = 0.0
    for alpha in (0.5, 1.5, 3.0):
        cfg = L.LossConfig(alpha=alpha)
        worst = max(worst, L.grad_check(cfg, trials=34, fd_step=1e-4,
                                        seed=int(alpha * 100)))
    elapsed = time.time() - started
    check(1, worst < 1e-5 and elapsed < 30.0,
          f"grad check: max rel err {worst:.2e} (< 1e-5) over 102 instances, "
          f"alphas {{0.5, 1.5, 3}}, {elapsed:.1f}s (< 30s)")


# 2 ---------------------------------------------------------------------------

def test_criterion_2_alpha_ratio_identity():
    rng = substream(42, "alpha-ratio")
    residual = rng.standard_normal((3, 16, 12))
    zeros = lambda: HeatmapPair(np.zeros((2, 3, 16, 12)))  # noqa: E731
    in_vis = HeatmapPair(np.stack([residual, np.zeros_like(residual)]))
    in_occ = HeatmapPair(np.stack([np.zeros_like(residual), residual]))
    cfg = L.LossConfig(alpha=1.5)
    ratio = L.loss(in_occ, zeros(), cfg).total / L.loss(in_vis, zeros(), cfg).total
    check(2, abs(ratio - 1.5) <= 1e-12 * 1.5,
          f"wrong-branch loss ratio {ratio!r} equals alpha=1.5 within 1e-12")


# 3 ---------------------------------------------------------------------------

def test_criterion_3_direct_fit_convergence():
    cfg = L.LossConfig(alpha=1.5)
    rng = substream(7, "fit")
    g = HeatmapPair(rng.standard_normal((2, 2, 16, 12)))
    init = HeatmapPair(rng.standard_normal((2, 2, 16, 12)))
    _, trajectory = L.fit_direct(g, init, cfg, lr=L.stable_lr(cfg, 2, 16, 12),
                                 steps=5000)
    monotone = all(b <= a + 1e-15 for a, b in zip(trajectory, trajectory[1:]))
    check(3, trajectory[-1] < 1e-6 and monotone,
          f"direct fit reached {trajectory[-1]:.2e} (< 1e-6) in "
          f"{len(trajectory) - 1} steps with a monotone trajectory")


# 4 ---------------------------------------------------------------------------

def test_criterion_4_heatmap_roundtrip():
    rng = substream(11, "roundtrip")
    tags = [v.value for v in Visibility]
    worst = 0.0
    checked = 0
    exclusive = True
    for i in range(1000):
        w = float(rng.uniform(20, 180))
        h = float(rng.uniform(30, 240))
        bbox = BBox(float(rng.uniform(-20, 60)), float(rng.uniform(-20, 60)), w, h)
        vis = [Visibility(v) for v in rng.choice(tags, size=14,
                                                 p=[0.5, 0.25, 0.15, 0.1])]
        pose = rand_pose(rng, bbox, vis=vis)
        transform = H.bbox_to_crop(bbox)
        pair, in_bounds = H.encode(pose, transform)
        peaks = pair.visible.values.max(axis=(1, 2)) * \
            pair.occluded.values.max(axis=(1, 2))
        exclusive = exclusive and (peaks == 0.0).all()
        decoded = H.decode(pair, transform)
        for k in range(14):
            if not in_bounds[k]:
                continue
            checked += 1
            err = max(abs(decoded.pose.keypoints[k].x - pose.keypoints[k].x),
                      abs(decoded.pose.keypoints[k].y - pose.keypoints[k].y))
            worst = max(worst, err)
    check(4, worst <= 2.0 and exclusive and checked > 8000,
          f"decode(encode(p)): worst error {worst:.3f}px (<= 2px) over {checked} "
          f"in-crop keypoints from 1000 poses; cross-branch exclusivity held")


# 5 ---------------------------------------------------------------------------

def test_criterion_5_crowd_index_oracle():
    rng = substream(23, "crowd")
    agree = 0
    for i in range(1000):
        rec = rand_record(rng, image_id=f"c{i}")
        agree += CM.crowd_index(rec)[0] == oracles.crowd_index_bruteforce(rec)
    boundaries = CM.partition(0.1) == "medium" and CM.partition(0.8) == "hard"
    check(5, agree == 1000 and boundaries,
          f"CrowdIndex matched the brute-force oracle on {agree}/1000 scenes; "
          f"0.1->medium and 0.8->hard boundary semantics hold")


# 6 ---------------------------------------------------------------------------

def test_criterion_6_augmentation_flag_oracle():
    rng = np.random.default_rng(967)
    inventory = AUG.CutoutInventory(
        objects=[blob_cutout(rng, 12, 10), blob_cutout(rng, 20, 14),
                 blob_cutout(rng, 9, 16)],
        persons=[blob_cutout(rng, 14, 28, kind=CUTOUT_FULL_BODY),
                 blob_cutout(rng, 18, 34, kind=CUTOUT_FULL_BODY)])
    methods = [AUG.METHOD_OBJECTS, AUG.METHOD_BODY_PARTS, AUG.METHOD_FULL_BODY,
               AUG.METHOD_PARTS_AND_OBJECTS, AUG.METHOD_FULL_AND_OBJECTS,
               AUG.METHOD_PARTS_OR_OBJECTS, AUG.METHOD_FULL_OR_OBJECTS]
    box = BBox(20.0, 25.0, 50.0, 90.0)
    flag_total = flag_agree = 0
    object_fracs = []
    full_body_ok = True
    for i in range(1000):
        coords = [(float(rng.uniform(box.x - 5, box.x + box.w + 5)),
                   float(rng.uniform(box.y - 5, box.y + box.h + 5)))
                  for _ in range(14)]
        vis = [Visibility(v) for v in rng.choice(
            [v.value for v in Visibility], size=14, p=[0.6, 0.2, 0.1, 0.1])]
        record = ImageRecord(f"a{i}", 100, 150, persons=(
            PersonInstance(bbox=box, pose=make_pose(coords, vis=vis)),))
        img = rand_raster(rng, record.width, record.height)
        cfg = AUG.AugmentConfig(method=methods[i % len(methods)])
        result = AUG.apply_augmentation(substream(i, "accept6"), img, record, 0,
                                        cfg, inventory)
        for placement in result.placements:
            if placement.kind == "object":
                object_fracs.append(placement.dst_w * placement.dst_h / box.area)
            if placement.kind == "full_body":
                cx = placement.dst_x + placement.dst_w / 2.0
                cy = placement.dst_y + placement.dst_h / 2.0
                central = (box.x + 0.25 * box.w <= cx <= box.x + 0.75 * box.w and
                           box.y + 0.25 * box.h <= cy <= box.y + 0.75 * box.h)
                full_body_ok = full_body_ok and box.contains(cx, cy) and not central
        # independent paste-mask reconstruction from the placement log
        expected = oracles.augment_flags_reference(record, result.placements, inventory)[0]
        flag_total += len(expected)
        flag_agree += sum(kp.vis is vis for kp, vis in
                          zip(result.record.persons[0].pose.keypoints, expected))
    fr_min, fr_max = min(object_fracs), max(object_fracs)
    in_range = fr_min >= 0.08 - 1e-9 and fr_max <= 0.70 + 1e-9
    check(6, flag_agree == flag_total and in_range and fr_min < 0.10
          and fr_max > 0.68 and full_body_ok and len(object_fracs) > 300,
          f"flag oracle {flag_agree}/{flag_total}; object area fractions in "
          f"[{fr_min:.3f}, {fr_max:.3f}] within [0.08, 0.70] with min<0.10 and "
          f"max>0.68 over {len(object_fracs)} pastes; zero full-body centers in "
          f"the central region")


# 7 ---------------------------------------------------------------------------

def test_criterion_7_evaluator_sanity():
    rng = substream(31, "eval")
    cfg = E.OksConfig(tuple(E.default_sigmas(14)))

    # perfect predictions -> 1.000 in every populated column
    gt_images, pred_images = [], []
    for i in range(30):
        box = BBox(10, 10, 60, 90)
        persons = [PersonInstance(bbox=box, pose=rand_pose(rng, box))]
        if i % 3 == 1:  # crowded pair -> hard bucket
            persons.append(replace(persons[0], bbox=BBox(12, 12, 60, 90)))
        gt_images.append(ImageRecord(f"g{i}", 200, 160, persons=tuple(persons)))
        pred_images.append(replace(gt_images[-1], persons=tuple(
            replace(p, score=0.9) for p in persons)))
    gt = Dataset(schema=CROWDPOSE_SCHEMA, images=tuple(gt_images))
    pred = Dataset(schema=CROWDPOSE_SCHEMA, images=tuple(pred_images))
    rep = E.eval_by_crowding(pred, gt, cfg)
    populated = [c for c in (rep.ap, rep.ap_easy, rep.ap_medium, rep.ap_hard)
                 if c is not None]
    perfect = all(c == 1.0 for c in populated)

    # matcher vs the independent reference on 500 scenes
    matcher_agree = 0
    for i in range(500):
        gts, preds = [], []
        for _ in range(int(rng.integers(1, 6))):
            box = BBox(float(rng.uniform(0, 120)), float(rng.uniform(0, 90)),
                       float(rng.uniform(15, 50)), float(rng.uniform(25, 70)))
            gts.append(PersonInstance(bbox=box, pose=rand_pose(rng, box)))
        for _ in range(int(rng.integers(0, 7))):
            base = gts[int(rng.integers(len(gts)))]
            noisy = Pose(CROWDPOSE_SCHEMA, tuple(
                Keypoint(k.x + float(rng.normal(0, 4)),
                         k.y + float(rng.normal(0, 4)), k.vis)
                for k in base.pose.keypoints))
            preds.append(PersonInstance(bbox=base.bbox, pose=noisy,
                                        score=float(rng.uniform(0.1, 1.0))))
        thr = float(rng.choice([0.5, 0.75, 0.95]))
        ours = E.match_greedy(preds, gts, thr, cfg)
        matcher_agree += ours == oracles.match_greedy_reference(
            preds, gts, thr, cfg.sigmas)

    # AP decreases monotonically with keypoint jitter
    aps = []
    for sigma in (0.01, 0.05, 0.1):
        jit_pred = Dataset(schema=CROWDPOSE_SCHEMA, images=tuple(
            replace(img, persons=tuple(
                replace(p, score=float(rng.uniform(0.5, 1.0)),
                        pose=Pose(CROWDPOSE_SCHEMA, tuple(
                            Keypoint(k.x + float(rng.normal(0, sigma *
                                                            math.sqrt(p.bbox.area))),
                                     k.y + float(rng.normal(0, sigma *
                                                            math.sqrt(p.bbox.area))),
                                     k.vis) for k in p.pose.keypoints)))
                for p in img.persons))
            for img in gt.images), meta={})
        aps.append(E.eval_by_crowding(jit_pred, gt, cfg).ap)
    monotone = aps[0] > aps[1] > aps[2]
    check(7, perfect and matcher_agree == 500 and monotone,
          f"perfect predictions scored 1.000 in all populated columns; matcher "
          f"agreed with the reference on {matcher_agree}/500 scenes; AP fell "
          f"monotonically over jitter ({aps[0]:.3f} > {aps[1]:.3f} > {aps[2]:.3f})")


# 8 ---------------------------------------------------------------------------

def test_criterion_8_synthetic_corpus_targeting():
    scene_cfg = S.SceneConfig(seed=2024)
    corpus_cfg = S.CorpusConfig(scenes=2000, scene_cfg=scene_cfg)
    scenes = S.plan_corpus(corpus_cfg)
    dataset = S.corpus_dataset(corpus_cfg, scenes)

    freqs = [0.0] * 10
    exact = True
    for scene in scenes:
        c = CM.crowd_index(scene.record)[0]
        exact = exact and (c == scene.crowd_index ==
                           dataset.meta["crowd_index"][scene.record.id])
        freqs[CM.histogram_bin(c, 10)] += 1.0 / corpus_cfg.scenes
    within = all(abs(f - 0.1) <= 0.03 for f in freqs)

    flag_agree = flag_total = 0
    for scene in scenes[:500]:
        ref = oracles.scene_flags_reference(scene.layout, S.SKELETON_EDGES,
                                            S._EDGES_OF_KP)
        for pi, person in enumerate(scene.record.persons):
            for ki, kp in enumerate(person.pose.keypoints):
                flag_total += 1
                flag_agree += kp.vis is ref[pi][ki]

    # depth-buffer spot check: painted owner/depth consistent with flags
    buffer_ok = True
    for scene in scenes[::97]:
        raster, depth = S.render_layout(scene.layout)
        color_to_person = {S.person_color(j): j
                           for j in range(len(scene.layout.zs))}
        for pi, person in enumerate(scene.record.persons):
            for kp in person.pose.keypoints:
                px, py = int(math.floor(kp.x)), int(math.floor(kp.y))
                if not (0 <= px < raster.width and 0 <= py < raster.height):
                    continue
                owner = color_to_person.get(
                    tuple(int(v) for v in raster.pixels[py, px, :3]))
                buffer_ok = buffer_ok and owner is not None and \
                    depth[py, px] == scene.layout.zs[owner] and \
                    ((kp.vis is Visibility.OCCLUDED) == (owner != pi))
    check(8, within and exact and flag_agree == flag_total and buffer_ok,
          f"2000-scene corpus: bin frequencies {['%.3f' % f for f in freqs]} all "
          f"within 0.1+-0.03; stored CrowdIndex exact for all scenes; flag oracle "
          f"{flag_agree}/{flag_total} on 500 scenes; depth buffers consistent")


# 9 ---------------------------------------------------------------------------

def _run_cli(*argv, cwd):
    args = [sys.executable, "-m", "crowdpose_kit", *argv]
    env = child_env()
    proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, (
        f"exit {proc.returncode}: {args[1:]} with PYTHONPATH={env['PYTHONPATH']!r}"
        f" in {cwd}\n{proc.stderr}")
    return proc


def _digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            h.update(str(p.relative_to(path)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_criterion_9_cli_determinism(tmp_path):
    gen_digests = []
    for name, jobs in (("g1", "1"), ("g8", "8"), ("g1b", "1")):
        _run_cli("gen", "--scenes", "60", "--seed", "17", "--target", "uniform",
                 "--bins", "4", "--out", str(tmp_path / name), "--jobs", jobs,
                 cwd=tmp_path)
        gen_digests.append(_digest_dir(tmp_path / name))
    gen_ok = len(set(gen_digests)) == 1

    rng = np.random.default_rng(5)
    inventory = AUG.CutoutInventory(
        objects=[blob_cutout(rng, 12, 10)],
        persons=[blob_cutout(rng, 14, 26, kind=CUTOUT_FULL_BODY)])
    AUG.save_inventory(tmp_path / "inv", inventory)
    aug_digests = []
    for name, jobs in (("a1", "1"), ("a8", "8"), ("a1b", "1")):
        _run_cli("augment", "--method", "parts_or_objects", "--seed", "99",
                 "--inventory", str(tmp_path / "inv"),
                 "--in", str(tmp_path / "g1" / "dataset.json"),
                 "--images", str(tmp_path / "g1"),
                 "--out", str(tmp_path / name), "--jobs", jobs, cwd=tmp_path)
        aug_digests.append(_digest_dir(tmp_path / name))
    aug_ok = len(set(aug_digests)) == 1

    gt_file = tmp_path / "g1" / "dataset.json"
    ds = anno.parse_dataset(gt_file.read_bytes(), "native")
    jitter_rng = np.random.default_rng(8)
    pred = Dataset(schema=ds.schema, images=tuple(
        replace(img, persons=tuple(
            replace(p, score=float(jitter_rng.uniform(0.4, 1.0)),
                    pose=Pose(ds.schema, tuple(
                        Keypoint(k.x + float(jitter_rng.normal(0, 2.0)),
                                 k.y + float(jitter_rng.normal(0, 2.0)), k.vis)
                        for k in p.pose.keypoints)))
            for p in img.persons))
        for img in ds.images), meta={})
    (tmp_path / "pred.json").write_bytes(anno.serialize_dataset(pred))
    eval_digests = []
    for name, jobs in (("e1", "1"), ("e8", "8"), ("e1b", "1")):
        _run_cli("eval", "--gt", str(gt_file), "--pred", str(tmp_path / "pred.json"),
                 "--out", str(tmp_path / name / "report.json"), "--jobs", jobs,
                 cwd=tmp_path)
        eval_digests.append(hashlib.sha256(
            (tmp_path / name / "report.json").read_bytes()).hexdigest())
    eval_ok = len(set(eval_digests)) == 1
    check(9, gen_ok and aug_ok and eval_ok,
          f"byte-identical reruns: gen {gen_digests[0][:12]} (jobs 1 == jobs 8 == "
          f"rerun), augment {aug_digests[0][:12]}, eval {eval_digests[0][:12]}")


# 10 --------------------------------------------------------------------------

def test_criterion_10_jta_conversion_preservation():
    rng = substream(77, "convert")
    mapping = anno.default_jta_to_crowdpose_mapping()
    aliases = {"top_head": "head_top"}
    tags = [v.value for v in Visibility]
    ok = True
    for _ in range(1000):
        vis = [Visibility(v) for v in rng.choice(tags, size=22,
                                                 p=[0.4, 0.3, 0.2, 0.1])]
        coords = [(float(rng.uniform(-500, 2000)), float(rng.uniform(-500, 1200)))
                  for _ in range(22)]
        pose = make_pose(coords, vis=vis, schema=JTA_SCHEMA)
        out = anno.convert_jta_to_crowdpose(pose, mapping)
        for k in range(14):
            src = pose.keypoints[mapping[k]]
            dst = out.keypoints[k]
            ok = ok and dst.x == src.x and dst.y == src.y and dst.vis is src.vis
            want = aliases.get(CROWDPOSE_SCHEMA.keypoint_names[k],
                               CROWDPOSE_SCHEMA.keypoint_names[k])
            ok = ok and JTA_SCHEMA.keypoint_names[mapping[k]] == want
    check(10, ok, "JTA->CrowdPose conversion preserved coordinates bitwise and "
                  "flags exactly on a 1000-pose fixture corpus; default mapping "
                  "verified joint-by-joint against the name table")
