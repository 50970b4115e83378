"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written as plain scalar Python (loops,
math.*) with no calls into the package's numerical code paths, so a bug in
the library cannot hide in its own oracle. The exceptions are
read_depth_pam, a reader that only tests need, which reuses the package's
PAM header parser, and the per-keypoint heatmap and loss kernels at the end
(encode_reference, decode_reference, loss_reference, loss_grad_reference):
the loop forms that the package's array kernels replaced, kept to require
bit-identical results. They use the package's data types and CropTransform.
substream_seed_reference is the substream derivation as it was before
SeedSequence took the digest words as an array. parse_native_reference is
the native parser as it was when a pose was a tuple of Keypoint objects;
each person's pose is a PoseReference that keeps that tuple as parsed.
match_rows_reference is eval's greedy matcher as it was before it matched a
run of images at every threshold at once; eval_report_reference builds the
whole eval report from the scalar matcher and AP. draw_persons_reference,
render_layout_reference and serialize_dataset_reference are gen's draw
loop with rng.uniform, its full-window capsule renderer and the one-call
json.dumps serializer, as they were before the package replaced them.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import NamedTuple

import numpy as np

from crowdpose_kit import synthgen as S
from crowdpose_kit.annotations import (NATIVE_FORMAT_TAG, VISIBILITY_BY_TAG, BBox,
                                       Dataset, ImageRecord, Keypoint, PersonInstance,
                                       Pose, PoseSchema, Visibility,
                                       _segmentation_from_json, _segmentation_to_json)
from crowdpose_kit.errors import ParseError
from crowdpose_kit.errors import MaskDecodeError, UndefinedMetricError
from crowdpose_kit.heatmaps import HEATMAP_H, HEATMAP_W, STRIDE, DecodeResult, HeatmapPair
from crowdpose_kit.masks import RasterImage, _parse_pam_header


def point_in_polygon(px: float, py: float, poly) -> bool:
    """Even-odd crossing test (PNPOLY form)."""
    inside = False
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        if (y0 > py) != (y1 > py):
            xint = (x1 - x0) * (py - y0) / (y1 - y0) + x0
            if px < xint:
                inside = not inside
    return inside


def rasterize_polygons(polys, w: int, h: int):
    """Per-pixel-center brute force rasterization, unioned over polygons."""
    grid = [[False] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            cx, cy = x + 0.5, y + 0.5
            for poly in polys:
                if point_in_polygon(cx, cy, poly):
                    grid[y][x] = True
                    break
    return grid


def nearest_scale_rgba(pixels, src_w: int, src_h: int, dst_w: int, dst_h: int):
    """Floor-rounded nearest-neighbor resize, plain loops.

    pixels is indexable as pixels[y][x] -> length-4 sequence.
    """
    out = []
    for y in range(dst_h):
        sy = (y * src_h) // dst_h
        row = []
        for x in range(dst_w):
            sx = (x * src_w) // dst_w
            row.append(tuple(int(v) for v in pixels[sy][sx]))
        out.append(row)
    return out


def augment_flags_reference(record, placements, inventory):
    """The visibility each keypoint of `record` should have after the logged
    pastes, one list per person: the paste mask is rebuilt from the log
    with nearest_scale_rgba, and a visible or self-occluded keypoint whose
    pixel a pasted alpha > 0 covers becomes occluded."""
    painted = [[False] * record.width for _ in range(record.height)]
    for placement in placements:
        pool = inventory.objects if placement.kind == "object" else inventory.persons
        pixels = pool[placement.cutout_index].raster.pixels
        if placement.src_rect is not None:
            sx, sy, sw, sh = placement.src_rect
            pixels = pixels[sy:sy + sh, sx:sx + sw]
        scaled = nearest_scale_rgba(pixels.tolist(), pixels.shape[1], pixels.shape[0],
                                    placement.dst_w, placement.dst_h)
        for yy in range(placement.dst_h):
            ty = placement.dst_y + yy
            if not 0 <= ty < record.height:
                continue
            for xx in range(placement.dst_w):
                tx = placement.dst_x + xx
                if 0 <= tx < record.width and scaled[yy][xx][3] > 0:
                    painted[ty][tx] = True
    expected = []
    for person in record.persons:
        flags = []
        for kp in person.pose.keypoints:
            vis = kp.vis
            if vis in (Visibility.VISIBLE, Visibility.SELF_OCCLUDED):
                px, py = math.floor(kp.x), math.floor(kp.y)
                if 0 <= px < record.width and 0 <= py < record.height and painted[py][px]:
                    vis = Visibility.OCCLUDED
            flags.append(vis)
        expected.append(flags)
    return expected


def crowd_index_bruteforce(record) -> float:
    """Direct transliteration of the CrowdIndex formula, scalar arithmetic."""
    persons = record.persons
    n = len(persons)
    ratios = []
    for i, person in enumerate(persons):
        bx, by = person.bbox.x, person.bbox.y
        bx1, by1 = bx + person.bbox.w, by + person.bbox.h

        def inside(kp):
            return bx <= kp.x <= bx1 and by <= kp.y <= by1

        n_b = sum(1 for kp in person.pose.keypoints
                  if kp.vis is not Visibility.UNLABELED and inside(kp))
        if n_b == 0:
            continue
        n_a = 0
        for j, other in enumerate(persons):
            if j == i:
                continue
            n_a += sum(1 for kp in other.pose.keypoints
                       if kp.vis is not Visibility.UNLABELED and inside(kp))
        ratios.append(n_a / n_b)
    return min(math.fsum(ratios) / n, 1.0)


def crowd_index_arrays_reference(boxes, points, owners):
    """The array core's contract as a scalar point-in-box loop: boxes are
    (x, y, w, h) rows, points (x, y) rows with one owner index each.
    Returns the CrowdIndex and the persons with no own point in their box."""
    n = len(boxes)
    ratios = []
    empty = []
    for i, (bx, by, bw, bh) in enumerate(boxes):
        n_a = n_b = 0
        for (px, py), owner in zip(points, owners):
            if bx <= px <= bx + bw and by <= py <= by + bh:
                if owner == i:
                    n_b += 1
                else:
                    n_a += 1
        if n_b == 0:
            empty.append(i)
            continue
        ratios.append(n_a / n_b)
    return min(math.fsum(ratios) / n, 1.0), empty


def oks_scalar(pred, gt, gt_scale: float, sigmas) -> float:
    values = []
    for i, g in enumerate(gt.keypoints):
        if g.vis is Visibility.UNLABELED:
            continue
        p = pred.keypoints[i]
        d2 = (p.x - g.x) ** 2 + (p.y - g.y) ** 2
        k = 2.0 * sigmas[i]
        values.append(math.exp(-d2 / (2.0 * gt_scale * k * k)))
    return math.fsum(values) / len(values)


def match_greedy_reference(preds, gts, threshold: float, sigmas):
    """Same protocol as the library matcher, written from scratch.

    Returns per-prediction (input order) the matched gt index or None.
    """
    ranked = sorted(range(len(preds)), key=lambda idx: (-preds[idx].score, idx))
    used = set()
    result = [None] * len(preds)
    for pi in ranked:
        candidates = []
        for gi, gt in enumerate(gts):
            if gi in used:
                continue
            if all(k.vis is Visibility.UNLABELED for k in gt.pose.keypoints):
                continue
            scale = gt.bbox.w * gt.bbox.h
            value = oks_scalar(preds[pi].pose, gt.pose, scale, sigmas)
            if value >= threshold:
                candidates.append((value, -gi))
        if candidates:
            candidates.sort()
            best = candidates[-1]
            gi = -best[1]
            used.add(gi)
            result[pi] = gi
    return result


def match_rows_reference(oks, order, threshold: float):
    """The per-image, per-threshold greedy loop that eval ran before its
    matcher took a run of images and every threshold at once: each
    prediction, in `order`, takes the first unmatched gt with the highest
    OKS in its row of `oks` if that OKS reaches the threshold; NaN entries
    never match. Returns per prediction the gt index or None."""
    free = np.where(np.isnan(oks), -np.inf, oks)
    assigned = [None] * len(oks)
    if free.shape[1] == 0:
        return assigned
    for pi in order:
        row = free[pi]
        gi = int(row.argmax())
        if row[gi] >= threshold:
            assigned[pi] = gi
            free[:, gi] = -np.inf
    return assigned


class ImageMatches(NamedTuple):
    """One image's matching outcome at one threshold."""
    image_id: str
    scores: list
    matched: list
    gt_count: int  # matchable ground truths


def average_precision_reference(per_image) -> float:
    """The scalar 101-point AP that evaluator.average_precision replaced:
    a sort over (-score, image id, index), a backward envelope loop, and
    one searchsorted per recall point added in recall order."""
    total_gt = sum(m.gt_count for m in per_image)
    if total_gt == 0:
        raise UndefinedMetricError("AP undefined without ground-truth instances")
    rows = []
    for m in per_image:
        for idx, (score, hit) in enumerate(zip(m.scores, m.matched)):
            rows.append((-score, m.image_id, idx, hit))
    rows.sort()
    if not rows:
        return 0.0
    hits = np.array([r[3] for r in rows], dtype=np.float64)
    tp = np.cumsum(hits)
    fp = np.cumsum(1.0 - hits)
    recall = tp / total_gt
    precision = tp / (tp + fp)
    for i in range(precision.size - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    out = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        idx = np.searchsorted(recall, r, side="left")
        if idx < precision.size:
            out += precision[idx]
    return out / 101.0


def eval_report_reference(pred, gt, sigmas, thresholds, level_of) -> dict:
    """The eval report as JSON, built one image and one threshold at a time
    from match_greedy_reference and average_precision_reference.
    level_of(record) names the crowding level of a gt image with persons."""
    pred_by_id = {img.id: img for img in pred.images}
    levels = {"easy": [], "medium": [], "hard": []}
    for img in gt.images:
        if img.persons:
            levels[level_of(img)].append(img)

    def mean_ap(images):
        per_threshold = []
        for t in thresholds:
            per_image = []
            for img in images:
                preds = pred_by_id[img.id].persons
                matched = match_greedy_reference(preds, img.persons, t, sigmas)
                per_image.append(ImageMatches(
                    img.id, [p.score for p in preds], [a is not None for a in matched],
                    sum(1 for g in img.persons
                        if any(k.vis is not Visibility.UNLABELED for k in g.pose.keypoints))))
            per_threshold.append({"threshold": t,
                                  "ap": average_precision_reference(per_image)})
        return float(np.mean([e["ap"] for e in per_threshold])), per_threshold

    ap, per_threshold = mean_ap(gt.images)
    report = {"ap": ap}
    for level, images in levels.items():
        report[f"ap_{level}"] = mean_ap(images)[0] if images else None
    report["per_threshold"] = per_threshold
    report["counts"] = {
        "images": {level: len(images) for level, images in levels.items()},
        "instances": {level: sum(len(img.persons) for img in images)
                      for level, images in levels.items()},
        "total_images": len(gt.images),
        "total_instances": sum(len(img.persons) for img in gt.images),
    }
    return report


def _seg_cover_sq(px: float, py: float, ax: float, ay: float,
                  bx: float, by: float) -> float:
    """Squared distance from a point to a segment, branchy scalar form."""
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    if denom <= 0.0:
        ex, ey = px - ax, py - ay
        return ex * ex + ey * ey
    t = ((px - ax) * abx + (py - ay) * aby) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    ex = px - (ax + t * abx)
    ey = py - (ay + t * aby)
    return ex * ex + ey * ey


def scene_flags_reference(layout, skeleton_edges, edges_of_kp):
    """Re-derive every keypoint visibility flag from the layout geometry.

    Mirrors the documented rule: occluded when any later-drawn person's
    capsule covers the keypoint's pixel center, self-occluded when the
    topmost own limb covering it is not one of the keypoint's own limbs.
    """
    zs, radii, keypoints = layout.zs.tolist(), layout.radii.tolist(), layout.keypoints
    order = sorted(range(len(zs)), key=lambda i: (zs[i], i))
    rank = {idx: r for r, idx in enumerate(order)}
    flags = []
    for i in range(len(zs)):
        row = []
        for k in range(14):
            kx, ky = keypoints[i][k]
            px, py = math.floor(kx) + 0.5, math.floor(ky) + 0.5
            occluded = False
            for j in range(len(zs)):
                if j == i or rank[j] < rank[i]:
                    continue
                r2 = radii[j] * radii[j]
                for a, b in skeleton_edges:
                    qa = keypoints[j][a]
                    qb = keypoints[j][b]
                    if _seg_cover_sq(px, py, qa[0], qa[1], qb[0], qb[1]) <= r2:
                        occluded = True
                        break
                if occluded:
                    break
            if occluded:
                row.append(Visibility.OCCLUDED)
                continue
            r2 = radii[i] * radii[i]
            top = -1
            for e, (a, b) in enumerate(skeleton_edges):
                qa = keypoints[i][a]
                qb = keypoints[i][b]
                if _seg_cover_sq(px, py, qa[0], qa[1], qb[0], qb[1]) <= r2:
                    top = e
            if top >= 0 and top not in edges_of_kp[k]:
                row.append(Visibility.SELF_OCCLUDED)
            else:
                row.append(Visibility.VISIBLE)
        flags.append(row)
    return flags


def substream_seed_reference(seed: int, *keys) -> np.random.SeedSequence:
    """seeding.substream_seed with the digest words passed as a list of
    Python ints."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode("utf-8"))
    for key in keys:
        h.update(b"\x1f")
        h.update(str(key).encode("utf-8"))
    words = np.frombuffer(h.digest(), dtype=np.uint32)
    return np.random.SeedSequence(words.tolist())


def read_depth_pam(data: bytes) -> np.ndarray:
    """Depth map in [0, 1] from a 16-bit grayscale PAM; the reader that
    write_depth_pam's output is checked against. It shares the package's
    header parser."""
    fields, offset = _parse_pam_header(data)
    w, h = fields["WIDTH"], fields["HEIGHT"]
    if fields["DEPTH"] != 1 or fields["MAXVAL"] != 65535:
        raise MaskDecodeError("expected a 16-bit grayscale PAM")
    raw = np.frombuffer(data[offset:offset + w * h * 2], dtype=">u2")
    if raw.size != w * h:
        raise MaskDecodeError("truncated PAM payload")
    return raw.reshape((h, w)).astype(np.float64) / 65535.0


# --- per-keypoint heatmap and loss kernels ---------------------------------

def _write_gaussian(grid: np.ndarray, hx: float, hy: float, sigma: float) -> None:
    h, w = grid.shape
    reach = 3.0 * sigma
    x0 = max(int(np.floor(hx - reach)), 0)
    x1 = min(int(np.ceil(hx + reach)), w - 1)
    y0 = max(int(np.floor(hy - reach)), 0)
    y1 = min(int(np.ceil(hy + reach)), h - 1)
    if x0 > x1 or y0 > y1:
        return
    xs = np.arange(x0, x1 + 1, dtype=np.float64)
    ys = np.arange(y0, y1 + 1, dtype=np.float64)
    d2 = (xs[None, :] - hx) ** 2 + (ys[:, None] - hy) ** 2
    patch = np.exp(-d2 / (2.0 * sigma * sigma))
    patch[d2 > reach * reach] = 0.0
    np.maximum(grid[y0:y1 + 1, x0:x1 + 1], patch, out=grid[y0:y1 + 1, x0:x1 + 1])


def encode_reference(pose, transform, sigma: float):
    """heatmaps.encode one keypoint at a time (sigma already validated)."""
    k = len(pose.keypoints)
    pair = HeatmapPair(np.zeros((2, k, HEATMAP_H, HEATMAP_W)))
    in_bounds = np.zeros(k, dtype=bool)
    with np.errstate(over="ignore"):
        for i, kp in enumerate(pose.keypoints):
            if kp.vis is Visibility.UNLABELED or not (math.isfinite(kp.x) and
                                                      math.isfinite(kp.y)):
                continue
            crop_xy = transform.apply([[kp.x, kp.y]])[0]
            hx, hy = crop_xy[0] / STRIDE, crop_xy[1] / STRIDE
            if not (0.0 <= hx <= HEATMAP_W - 1 and 0.0 <= hy <= HEATMAP_H - 1):
                continue
            in_bounds[i] = True
            visible = kp.vis in (Visibility.VISIBLE, Visibility.SELF_OCCLUDED)
            branch = pair.visible if visible else pair.occluded
            _write_gaussian(branch.values[i], hx, hy, sigma)
    return pair, in_bounds


def _refine(grid: np.ndarray, r: int, c: int) -> tuple[float, float]:
    h, w = grid.shape
    x = float(c)
    y = float(r)
    if 0 < c < w - 1:
        x += 0.25 * np.sign(grid[r, c + 1] - grid[r, c - 1])
    if 0 < r < h - 1:
        y += 0.25 * np.sign(grid[r + 1, c] - grid[r - 1, c])
    return x, y


def decode_reference(pair, transform, conf_threshold: float):
    """heatmaps.decode one keypoint at a time (threshold already validated)."""
    k, h, w = pair.shape
    inv = transform.inverse()
    schema = PoseSchema(f"decoded_{k}", tuple(f"kp_{i:02d}" for i in range(k)))
    keypoints = []
    confidences = np.zeros(k, dtype=np.float64)
    for i in range(k):
        vis_grid = pair.visible.values[i]
        occ_grid = pair.occluded.values[i]
        # the first maximum's value: max() may return -0.0 where the first
        # maximum is 0.0, as its reduction order is not fixed
        vis_max = float(vis_grid.flat[np.argmax(vis_grid)])
        occ_max = float(occ_grid.flat[np.argmax(occ_grid)])
        if vis_max >= occ_max:
            grid, peak, label = vis_grid, vis_max, Visibility.VISIBLE
        else:
            grid, peak, label = occ_grid, occ_max, Visibility.OCCLUDED
        r, c = np.unravel_index(int(np.argmax(grid)), grid.shape)
        hx, hy = _refine(grid, int(r), int(c))
        img_xy = inv.apply([[hx * STRIDE, hy * STRIDE]])[0]
        keypoints.append(Keypoint(float(img_xy[0]), float(img_xy[1]), label))
        confidences[i] = peak
    return DecodeResult(
        pose=Pose(schema, tuple(keypoints)),
        confidences=confidences,
        low_confidence=confidences < conf_threshold,
    )


def _branch_terms(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    diff = p - g
    return np.mean(diff * diff, axis=(1, 2))


def loss_reference(p, g, alpha: float, n: int) -> tuple[float, float, float]:
    """occloss.loss as (total, visible_term, occluded_term)."""
    vis = float(np.sum(_branch_terms(p.visible.values, g.visible.values)))
    occ = float(np.sum(_branch_terms(p.occluded.values, g.occluded.values)))
    return (vis + alpha * occ) / n, vis, occ


def loss_grad_reference(p, g, alpha: float, n: int):
    """occloss.loss_grad with its original temporaries."""
    _, h, w = p.shape
    cells = h * w
    gvis = 2.0 * (p.visible.values - g.visible.values) / (n * cells)
    gocc = 2.0 * alpha * (p.occluded.values - g.occluded.values) / (n * cells)
    return HeatmapPair(np.stack([gvis, gocc]))


# --- the native parser over Keypoint objects -------------------------------

class PoseReference(NamedTuple):
    schema: PoseSchema
    keypoints: tuple


def parse_native_reference(doc) -> Dataset:
    """The native parser building one Keypoint per keypoint; call it on a
    decoded JSON document."""
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
                pose=PoseReference(schema, kps),
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


# --- gen as it was before per-segment windows, scalar draws and per-image
# --- JSON entries ------------------------------------------------------------

def draw_persons_reference(rng: np.random.Generator, cfg, count: int,
                           p_attach: float, sigma_attach: float):
    """synthgen._draw_persons drawing every uniform value with
    rng.uniform; returns (zs, radii, keypoints) arrays."""
    ground_plane = cfg.depth_model == S.DEPTH_GROUND_PLANE
    templates, heights, cxs, cys, zs = [], [], [], [], []
    noise = np.empty((count, 14, 2))
    for i in range(count):
        templates.append(int(rng.integers(len(S._TEMPLATES))))
        height = rng.uniform(*cfg.scale_range)
        if i > 0 and rng.random() < p_attach:
            j = int(rng.integers(i))
            cx = cxs[j] + rng.normal(0.0, sigma_attach * heights[j])
            cy = cys[j] + rng.normal(0.0, sigma_attach * heights[j])
        else:
            cx = rng.uniform(0.0, cfg.image_w)
            cy = rng.uniform(0.0, cfg.image_h)
        heights.append(height)
        cxs.append(cx)
        cys.append(cy)
        rng.standard_normal((14, 2), out=noise[i])
        if ground_plane:
            foot_y = cy + height / 2.0
            zs.append(0.05 + 0.9 * min(max(foot_y / cfg.image_h, 0.0), 1.0))
        else:
            zs.append(rng.uniform(0.05, 1.0))
    h = np.array(heights)[:, None]
    w = S.BODY_WIDTH_FRAC * h
    local = S._TEMPLATE_BASE[templates] + noise * S._TEMPLATE_JITTER[templates]
    kps = np.empty((count, 14, 2))
    kps[:, :, 0] = np.array(cxs)[:, None] - w / 2.0 + local[:, :, 0] * w
    kps[:, :, 1] = np.array(cys)[:, None] - h / 2.0 + local[:, :, 1] * h
    radii = np.maximum(1.0, cfg.limb_radius_frac * h[:, 0])
    return np.array(zs), radii, kps


def _capsule_sq_dist_reference(px, py, ax, ay, bx, by):
    """synthgen._capsule_sq_dist as render_layout_reference used it."""
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    dx = px - ax
    dy = py - ay
    t = dx * abx + dy * aby
    t /= np.where(denom > 0.0, denom, 1.0)
    np.clip(t, 0.0, 1.0, out=t)
    ex = dx - t * abx
    ey = dy - t * aby
    return ex * ex + ey * ey


def render_layout_reference(layout):
    """synthgen.render_layout testing all 13 segments of a person over the
    person's whole clipped window, in bands of rows of at most
    _RENDER_BAND_CELLS (13, rows, cols) cells."""
    w, h = layout.width, layout.height
    raster = RasterImage.filled(w, h, S.BACKGROUND_RGBA)
    depth = np.zeros((h, w), dtype=np.float64)
    for idx in np.argsort(layout.zs, kind="stable").tolist():
        r = layout.radii[idx]
        kps = layout.keypoints[idx]
        x0 = max(int(math.floor(kps[:, 0].min() - r - 1.0)), 0)
        x1 = min(int(math.ceil(kps[:, 0].max() + r + 1.0)), w - 1)
        y0 = max(int(math.floor(kps[:, 1].min() - r - 1.0)), 0)
        y1 = min(int(math.ceil(kps[:, 1].max() + r + 1.0)), h - 1)
        if x0 > x1 or y0 > y1:
            continue
        color = np.array([*S.person_color(idx), 255], dtype=np.uint8)
        segs = kps[S._EDGE_INDEX][:, :, :, None, None]
        px = np.arange(x0, x1 + 1, dtype=np.float64) + 0.5
        band = max(1, S._RENDER_BAND_CELLS // (len(segs) * len(px)))
        for b0 in range(y0, y1 + 1, band):
            b1 = min(b0 + band, y1 + 1)
            py = np.arange(b0, b1, dtype=np.float64) + 0.5
            inside = np.any(_capsule_sq_dist_reference(
                px[None, :], py[:, None], segs[:, 0, 0], segs[:, 0, 1],
                segs[:, 1, 0], segs[:, 1, 1]) <= r * r, axis=0)
            raster.pixels[b0:b1, x0:x1 + 1][inside] = color
            depth[b0:b1, x0:x1 + 1][inside] = layout.zs[idx]
    return raster, depth


def serialize_dataset_reference(dataset: Dataset) -> bytes:
    """annotations.serialize_dataset as one json.dumps of the whole
    document."""
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
                        "keypoints": p.pose.to_json(),
                    }
                    for p in img.persons
                ],
            }
            for img in dataset.images
        ],
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
