"""OKS similarity, greedy matching and AP reporting by crowding level.

The protocol is the standard keypoint-AP recipe: per OKS threshold, greedy
score-ordered matching against unmatched ground truths, then a dataset-wide
101-point interpolated precision/recall integral, averaged over thresholds
0.50:0.05:0.95. Reports carry one AP column per crowding level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .annotations import Dataset, PersonInstance, Pose, Visibility
from .crowd_metrics import LEVELS, crowd_index, partition
from .errors import AlignmentError, ProtocolError, UndefinedMetricError
from .seeding import map_jobs

DEFAULT_SIGMA_VALUE = 0.079
DEFAULT_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))

AREA_BBOX = "bbox"
AREA_SEGMENT = "segment"


def default_sigmas(count: int) -> np.ndarray:
    return np.full(count, DEFAULT_SIGMA_VALUE, dtype=np.float64)


@dataclass(frozen=True)
class OksConfig:
    sigmas: tuple[float, ...]
    area_mode: str = AREA_BBOX
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self):
        if any(s <= 0 for s in self.sigmas):
            raise ProtocolError("all OKS sigmas must be positive")
        t = self.thresholds
        if any(not 0.0 < x <= 1.0 for x in t) or any(b <= a for a, b in zip(t, t[1:])):
            raise ProtocolError("thresholds must be strictly increasing in (0, 1]")

    @classmethod
    def for_schema_count(cls, count: int, **kw) -> "OksConfig":
        return cls(sigmas=tuple(default_sigmas(count)), **kw)


def _labeled_indices(pose: Pose) -> list[int]:
    return [i for i, k in enumerate(pose.keypoints) if k.vis is not Visibility.UNLABELED]


def oks(pred: Pose, gt: Pose, gt_scale: float, cfg: OksConfig) -> float:
    """Object keypoint similarity in [0, 1] over the labeled gt keypoints.

    Per keypoint: exp(-d^2 / (2 * s^2 * k_i^2)) with s^2 = gt_scale (the
    object area in px^2) and k_i = 2 * sigmas[i].
    """
    if len(pred.keypoints) != len(gt.keypoints):
        raise ProtocolError(f"pose sizes differ: {len(pred.keypoints)} vs "
                            f"{len(gt.keypoints)}")
    labeled = _labeled_indices(gt)
    if not labeled:
        raise UndefinedMetricError("OKS undefined: gt has no labeled keypoints")
    total = 0.0
    for i in labeled:
        p, g = pred.keypoints[i], gt.keypoints[i]
        d2 = (p.x - g.x) ** 2 + (p.y - g.y) ** 2
        k = 2.0 * cfg.sigmas[i]
        total += np.exp(-d2 / (2.0 * gt_scale * k * k))
    return float(total / len(labeled))


def gt_scale_of(person: PersonInstance, cfg: OksConfig) -> float:
    """Ground-truth scale (area in px^2) per the configured area mode.

    Segment mode sums RLE foreground runs or shoelace polygon areas; the
    bbox area is the fallback whenever segmentation is absent.
    """
    if cfg.area_mode == AREA_SEGMENT and person.segmentation is not None:
        seg = person.segmentation
        if seg.kind == "rle":
            return float(sum(seg.rle_counts[1::2]))
        total = 0.0
        for poly in seg.polygons:
            acc = 0.0
            for i in range(len(poly)):
                x0, y0 = poly[i]
                x1, y1 = poly[(i + 1) % len(poly)]
                acc += x0 * y1 - x1 * y0
            total += abs(acc) / 2.0
        if total > 0.0:
            return total
    return float(person.bbox.area)


def match_greedy(preds: Sequence[PersonInstance], gts: Sequence[PersonInstance],
                 threshold: float, cfg: OksConfig) -> list[Optional[int]]:
    """Greedy assignment of predictions to ground truths at one OKS threshold.

    Predictions are visited in score order (ties keep input order); each
    takes the unmatched gt with the highest OKS if that OKS reaches the
    threshold. Ground truths without labeled keypoints are unmatchable.
    Returns, per prediction (input order), the matched gt index or None.
    """
    for p in preds:
        if p.score is None:
            raise ProtocolError("every prediction must carry a score")
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    matchable = [bool(_labeled_indices(g.pose)) for g in gts]
    taken = [False] * len(gts)
    assigned: list[Optional[int]] = [None] * len(preds)
    for pi in order:
        best_gt, best_oks = None, -1.0
        for gi, gt in enumerate(gts):
            if taken[gi] or not matchable[gi]:
                continue
            value = oks(preds[pi].pose, gt.pose, gt_scale_of(gt, cfg), cfg)
            if value >= threshold and value > best_oks:
                best_gt, best_oks = gi, value
        if best_gt is not None:
            taken[best_gt] = True
            assigned[pi] = best_gt
    return assigned


@dataclass
class ImageMatches:
    """Per-image matching outcome for one threshold."""

    image_id: str
    scores: list[float]
    matched: list[bool]
    gt_count: int  # matchable ground truths


def average_precision(per_image: Sequence[ImageMatches]) -> float:
    """101-point interpolated AP over one threshold's dataset-wide matches."""
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
    # precision envelope, then sample at 101 recall points
    for i in range(precision.size - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    out = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        idx = np.searchsorted(recall, r, side="left")
        if idx < precision.size:
            out += precision[idx]
    return out / 101.0


@dataclass
class EvalReport:
    ap: float
    ap_easy: Optional[float]
    ap_medium: Optional[float]
    ap_hard: Optional[float]
    per_threshold: list[tuple[float, float]] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "ap": self.ap,
            "ap_easy": self.ap_easy,
            "ap_medium": self.ap_medium,
            "ap_hard": self.ap_hard,
            "per_threshold": [{"threshold": t, "ap": a} for t, a in self.per_threshold],
            "counts": self.counts,
        }


def _mean_ap(image_ids: Sequence[str],
             matches: dict[float, dict[str, ImageMatches]],
             thresholds: Sequence[float]) -> tuple[float, list[tuple[float, float]]]:
    per_threshold = []
    for t in thresholds:
        subset = [matches[t][i] for i in image_ids]
        per_threshold.append((t, average_precision(subset)))
    mean = float(np.mean([a for _, a in per_threshold]))
    return mean, per_threshold


def _match_image_all_thresholds(task):
    image_id, preds, gts, cfg = task
    gt_count = sum(1 for g in gts if _labeled_indices(g.pose))
    out = {}
    for t in cfg.thresholds:
        assigned = match_greedy(preds, gts, t, cfg)
        out[t] = ImageMatches(image_id=image_id,
                              scores=[p.score for p in preds],
                              matched=[a is not None for a in assigned],
                              gt_count=gt_count)
    return image_id, out


def eval_by_crowding(pred_dataset: Dataset, gt_dataset: Dataset,
                     cfg: OksConfig, jobs: int = 1) -> EvalReport:
    """AP overall and per crowding level of the ground-truth CrowdIndex.

    Prediction and ground-truth datasets must cover the same image ids.
    Images whose gt has no persons join the overall pool only (their
    predictions count as false positives); levels with no images report
    None. Per-image matching fans out over `jobs` processes; the final
    aggregation is an ordered merge, so results never depend on jobs.
    """
    gt_by_id = {img.id: img for img in gt_dataset.images}
    pred_by_id = {img.id: img for img in pred_dataset.images}
    missing = sorted(set(gt_by_id) ^ set(pred_by_id))
    if missing:
        raise AlignmentError(f"image ids not shared by both datasets: {missing}")

    image_ids = [img.id for img in gt_dataset.images]
    levels: dict[str, list[str]] = {level: [] for level in LEVELS}
    instance_counts = {level: 0 for level in LEVELS}
    for img_id in image_ids:
        gt_img = gt_by_id[img_id]
        if not gt_img.persons:
            continue
        level = partition(crowd_index(gt_img))
        levels[level].append(img_id)
        instance_counts[level] += len(gt_img.persons)

    tasks = [(img_id, pred_by_id[img_id].persons, gt_by_id[img_id].persons, cfg)
             for img_id in image_ids]
    per_image = map_jobs(_match_image_all_thresholds, tasks, jobs)
    matches: dict[float, dict[str, ImageMatches]] = {t: {} for t in cfg.thresholds}
    for img_id, by_threshold in per_image:
        for t, m in by_threshold.items():
            matches[t][img_id] = m

    ap, per_threshold = _mean_ap(image_ids, matches, cfg.thresholds)
    level_ap: dict[str, Optional[float]] = {}
    for level in LEVELS:
        if levels[level]:
            level_ap[level], _ = _mean_ap(levels[level], matches, cfg.thresholds)
        else:
            level_ap[level] = None
    return EvalReport(
        ap=ap,
        ap_easy=level_ap["easy"],
        ap_medium=level_ap["medium"],
        ap_hard=level_ap["hard"],
        per_threshold=per_threshold,
        counts={
            "images": {level: len(levels[level]) for level in LEVELS},
            "instances": instance_counts,
            "total_images": len(image_ids),
            "total_instances": sum(len(gt_by_id[i].persons) for i in image_ids),
        },
    )
