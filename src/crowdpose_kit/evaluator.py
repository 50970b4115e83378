"""OKS similarity, greedy matching and AP reporting by crowding level.

The protocol is the standard keypoint-AP recipe: per OKS threshold, greedy
score-ordered matching against unmatched ground truths, then a dataset-wide
101-point interpolated precision/recall integral, averaged over thresholds
0.50:0.05:0.95. Reports carry one AP column per crowding level.

As in COCO's `computeOks`/`evaluateImg` split, each image builds one
(predictions x ground truths) OKS matrix, and every threshold's matching
reads rows of it in one shared score order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .annotations import Dataset, PersonInstance, Visibility
from .crowd_metrics import LEVELS, crowd_index, partition
from .errors import AlignmentError, ProtocolError, UndefinedMetricError

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


def _pose_arrays(persons: Sequence[PersonInstance],
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, K, 2) keypoint coordinates and the (N, K) labeled mask."""
    for p in persons:
        if len(p.pose.keypoints) != count:
            raise ProtocolError(f"pose has {len(p.pose.keypoints)} keypoints, "
                                f"the OKS sigmas cover {count}")
    xy = np.array([[(k.x, k.y) for k in p.pose.keypoints] for p in persons],
                  dtype=np.float64).reshape(len(persons), count, 2)
    labeled = np.array([[k.vis is not Visibility.UNLABELED for k in p.pose.keypoints]
                        for p in persons], dtype=bool).reshape(len(persons), count)
    return xy, labeled


def oks_matrix(preds: Sequence[PersonInstance], gts: Sequence[PersonInstance],
               cfg: OksConfig) -> np.ndarray:
    """Object keypoint similarity of every prediction to every gt, (P, G).

    Per keypoint: exp(-d^2 / (2 * s^2 * k_i^2)) with s^2 the gt scale (the
    object area in px^2, see gt_scale_of) and k_i = 2 * sigmas[i], averaged
    over the gt's labeled keypoints. A gt without labeled keypoints has no
    OKS: its column is NaN. The terms are added in keypoint order, so each
    entry equals the one-pair sum term for term.
    """
    count = len(cfg.sigmas)
    pred_xy, _ = _pose_arrays(preds, count)
    gt_xy, labeled = _pose_arrays(gts, count)
    scale = np.array([gt_scale_of(g, cfg) for g in gts], dtype=np.float64)
    k = 2.0 * np.asarray(cfg.sigmas, dtype=np.float64)
    diff = pred_xy[:, None, :, :] - gt_xy[None, :, :, :]       # (P, G, K, 2)
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2                  # (P, G, K)
    total = np.zeros((len(preds), len(gts)))
    # dividing by zero (no labeled keypoint, or a zero-area gt) gives NaN
    # or 0, and neither ever matches
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.exp(-d2 / (2.0 * scale[None, :, None] * k * k))
        for i in range(count):
            total += np.where(labeled[:, i], terms[:, :, i], 0.0)
        return total / labeled.sum(axis=1)


def _score_order(preds: Sequence[PersonInstance]) -> list[int]:
    """Prediction indices by descending score; ties keep input order."""
    for p in preds:
        if p.score is None:
            raise ProtocolError("every prediction must carry a score")
    return sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))


def _match_rows(oks: np.ndarray, order: Sequence[int],
                threshold: float) -> list[Optional[int]]:
    """Greedy assignment over rows of an oks_matrix.

    Each prediction, in `order`, takes the unmatched gt with the highest OKS
    if that OKS reaches the threshold; argmax keeps the first of equal gts.
    NaN entries never match.
    """
    free = np.where(np.isnan(oks), -np.inf, oks)
    assigned: list[Optional[int]] = [None] * len(oks)
    if free.shape[1] == 0:
        return assigned
    for pi in order:
        row = free[pi]
        gi = int(row.argmax())
        if row[gi] >= threshold:
            assigned[pi] = gi
            free[:, gi] = -np.inf
    return assigned


def match_greedy(preds: Sequence[PersonInstance], gts: Sequence[PersonInstance],
                 threshold: float, cfg: OksConfig) -> list[Optional[int]]:
    """Greedy assignment of predictions to ground truths at one OKS threshold.

    Predictions are visited in score order (ties keep input order); each
    takes the unmatched gt with the highest OKS if that OKS reaches the
    threshold. Ground truths without labeled keypoints are unmatchable.
    Returns, per prediction (input order), the matched gt index or None.
    """
    order = _score_order(preds)
    return _match_rows(oks_matrix(preds, gts, cfg), order, threshold)


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


def eval_by_crowding(pred_dataset: Dataset, gt_dataset: Dataset,
                     cfg: OksConfig) -> EvalReport:
    """AP overall and per crowding level of the ground-truth CrowdIndex.

    Prediction and ground-truth datasets must cover the same image ids, and
    the OKS sigmas must cover the gt schema's keypoints. Images whose gt has
    no persons join the overall pool only (their predictions count as false
    positives); levels with no images report None.
    """
    count = gt_dataset.schema.count
    if len(cfg.sigmas) != count:
        raise ProtocolError(f"{len(cfg.sigmas)} OKS sigmas for a {count}-keypoint "
                            f"schema")
    gt_by_id = {img.id: img for img in gt_dataset.images}
    pred_by_id = {img.id: img for img in pred_dataset.images}
    missing = sorted(set(gt_by_id) ^ set(pred_by_id))
    if missing:
        raise AlignmentError(f"image ids not shared by both datasets: {missing}")

    image_ids = [img.id for img in gt_dataset.images]
    levels: dict[str, list[str]] = {level: [] for level in LEVELS}
    instance_counts = {level: 0 for level in LEVELS}
    matches: dict[float, dict[str, ImageMatches]] = {t: {} for t in cfg.thresholds}
    for img_id in image_ids:
        gts = gt_by_id[img_id].persons
        preds = pred_by_id[img_id].persons
        if gts:
            level = partition(crowd_index(gt_by_id[img_id]))
            levels[level].append(img_id)
            instance_counts[level] += len(gts)
        order = _score_order(preds)
        oks = oks_matrix(preds, gts, cfg)
        scores = [p.score for p in preds]
        gt_count = sum(1 for g in gts if any(k.labeled for k in g.pose.keypoints))
        for t in cfg.thresholds:
            assigned = _match_rows(oks, order, t)
            matches[t][img_id] = ImageMatches(
                image_id=img_id, scores=scores,
                matched=[a is not None for a in assigned], gt_count=gt_count)

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
