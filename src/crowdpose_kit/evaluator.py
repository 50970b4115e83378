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

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .annotations import CODE_UNLABELED, Dataset, PersonInstance
from .crowd_metrics import LEVELS, crowd_index_arrays, partition
from .errors import AlignmentError, ProtocolError, UndefinedMetricError

DEFAULT_SIGMA_VALUE = 0.079
DEFAULT_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


def default_sigmas(count: int) -> np.ndarray:
    return np.full(count, DEFAULT_SIGMA_VALUE, dtype=np.float64)


@dataclass(frozen=True)
class OksConfig:
    sigmas: tuple[float, ...]

    def __post_init__(self):
        if any(s <= 0 for s in self.sigmas):
            raise ProtocolError("all OKS sigmas must be positive")

    @classmethod
    def for_schema_count(cls, count: int) -> "OksConfig":
        return cls(sigmas=tuple(default_sigmas(count)))


def _pose_arrays(persons: Sequence[PersonInstance],
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, K, 2) keypoint coordinates and the (N, K) labeled mask."""
    for p in persons:
        if len(p.pose.codes) != count:
            raise ProtocolError(f"pose has {len(p.pose.codes)} keypoints, "
                                f"the OKS sigmas cover {count}")
    if not persons:
        return np.empty((0, count, 2)), np.empty((0, count), dtype=bool)
    xy = np.stack([p.pose.xy for p in persons])
    labeled = np.stack([p.pose.codes for p in persons]) != CODE_UNLABELED
    return xy, labeled


def _oks_arrays(pred_xy: np.ndarray, gt_xy: np.ndarray, labeled: np.ndarray,
                scale: np.ndarray, sigmas: Sequence[float]) -> np.ndarray:
    """oks_matrix on arrays: (P, K, 2) and (G, K, 2) coordinates, the gts'
    (G, K) labeled mask and (G,) box areas."""
    k = 2.0 * np.asarray(sigmas, dtype=np.float64)
    total = np.zeros((len(pred_xy), len(gt_xy)))
    # dividing by zero (no labeled keypoint, or a zero-area gt) gives NaN
    # or 0, and neither ever matches; an infinite or huge coordinate gives
    # an infinite or NaN distance, which never matches either
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diff = pred_xy[:, None, :, :] - gt_xy[None, :, :, :]       # (P, G, K, 2)
        d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2                  # (P, G, K)
        terms = np.where(labeled, np.exp(-d2 / (2.0 * scale[None, :, None] * k * k)), 0.0)
        for i in range(len(k)):
            total += terms[:, :, i]
        return total / labeled.sum(axis=1)


def oks_matrix(preds: Sequence[PersonInstance], gts: Sequence[PersonInstance],
               cfg: OksConfig) -> np.ndarray:
    """Object keypoint similarity of every prediction to every gt, (P, G).

    Per keypoint: exp(-d^2 / (2 * s^2 * k_i^2)) with s^2 the gt box area in
    px^2 and k_i = 2 * sigmas[i], averaged over the gt's labeled keypoints.
    A gt without labeled keypoints has no OKS: its column is NaN. The terms are added in keypoint order, so each
    entry equals the one-pair sum term for term.
    """
    count = len(cfg.sigmas)
    pred_xy, _ = _pose_arrays(preds, count)
    gt_xy, labeled = _pose_arrays(gts, count)
    scale = np.array([g.bbox.area for g in gts], dtype=np.float64)
    return _oks_arrays(pred_xy, gt_xy, labeled, scale, cfg.sigmas)


def _score_order(preds: Sequence[PersonInstance], image_id: str = "") -> list[int]:
    """Prediction indices by descending score; ties keep input order.

    A NaN score has no rank (it compares false with every score), so the
    order, and the AP, would depend on the input order: it is refused."""
    for i, p in enumerate(preds):
        if p.score is None:
            raise ProtocolError("every prediction must carry a score")
        if math.isnan(p.score):
            raise ProtocolError(f"prediction {i} of image {image_id!r} has a NaN score")
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


_RECALL_POINTS = np.linspace(0.0, 1.0, 101)


def average_precision(per_image: Sequence[ImageMatches]) -> float:
    """101-point interpolated AP over one threshold's dataset-wide matches."""
    total_gt = sum(m.gt_count for m in per_image)
    if total_gt == 0:
        raise UndefinedMetricError("AP undefined without ground-truth instances")
    rows = [(-score, m.image_id, idx, hit) for m in per_image
            for idx, (score, hit) in enumerate(zip(m.scores, m.matched))]
    rows.sort()
    if not rows:
        return 0.0
    hits = np.array([r[3] for r in rows], dtype=np.float64)
    tp = np.cumsum(hits)
    fp = np.cumsum(1.0 - hits)
    recall = tp / total_gt
    precision = tp / (tp + fp)
    # precision envelope, sampled at the 101 recall points; a point past the
    # last recall adds nothing
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, _RECALL_POINTS, side="left")
    # a running sum in recall order: np.sum's pairwise order rounds differently
    out = 0.0
    for p in envelope[idx[idx < envelope.size]].tolist():
        out += p
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


def _mean_ap(image_ids: Sequence[str], matches: dict[float, dict[str, ImageMatches]]
             ) -> tuple[float, list[tuple[float, float]]]:
    per_threshold = []
    for t in DEFAULT_THRESHOLDS:
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
    matches: dict[float, dict[str, ImageMatches]] = {t: {} for t in DEFAULT_THRESHOLDS}
    for img_id in image_ids:
        gts = gt_by_id[img_id].persons
        preds = pred_by_id[img_id].persons
        order = _score_order(preds, img_id)
        pred_xy, _ = _pose_arrays(preds, count)
        # one set of gt arrays feeds both the CrowdIndex and the OKS
        gt_xy, labeled = _pose_arrays(gts, count)
        boxes = np.array([(g.bbox.x, g.bbox.y, g.bbox.w, g.bbox.h) for g in gts],
                         dtype=np.float64).reshape(len(gts), 4)
        if gts:
            level = partition(crowd_index_arrays(
                boxes, gt_xy[labeled], np.nonzero(labeled)[0], image_id=img_id))
            levels[level].append(img_id)
            instance_counts[level] += len(gts)
        # Python products: a huge box's area is inf without a numpy warning
        area = np.array([g.bbox.area for g in gts], dtype=np.float64)
        oks = _oks_arrays(pred_xy, gt_xy, labeled, area, cfg.sigmas)
        scores = [p.score for p in preds]
        gt_count = int(labeled.any(axis=1).sum())
        for t in DEFAULT_THRESHOLDS:
            assigned = _match_rows(oks, order, t)
            matches[t][img_id] = ImageMatches(
                image_id=img_id, scores=scores,
                matched=[a is not None for a in assigned], gt_count=gt_count)

    ap, per_threshold = _mean_ap(image_ids, matches)
    level_ap: dict[str, Optional[float]] = {}
    for level in LEVELS:
        if levels[level]:
            level_ap[level], _ = _mean_ap(levels[level], matches)
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
