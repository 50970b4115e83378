"""OKS similarity, greedy matching and AP reporting by crowding level.

The protocol is the standard keypoint-AP recipe: per OKS threshold, greedy
score-ordered matching against unmatched ground truths, then a dataset-wide
101-point interpolated precision/recall integral, averaged over thresholds
0.50:0.05:0.95. Reports carry one AP column per crowding level.

As in COCO's `computeOks`/`evaluateImg` split, each image builds one
(predictions x ground truths) OKS matrix; one matcher step then takes every
image's r-th prediction at every threshold, and each AP pool is ranked once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .annotations import CODE_UNLABELED, Dataset, PersonInstance, gather_keypoints
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


def _pose_arrays(persons: Sequence[PersonInstance],
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, K, 2) keypoint coordinates and the (N, K) labeled mask."""
    for p in persons:
        if len(p.pose.codes) != count:
            raise ProtocolError(f"pose has {len(p.pose.codes)} keypoints, "
                                f"the OKS sigmas cover {count}")
    xy, codes, _ = gather_keypoints(persons)
    n = len(persons)
    return xy.reshape(n, count, 2), codes.reshape(n, count) != CODE_UNLABELED


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


# Bound on the padded cells of one matcher run (OKS stack, per-step arrays
# and assignments), so one image with thousands of predictions pads no other.
_MATCH_RUN_CELLS = 1 << 17


def _match_run(run: Sequence[tuple[np.ndarray, Sequence[int]]],
               thresholds: Sequence[float]) -> list[np.ndarray]:
    """match_greedy for a run of (oks_matrix, score order) pairs at every
    threshold at once, step r taking every image's r-th prediction. Returns
    per image a (thresholds, predictions) array of gt indices, -1 for none."""
    depth, width = np.max([oks.shape for oks, _ in run], axis=0)
    # rows in rank order; padded rows and columns match nothing
    stack = np.full((len(run), depth, width), -np.inf)
    for b, (oks, order) in enumerate(run):
        stack[b, :len(order), :oks.shape[1]] = oks[order]
    stack[np.isnan(stack)] = -np.inf
    by_rank = np.full((len(run), len(thresholds), depth), -1, dtype=np.intp)
    taken = np.zeros((len(run), len(thresholds), width), dtype=bool)
    cells = np.ix_(range(len(run)), range(len(thresholds)))
    for r in range(depth if width else 0):
        free = np.where(taken, -np.inf, stack[:, None, r])
        gi = free.argmax(axis=2)
        hit = free[(*cells, gi)] >= np.asarray(thresholds, dtype=np.float64)
        by_rank[:, :, r] = np.where(hit, gi, -1)
        taken[(*cells, gi)] |= hit
    return [by_rank[b][:, np.argsort(order)] for b, (_, order) in enumerate(run)]


def _match(images: Iterable[tuple[np.ndarray, Sequence[int]]],
           thresholds: Sequence[float]) -> Iterator[np.ndarray]:
    """_match_run over consecutive runs of `images` that stay within
    _MATCH_RUN_CELLS; an image larger than that is a run alone."""
    run, depth, width, t = [], 0, 0, len(thresholds)
    for oks, order in images:
        depth, width = max(depth, len(order)), max(width, oks.shape[1])
        if run and (len(run) + 1) * (depth + t) * (width + t) > _MATCH_RUN_CELLS:
            yield from _match_run(run, thresholds)
            run, depth, width = [], len(order), oks.shape[1]
        run.append((oks, order))
    if run:
        yield from _match_run(run, thresholds)


def match_greedy(preds: Sequence[PersonInstance], gts: Sequence[PersonInstance],
                 threshold: float, cfg: OksConfig) -> list[Optional[int]]:
    """Greedy assignment of predictions to ground truths at one OKS threshold.

    Predictions are visited in score order (ties keep input order); each
    takes the unmatched gt with the highest OKS if that OKS reaches the
    threshold; argmax keeps the first of equal gts, and NaN OKS entries
    never match. Ground truths without labeled keypoints are unmatchable.
    Returns, per prediction (input order), the matched gt index or None.
    """
    run = [(oks_matrix(preds, gts, cfg), _score_order(preds))]
    return [None if gi < 0 else gi for gi in _match_run(run, (threshold,))[0][0].tolist()]


_RECALL_POINTS = np.linspace(0.0, 1.0, 101)


def average_precision(keys: np.ndarray, hits: np.ndarray, total_gt: int) -> list[float]:
    """101-point interpolated AP per row of `hits` (one per threshold) of a pool
    ranked by (-score, image id rank, index in the image), the rows of the
    (3, N) `keys`, against `total_gt` matchable ground truths."""
    if total_gt == 0:
        raise UndefinedMetricError("AP undefined without ground-truth instances")
    if not keys.shape[1]:
        return [0.0] * len(hits)
    ranked = hits[:, np.lexsort((keys[2], keys[1], -keys[0]))].astype(np.float64)
    tp = np.cumsum(ranked, axis=1)
    fp = np.cumsum(1.0 - ranked, axis=1)
    recall = tp / total_gt
    precision = tp / (tp + fp)
    # precision envelope, sampled at the 101 recall points up to the last recall
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    aps = []
    for t in range(len(hits)):
        idx = np.searchsorted(recall[t], _RECALL_POINTS, side="left")
        # a running sum in recall order: np.sum's pairwise order rounds differently
        aps.append(float(np.cumsum(envelope[t, idx[idx < keys.shape[1]]])[-1]) / 101.0)
    return aps


@dataclass
class EvalReport:
    ap: float
    ap_easy: Optional[float]
    ap_medium: Optional[float]
    ap_hard: Optional[float]
    per_threshold: list[tuple[float, float]] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    no_own_keypoints: int = 0  # gt persons counted as ratio 0; not in to_json

    def to_json(self) -> dict:
        return {
            "ap": self.ap,
            "ap_easy": self.ap_easy,
            "ap_medium": self.ap_medium,
            "ap_hard": self.ap_hard,
            "per_threshold": [{"threshold": t, "ap": a} for t, a in self.per_threshold],
            "counts": self.counts,
        }


def eval_by_crowding(pred_dataset: Dataset, gt_dataset: Dataset,
                     cfg: OksConfig) -> EvalReport:
    """AP overall and per crowding level of the ground-truth CrowdIndex.

    Prediction and ground-truth datasets must list the same image ids, and
    the OKS sigmas must cover the gt schema's keypoints.
    Images whose gt has no persons join the overall pool only (their
    predictions count as false positives); levels with no images report None.
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
    gts = [gt_by_id[i].persons for i in image_ids]
    preds = [pred_by_id[i].persons for i in image_ids]
    orders = [_score_order(ps, i) for ps, i in zip(preds, image_ids)]
    # dataset-wide arrays; the gt ones feed both the CrowdIndex and the OKS
    all_gts = [g for gs in gts for g in gs]
    gt_xy, labeled = _pose_arrays(all_gts, count)
    pred_xy, _ = _pose_arrays([p for ps in preds for p in ps], count)
    boxes = np.array([(g.bbox.x, g.bbox.y, g.bbox.w, g.bbox.h) for g in all_gts],
                     dtype=np.float64).reshape(len(all_gts), 4)
    # Python products: a huge box's area is inf without a numpy warning
    area = np.array([g.bbox.area for g in all_gts], dtype=np.float64)
    gt_at = np.cumsum([0, *map(len, gts)]).tolist()
    pred_at = np.cumsum([0, *map(len, preds)]).tolist()
    # per image: its gts and its predictions as slices of those arrays
    spans = [(slice(*gt_at[n:n + 2]), slice(*pred_at[n:n + 2])) for n in range(len(image_ids))]

    levels: dict[str, list[int]] = {level: [] for level in LEVELS}
    no_own_keypoints = 0
    for n, (g, _) in enumerate(spans):
        if gts[n]:
            c, no_own = crowd_index_arrays(boxes[g], gt_xy[g][labeled[g]],
                                           np.nonzero(labeled[g])[0])
            levels[partition(c)].append(n)
            no_own_keypoints += no_own
    assigned = _match(((_oks_arrays(pred_xy[p], gt_xy[g], labeled[g], area[g], cfg.sigmas),
                        order) for (g, p), order in zip(spans, orders)), DEFAULT_THRESHOLDS)
    hits = np.concatenate([np.empty((len(DEFAULT_THRESHOLDS), 0), dtype=bool)] +
                          [a >= 0 for a in assigned], axis=1)
    id_rank = {img_id: r for r, img_id in enumerate(sorted(image_ids))}
    keys = np.array([(p.score, id_rank[img_id], i) for img_id, ps in zip(image_ids, preds)
                     for i, p in enumerate(ps)], dtype=np.float64).reshape(-1, 3).T
    matchable = labeled.any(axis=1)

    def mean_ap(pool) -> tuple[float, list[tuple[float, float]]]:
        in_pool = np.bincount(pool, minlength=len(image_ids)).astype(bool)
        keep = np.repeat(in_pool, np.diff(pred_at))
        total_gt = int(matchable[np.repeat(in_pool, np.diff(gt_at))].sum())
        aps = average_precision(keys[:, keep], hits[:, keep], total_gt)
        return float(np.mean(aps)), list(zip(DEFAULT_THRESHOLDS, aps))

    ap, per_threshold = mean_ap(np.arange(len(image_ids)))
    return EvalReport(
        ap, *(mean_ap(levels[level])[0] if levels[level] else None for level in LEVELS),
        per_threshold=per_threshold,
        counts={
            "images": {level: len(levels[level]) for level in LEVELS},
            "instances": {level: sum(len(gts[n]) for n in levels[level])
                          for level in LEVELS},
            "total_images": len(image_ids),
            "total_instances": len(all_gts),
        },
        no_own_keypoints=no_own_keypoints,
    )
