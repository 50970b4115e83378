import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdpose_kit import evaluator as E
from crowdpose_kit.annotations import (CODE_VISIBLE, CROWDPOSE_SCHEMA, BBox, Dataset,
                                       ImageRecord, Keypoint, PersonInstance, Pose,
                                       PoseSchema, Visibility)
from crowdpose_kit.crowd_metrics import crowd_index, partition
from crowdpose_kit.errors import (AlignmentError, ParseError, ProtocolError,
                                  UndefinedMetricError)

import oracles
from conftest import make_pose, rand_pose, rand_record

PAIR_SCHEMA = PoseSchema("pair", ("a", "b"))
CODES_VISIBLE = np.full(14, CODE_VISIBLE, dtype=np.int8)


def pair_pose(coords, vis=Visibility.VISIBLE):
    return make_pose(coords, vis=vis, schema=PAIR_SCHEMA)


def pair_cfg(**kw):
    return E.OksConfig(sigmas=(0.1, 0.1), **kw)


def oks_of(pred, gt, gt_scale, cfg):
    """The one-pair OKS entry of the matrix; gt_scale is the gt bbox area."""
    box = BBox(0.0, 0.0, gt_scale, 1.0)
    return E.oks_matrix([PersonInstance(bbox=box, pose=pred)],
                        [PersonInstance(bbox=box, pose=gt)], cfg)[0, 0]


class TestOks:
    def test_exact_match_is_one(self):
        gt = pair_pose([(3, 4), (10, 12)])
        assert oks_of(gt, gt, gt_scale=25.0, cfg=pair_cfg()) == 1.0

    def test_far_prediction_tends_to_zero(self):
        gt = pair_pose([(0, 0), (1, 1)])
        pred = pair_pose([(1e6, 1e6), (1e6, 1e6)])
        assert oks_of(pred, gt, gt_scale=25.0, cfg=pair_cfg()) < 1e-12

    def test_closed_form_distance_sk(self):
        # d = s*k per keypoint -> per-keypoint similarity exp(-1/2)
        s = 2.0
        k = 2.0 * 0.1
        d = s * k
        gt = pair_pose([(0, 0), (5, 5)])
        pred = pair_pose([(d, 0), (5, 5 + d)])
        value = oks_of(pred, gt, gt_scale=s * s, cfg=pair_cfg())
        assert value == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_unlabeled_gt_excluded(self):
        gt = pair_pose([(0, 0), (5, 5)], vis=[Visibility.VISIBLE,
                                              Visibility.UNLABELED])
        pred = pair_pose([(0, 0), (999, 999)])
        assert oks_of(pred, gt, gt_scale=25.0, cfg=pair_cfg()) == 1.0

    def test_no_labeled_gt_undefined(self):
        gt = pair_pose([(0, 0), (5, 5)], vis=Visibility.UNLABELED)
        assert math.isnan(oks_of(gt, gt, gt_scale=25.0, cfg=pair_cfg()))

    def test_translation_invariance_exact(self):
        # dyadic coordinates + integer shift keep every float op exact
        gt = pair_pose([(1.25, 2.5), (7.75, 3.125)])
        pred = pair_pose([(1.5, 2.25), (8.0, 3.5)])
        base = oks_of(pred, gt, gt_scale=16.0, cfg=pair_cfg())
        gt2 = pair_pose([(k.x + 32, k.y + 64) for k in gt.keypoints])
        pred2 = pair_pose([(k.x + 32, k.y + 64) for k in pred.keypoints])
        assert oks_of(pred2, gt2, gt_scale=16.0, cfg=pair_cfg()) == base

    def test_scale_covariance(self):
        gt = pair_pose([(1.25, 2.5), (7.75, 3.125)])
        pred = pair_pose([(1.5, 2.25), (8.0, 3.5)])
        base = oks_of(pred, gt, gt_scale=16.0, cfg=pair_cfg())
        gt2 = pair_pose([(2 * k.x, 2 * k.y) for k in gt.keypoints])
        pred2 = pair_pose([(2 * k.x, 2 * k.y) for k in pred.keypoints])
        scaled = oks_of(pred2, gt2, gt_scale=64.0, cfg=pair_cfg())
        assert scaled == pytest.approx(base, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pred=st.integers(0, 5),
           n_gt=st.integers(1, 5))
    def test_matrix_equals_scalar_oracle(self, seed, n_pred, n_gt):
        rng = np.random.default_rng(seed)
        cfg = E.OksConfig(sigmas=tuple(rng.uniform(0.02, 0.2, 14)))
        vis_choices = [Visibility.VISIBLE, Visibility.OCCLUDED, Visibility.UNLABELED]
        gts = []
        for g in range(n_gt):
            box = BBox(*rng.uniform(0, 80, 2), *rng.uniform(5, 60, 2))
            vis = ([Visibility.UNLABELED] * 14 if g == 0 else
                   [vis_choices[i] for i in rng.integers(0, 3, 14)])
            gts.append(person(box, rand_pose(rng, box, vis=vis)))
        preds = []
        for _ in range(n_pred):
            base = gts[int(rng.integers(n_gt))]
            pose = make_pose([(k.x + rng.normal(0, 6), k.y + rng.normal(0, 6))
                              for k in base.pose.keypoints])
            preds.append(person(base.bbox, pose, score=0.5))
        matrix = E.oks_matrix(preds, gts, cfg)
        assert matrix.shape == (n_pred, n_gt)
        for pi, p in enumerate(preds):
            assert math.isnan(matrix[pi, 0])  # gt 0 has no labeled keypoint
            for gi in range(1, n_gt):
                g = gts[gi]
                if all(k.vis is Visibility.UNLABELED for k in g.pose.keypoints):
                    assert math.isnan(matrix[pi, gi])
                    continue
                expected = oracles.oks_scalar(p.pose, g.pose, g.bbox.area, cfg.sigmas)
                assert matrix[pi, gi] == pytest.approx(expected, abs=1e-12)

    def test_sigma_count_must_match_poses(self):
        gt = pair_pose([(0, 0), (5, 5)])
        box = BBox(0, 0, 5, 5)
        with pytest.raises(ProtocolError):
            E.oks_matrix([person(box, gt)], [person(box, gt)],
                         E.OksConfig(sigmas=(0.1, 0.1, 0.1)))

    def test_thresholds_validated(self):
        with pytest.raises(ProtocolError):
            E.OksConfig(sigmas=(0.0,))


def person(box, pose, score=None):
    return PersonInstance(bbox=box, pose=pose, score=score)


def crowd_cfg():
    return E.OksConfig(tuple(E.default_sigmas(14)))


class TestMatchGreedy:
    def test_perfect_one_to_one(self, rng):
        gts, preds = [], []
        for i in range(4):
            box = BBox(40.0 * i, 10, 30, 50)
            pose = rand_pose(rng, box)
            gts.append(person(box, pose))
            preds.append(person(box, pose, score=0.5 + 0.1 * i))
        assigned = E.match_greedy(preds, gts, 0.9, crowd_cfg())
        assert assigned == [0, 1, 2, 3]

    def test_two_preds_one_gt(self, rng):
        box = BBox(5, 5, 30, 50)
        pose = rand_pose(rng, box)
        gts = [person(box, pose)]
        preds = [person(box, pose, score=0.4), person(box, pose, score=0.9)]
        assigned = E.match_greedy(preds, gts, 0.5, crowd_cfg())
        assert assigned == [None, 0]  # higher score wins, the other is a FP

    def test_score_required(self, rng):
        box = BBox(5, 5, 30, 50)
        pose = rand_pose(rng, box)
        with pytest.raises(ProtocolError):
            E.match_greedy([person(box, pose)], [person(box, pose)], 0.5,
                           crowd_cfg())

    def test_matches_reference_implementation(self, rng):
        cfg = crowd_cfg()
        for i in range(100):
            gts, preds = [], []
            for g in range(int(rng.integers(1, 6))):
                box = BBox(float(rng.uniform(0, 120)), float(rng.uniform(0, 90)),
                           float(rng.uniform(15, 50)), float(rng.uniform(25, 70)))
                gts.append(person(box, rand_pose(rng, box)))
            for p in range(int(rng.integers(0, 7))):
                base = gts[int(rng.integers(len(gts)))]
                noisy = Pose(CROWDPOSE_SCHEMA, tuple(
                    Keypoint(k.x + float(rng.normal(0, 4)),
                             k.y + float(rng.normal(0, 4)), k.vis)
                    for k in base.pose.keypoints))
                preds.append(person(base.bbox, noisy,
                                    score=float(rng.uniform(0.1, 1.0))))
            for thr in (0.5, 0.75, 0.95):
                ours = E.match_greedy(preds, gts, thr, cfg)
                ref = oracles.match_greedy_reference(preds, gts, thr, cfg.sigmas)
                assert ours == ref, f"scene {i} thr {thr}"


def matches(image_id, rows, gt_count):
    return oracles.ImageMatches(image_id=image_id,
                                scores=[r[0] for r in rows],
                                matched=[r[1] for r in rows],
                                gt_count=gt_count)


def ap_of(per_image):
    """E.average_precision of one threshold's per-image matches."""
    id_rank = {i: r for r, i in enumerate(sorted({m.image_id for m in per_image}))}
    keys = np.array([(score, id_rank[m.image_id], idx) for m in per_image
                     for idx, score in enumerate(m.scores)], dtype=np.float64).reshape(-1, 3).T
    hits = np.array([[hit for m in per_image for hit in m.matched]], dtype=bool)
    [value] = E.average_precision(keys, hits, sum(m.gt_count for m in per_image))
    return value


class TestAveragePrecision:
    def test_perfect(self):
        per_image = [matches(f"i{j}", [(0.9, True), (0.8, True)], 2)
                     for j in range(5)]
        assert ap_of(per_image) == 1.0

    def test_zero_predictions(self):
        assert ap_of([matches("a", [], 3)]) == 0.0

    def test_half_recall_no_false_positives(self):
        per_image = [matches(f"i{j}", [(0.9, True)], 2) for j in range(10)]
        value = ap_of(per_image)
        assert value == pytest.approx(0.5, abs=0.01)  # 51/101 on the grid

    def test_no_gts_undefined(self):
        with pytest.raises(UndefinedMetricError):
            ap_of([matches("a", [(0.9, False)], 0)])

    def test_removing_false_positive_never_decreases(self):
        with_fp = [matches("a", [(0.9, True), (0.8, False), (0.7, True)], 2)]
        without = [matches("a", [(0.9, True), (0.7, True)], 2)]
        assert ap_of(without) >= ap_of(with_fp)

    @settings(max_examples=300, deadline=None)
    @given(images=st.lists(st.tuples(
        # few distinct scores, so ties within and across images are common
        st.lists(st.tuples(st.sampled_from([0.2, 0.5, 0.5000000000000001, 0.9])
                           | st.floats(0.0, 1.0), st.booleans()), max_size=12),
        st.integers(0, 4)), min_size=1, max_size=6),
        hits=st.sampled_from([None, True, False]))
    def test_equals_scalar_reference_exactly(self, images, hits):
        per_image = []
        for j, (rows, extra_gts) in enumerate(images):
            if hits is not None:
                rows = [(score, hits) for score, _ in rows]
            # ids sort in reverse of input order: ties go by id, not position
            per_image.append(matches(f"i{9 - j}", rows, sum(h for _, h in rows) + extra_gts))
        try:
            expected = oracles.average_precision_reference(per_image)
        except UndefinedMetricError:
            with pytest.raises(UndefinedMetricError):
                ap_of(per_image)
            return
        assert ap_of(per_image) == expected

    @settings(max_examples=100, deadline=None)
    @given(scores=st.lists(st.sampled_from([0.2, 0.5, 0.9]), max_size=15),
           data=st.data())
    def test_rows_are_independent_thresholds(self, scores, data):
        rows = data.draw(st.integers(1, 10))
        hits = np.array(data.draw(st.lists(
            st.lists(st.booleans(), min_size=len(scores), max_size=len(scores)),
            min_size=rows, max_size=rows)), dtype=bool).reshape(rows, len(scores))
        keys = np.array([scores, [i % 3 for i in range(len(scores))],
                         range(len(scores))], dtype=np.float64).reshape(3, len(scores))
        total = len(scores) + 1
        assert E.average_precision(keys, hits, total) == [
            E.average_precision(keys, hits[t:t + 1], total)[0] for t in range(rows)]


@st.composite
def oks_images(draw):
    """Per image an OKS matrix and its score order: 0-6 predictions, 0-5
    gts, values that tie and sit on the thresholds, NaN columns, tied
    scores."""
    images = []
    for _ in range(draw(st.integers(0, 6))):
        p, g = draw(st.integers(0, 6)), draw(st.integers(0, 5))
        values = draw(st.lists(st.sampled_from([0.0, 0.5, 0.55, 0.7, 0.75, 0.95, 1.0])
                               | st.floats(0.0, 1.0), min_size=p * g, max_size=p * g))
        oks = np.array(values, dtype=np.float64).reshape(p, g)
        oks[:, draw(st.lists(st.booleans(), min_size=g, max_size=g))] = np.nan
        scores = draw(st.lists(st.sampled_from([0.2, 0.5, 0.9]), min_size=p, max_size=p))
        images.append((oks, sorted(range(p), key=lambda i: (-scores[i], i))))
    return images


class TestBatchedMatcher:
    # one image per run, one or two, and the real bound
    @settings(max_examples=300, deadline=None)
    @given(images=oks_images(), cells=st.sampled_from([1, 300, 600, E._MATCH_RUN_CELLS]))
    def test_equals_row_loop_at_every_threshold(self, images, cells):
        with mock.patch.object(E, "_MATCH_RUN_CELLS", cells):
            got = list(E._match(iter(images), E.DEFAULT_THRESHOLDS))
        assert len(got) == len(images)
        for (oks, order), assigned in zip(images, got):
            assert assigned.shape == (len(E.DEFAULT_THRESHOLDS), len(oks))
            for t, row in zip(E.DEFAULT_THRESHOLDS, assigned.tolist()):
                want = oracles.match_rows_reference(oks, order, t)
                assert [None if gi < 0 else gi for gi in row] == want

    def test_runs_stay_within_the_bound(self):
        images = [(np.zeros((p, 3)), list(range(p))) for p in (1, 1, 40, 1, 1, 1)]
        runs = []
        real = E._match_run

        def record(run, thresholds):
            runs.append([len(order) for _, order in run])
            return real(run, thresholds)

        with mock.patch.object(E, "_match_run", record), \
                mock.patch.object(E, "_MATCH_RUN_CELLS", 3 * 11 * 13):
            list(E._match(iter(images), E.DEFAULT_THRESHOLDS))
        assert runs == [[1, 1], [40], [1, 1, 1]]

    def test_skewed_dataset_memory_stays_near_the_run_bound(self, rng):
        """One image of 2,000 predictions beside 300 single-prediction images:
        padding every image to the large one would take ~50 MB of
        assignments alone."""
        gt_images, pred_images = [], []
        for i in range(301):
            box = BBox(10, 10, 60, 90)
            gts = tuple(person(box, rand_pose(rng, box)) for _ in range(2))
            count = 2000 if i == 150 else 1
            xy = rng.uniform(10, 70, (count, 14, 2))
            preds = tuple(person(box, Pose.from_arrays(CROWDPOSE_SCHEMA, xy[j], CODES_VISIBLE),
                                 score=float(rng.uniform())) for j in range(count))
            gt_images.append(ImageRecord(f"img_{i}", 200, 160, persons=gts))
            pred_images.append(ImageRecord(f"img_{i}", 200, 160, persons=preds))
        gt = Dataset(schema=CROWDPOSE_SCHEMA, images=tuple(gt_images))
        pred = Dataset(schema=CROWDPOSE_SCHEMA, images=tuple(pred_images))
        padded = 301 * 2000 * len(E.DEFAULT_THRESHOLDS) * 8  # bytes of int64 assignments
        tracemalloc.start()
        try:
            E.eval_by_crowding(pred, gt, crowd_cfg())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # about 3 MB at the real bound (1 MB of float64 cells), most of it the
        # large image's own OKS temporaries; about 58 MB with a single run
        limit = 8 * E._MATCH_RUN_CELLS * 8
        assert peak < limit < padded / 5


def two_level_datasets(rng, images=40, jitter=0.0):
    """Ground truth and prediction datasets spanning easy and hard images."""
    gt_images, pred_images = [], []
    for i in range(images):
        crowded = i % 2 == 1
        persons = []
        box = BBox(10, 10, 60, 90)
        pose = rand_pose(rng, BBox(15, 15, 50, 80))
        persons.append(person(box, pose))
        if crowded:
            persons.append(person(BBox(12, 12, 60, 90), pose))
        gt_images.append(ImageRecord(f"img_{i}", 200, 160, persons=tuple(persons)))
        preds = []
        for p in persons:
            noisy = Pose(CROWDPOSE_SCHEMA, tuple(
                Keypoint(k.x + float(rng.normal(0, jitter * math.sqrt(box.area))),
                         k.y + float(rng.normal(0, jitter * math.sqrt(box.area))),
                         k.vis) for k in p.pose.keypoints))
            preds.append(person(p.bbox, noisy, score=float(rng.uniform(0.5, 1.0))))
        pred_images.append(ImageRecord(f"img_{i}", 200, 160, persons=tuple(preds)))
    gt = Dataset(schema=CROWDPOSE_SCHEMA, images=tuple(gt_images))
    pred = Dataset(schema=CROWDPOSE_SCHEMA, images=tuple(pred_images))
    return gt, pred


class TestEvalByCrowding:
    def test_perfect_predictions_all_ones(self, rng):
        gt, pred = two_level_datasets(rng, images=12, jitter=0.0)
        report = E.eval_by_crowding(pred, gt, crowd_cfg())
        assert report.ap == 1.0
        for column in (report.ap_easy, report.ap_hard):
            assert column == 1.0
        assert report.ap_medium is None  # nothing lands in medium here
        assert all(a == 1.0 for _, a in report.per_threshold)

    def test_all_easy_dataset(self, rng):
        gt_img = ImageRecord("only", 100, 100, persons=(
            person(BBox(5, 5, 40, 60), rand_pose(rng, BBox(10, 10, 30, 50))),))
        gt = Dataset(schema=CROWDPOSE_SCHEMA, images=(gt_img,))
        pred = Dataset(schema=CROWDPOSE_SCHEMA, images=(
            ImageRecord("only", 100, 100, persons=tuple(
                replace(p, score=0.9) for p in gt_img.persons)),))
        report = E.eval_by_crowding(pred, gt, crowd_cfg())
        assert report.ap == report.ap_easy == 1.0
        assert report.ap_medium is None and report.ap_hard is None
        assert report.counts["images"] == {"easy": 1, "medium": 0, "hard": 0}

    def test_jitter_monotonic(self, rng):
        aps = []
        for jitter in (0.01, 0.05, 0.1):
            gt, pred = two_level_datasets(rng, images=60, jitter=jitter)
            aps.append(E.eval_by_crowding(pred, gt, crowd_cfg()).ap)
        assert aps[0] > aps[1] > aps[2]

    def test_id_mismatch(self, rng):
        gt, pred = two_level_datasets(rng, images=4)
        clipped = Dataset(schema=CROWDPOSE_SCHEMA, images=pred.images[:-1])
        with pytest.raises(AlignmentError):
            E.eval_by_crowding(clipped, gt, crowd_cfg())

    @pytest.mark.parametrize("side", ["gt", "pred"])
    def test_repeated_image_id(self, rng, side):
        """A repeated id never reaches eval on either side, where the last of
        its records, looked up by id, would stand in for each of them:
        Dataset refuses it."""
        gt, pred = two_level_datasets(rng, images=4)
        dataset = {"gt": gt, "pred": pred}[side]
        with pytest.raises(ParseError, match=f"image id '{dataset.images[1].id}' repeats"):
            replace(dataset, images=dataset.images + dataset.images[1:2])

    def test_counts_sum(self, rng):
        gt, pred = two_level_datasets(rng, images=10)
        report = E.eval_by_crowding(pred, gt, crowd_cfg())
        assert sum(report.counts["instances"].values()) == \
            report.counts["total_instances"]

    def test_ap_non_increasing_in_threshold(self, rng):
        gt, pred = two_level_datasets(rng, images=50, jitter=0.05)
        report = E.eval_by_crowding(pred, gt, crowd_cfg())
        aps = [a for _, a in report.per_threshold]
        assert all(b <= a + 1e-12 for a, b in zip(aps, aps[1:]))

    def test_sigma_count_checked(self, rng):
        gt, pred = two_level_datasets(rng, images=2)
        with pytest.raises(ProtocolError):
            E.eval_by_crowding(pred, gt, E.OksConfig(tuple(E.default_sigmas(13))))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_report_equals_reference(self, seed):
        rng = np.random.default_rng(seed)
        gt, pred = two_level_datasets(rng, images=30, jitter=0.04 * seed)
        report = E.eval_by_crowding(pred, gt, crowd_cfg())
        assert report.to_json() == reference_report(pred, gt)

    def test_mixed_report_equals_reference(self, rng):
        """Images without gts or predictions, an unmatchable gt, and tied
        scores within and across images. The unlabeled gt of img_1 counts as
        CrowdIndex ratio 0."""
        gt_images, pred_images = [], []
        for i in range(30):
            gt_img = rand_record(rng, f"img_{i}", min_persons=1 if i == 1 else 0,
                                 max_persons=8)
            if i == 1:  # one gt without a labeled keypoint: never matchable
                first = gt_img.persons[0]
                hidden = make_pose([(k.x, k.y) for k in first.pose.keypoints],
                                   vis=Visibility.UNLABELED)
                gt_img = replace(gt_img, persons=(replace(first, pose=hidden),
                                                  *gt_img.persons[1:]))
            preds = []
            for _ in range(0 if i % 5 == 0 else int(rng.integers(0, 10))):
                if gt_img.persons and rng.random() < 0.8:
                    base = gt_img.persons[int(rng.integers(len(gt_img.persons)))]
                    pose = make_pose([(k.x + rng.normal(0, 3), k.y + rng.normal(0, 3))
                                      for k in base.pose.keypoints])
                    box = base.bbox
                else:
                    box = BBox(*rng.uniform(0, 150, 2), *rng.uniform(20, 60, 2))
                    pose = rand_pose(rng, box)
                preds.append(person(box, pose, score=float(rng.choice([0.3, 0.6, 0.9]))))
            gt_images.append(gt_img)
            pred_images.append(ImageRecord(gt_img.id, 200, 150, persons=tuple(preds)))
        gt = Dataset(schema=CROWDPOSE_SCHEMA, images=tuple(gt_images))
        pred = Dataset(schema=CROWDPOSE_SCHEMA, images=tuple(pred_images))
        assert any(not img.persons for img in gt.images)
        assert any(not img.persons for img in pred.images)
        report = E.eval_by_crowding(pred, gt, crowd_cfg())
        assert report.to_json() == reference_report(pred, gt)
        no_own = [crowd_index(img)[1] for img in gt.images if img.persons]
        assert report.no_own_keypoints == sum(no_own) > 0


def reference_report(pred, gt):
    return oracles.eval_report_reference(
        pred, gt, crowd_cfg().sigmas, E.DEFAULT_THRESHOLDS,
        lambda record: partition(crowd_index(record)[0]))
