import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdpose_kit import cli
from crowdpose_kit import synthgen as S
from crowdpose_kit.annotations import (VISIBILITY_ORDER, Visibility, image_json,
                                      serialize_dataset)
from crowdpose_kit.crowd_metrics import crowd_index, histogram_bin
from crowdpose_kit.errors import ConfigError, TargetingError
from crowdpose_kit.masks import RasterImage, write_depth_pam, write_pam
from crowdpose_kit.seeding import substream

import oracles


def small_cfg(**kw):
    defaults = dict(image_w=160, image_h=120, person_count_range=(1, 8),
                    scale_range=(40.0, 80.0), seed=77)
    defaults.update(kw)
    return S.SceneConfig(**defaults)


def person_layout(keypoints, z, radius=3.0):
    return z, radius, np.asarray(keypoints, dtype=np.float64)


def scene_layout(width, height, persons):
    """A SceneLayout of person_layout (z, radius, keypoints) triples."""
    zs, radii, keypoints = zip(*persons)
    return S.SceneLayout(width, height, np.array(zs), np.array(radii),
                         np.stack(keypoints))


def layout_flags(layout):
    """_layout_flags as Visibility rows, the form of the scalar reference."""
    return [[VISIBILITY_ORDER[c] for c in row] for row in S._layout_flags(layout).tolist()]


def sample_layout(rng, cfg, count, p_attach=0.35, sigma_attach=0.5):
    return S._draw_persons(rng, cfg, count, p_attach, sigma_attach)


def corpus(corpus_cfg):
    return S.corpus_dataset(corpus_cfg, S.plan_corpus(corpus_cfg))


def standing_keypoints(cx, cy, height=60.0):
    base = S._TEMPLATE_BASE[0]  # standing
    width = S.BODY_WIDTH_FRAC * height
    out = np.empty((14, 2))
    out[:, 0] = cx - width / 2 + base[:, 0] * width
    out[:, 1] = cy - height / 2 + base[:, 1] * height
    return out


class TestSceneFlags:
    def test_single_person_never_occluded(self):
        cfg = small_cfg()
        for i in range(20):
            layout = sample_layout(substream(i, "solo"), cfg, count=1)
            assert Visibility.OCCLUDED not in layout_flags(layout)[0]

    def test_forced_two_person_occlusion(self):
        far = person_layout(standing_keypoints(50, 60), z=0.2)
        near = person_layout(standing_keypoints(50, 60), z=0.9)
        layout = scene_layout(160, 120, [far, near])
        flags = layout_flags(layout)
        # the farther person sits fully under the nearer copy
        assert all(v is Visibility.OCCLUDED for v in flags[0])
        assert all(v is not Visibility.OCCLUDED for v in flags[1])

    def test_hip_under_nearer_person(self):
        far = person_layout(standing_keypoints(60, 60), z=0.1)
        hips = standing_keypoints(60, 60)[6]  # left hip pixel of the far person
        near_kps = standing_keypoints(hips[0], hips[1], height=40.0)
        near = person_layout(near_kps, z=0.8, radius=2.4)
        layout = scene_layout(160, 120, [far, near])
        flags = layout_flags(layout)
        assert flags[0][6] is Visibility.OCCLUDED

    def test_cover_at_exactly_radius_matches_raster(self):
        # r ** 2 (libm pow) and r * r differ for this r; a pixel center at
        # distance exactly r from a nearer capsule is covered in the raster,
        # so the flags must call it covered too.
        r = 20.5 - (20.5 - 2.5409547507542456)
        assert r ** 2 != r * r
        far = person_layout(np.tile([20.2, 20.3], (14, 1)), z=0.1, radius=1.0)
        near = person_layout(np.tile([20.5 - r, 20.5], (14, 1)), z=0.9, radius=r)
        layout = scene_layout(40, 40, [far, near])
        _, depth = S.render_layout(layout)
        assert depth[20, 20] == 0.9
        flags = layout_flags(layout)
        assert flags[0] == [Visibility.OCCLUDED] * 14
        assert flags == oracles.scene_flags_reference(layout, S.SKELETON_EDGES,
                                                      S._EDGES_OF_KP)

    def test_flags_match_scalar_reference(self, rng):
        cfg = small_cfg(person_count_range=(2, 7))
        for i in range(60):
            layout = sample_layout(substream(i, "ref"), cfg, count=2 + i % 6,
                                   p_attach=0.7, sigma_attach=0.4)
            ours = layout_flags(layout)
            ref = oracles.scene_flags_reference(layout, S.SKELETON_EDGES,
                                                S._EDGES_OF_KP)
            assert ours == ref, f"scene {i}"

    def test_flags_match_scalar_reference_at_tied_depths(self):
        # random_layout draws each depth from three values, so persons tie
        for i in range(40):
            layout = random_layout(substream(i, "ref_ties"))
            ref = oracles.scene_flags_reference(layout, S.SKELETON_EDGES,
                                                S._EDGES_OF_KP)
            assert layout_flags(layout) == ref, f"scene {i}"

    def test_keypoints_near_own_bbox(self):
        layout = sample_layout(substream(1, "bbox"), small_cfg(), count=8)
        record = S._layout_record(layout, "s")
        for person in record.persons:
            for kp in person.pose.keypoints:
                assert person.bbox.x <= kp.x <= person.bbox.x + person.bbox.w
                assert person.bbox.y <= kp.y <= person.bbox.y + person.bbox.h

    def test_boxes_equal_per_segment_extent(self):
        cfg = small_cfg()
        for i in range(50):
            layout = sample_layout(substream(i, "boxes"), cfg, count=1 + i % 8)
            boxes = S._boxes(layout.keypoints, layout.radii)
            for kps, radius, box in zip(layout.keypoints, layout.radii.tolist(),
                                        boxes.tolist()):
                segs = kps[S._EDGE_INDEX]
                x0 = float(np.min(segs[:, :, 0])) - radius
                x1 = float(np.max(segs[:, :, 0])) + radius
                y0 = float(np.min(segs[:, :, 1])) - radius
                y1 = float(np.max(segs[:, :, 1])) + radius
                assert box == [x0, y0, x1 - x0, y1 - y0]


def render_per_segment(layout):
    """Reference rasterizer: each limb capsule tested and painted over its
    own clipped window, limb by limb in paint order. Persons go far to near
    by (z, index), sorted here rather than by the draw_order under test."""
    w, h = layout.width, layout.height
    raster = RasterImage.filled(w, h, S.BACKGROUND_RGBA)
    depth = np.zeros((h, w), dtype=np.float64)
    zs = layout.zs.tolist()
    for idx in sorted(range(len(zs)), key=lambda i: (zs[i], i)):
        color = np.array([*S.person_color(idx), 255], dtype=np.uint8)
        r = layout.radii[idx]
        for a, b in layout.keypoints[idx][S._EDGE_INDEX]:
            x0 = max(int(math.floor(min(a[0], b[0]) - r - 1.0)), 0)
            x1 = min(int(math.ceil(max(a[0], b[0]) + r + 1.0)), w - 1)
            y0 = max(int(math.floor(min(a[1], b[1]) - r - 1.0)), 0)
            y1 = min(int(math.ceil(max(a[1], b[1]) + r + 1.0)), h - 1)
            if x0 > x1 or y0 > y1:
                continue
            px = np.arange(x0, x1 + 1, dtype=np.float64) + 0.5
            py = np.arange(y0, y1 + 1, dtype=np.float64) + 0.5
            inside = S._capsule_sq_dist(px[None, :], py[:, None],
                                        a[0], a[1], b[0], b[1]) <= r * r
            raster.pixels[y0:y1 + 1, x0:x1 + 1][inside] = color
            depth[y0:y1 + 1, x0:x1 + 1][inside] = zs[idx]
    return raster, depth


def random_layout(rng, w=48, h=40):
    """Persons scattered in and around a w x h image, with tied depths. The
    first has a zero-length neck segment; the last lies wholly outside."""
    persons = []
    count = int(rng.integers(2, 7))
    for i in range(count):
        center = rng.uniform([-15.0, -15.0], [w + 15.0, h + 15.0])
        radius = 1.0 if rng.random() < 0.3 else float(rng.uniform(1.0, 5.0))
        if i == count - 1:
            center = np.array([-40.0, h + 40.0])
            radius = 2.0
        kps = center + rng.normal(0.0, 8.0, (14, 2))
        if i == 0:
            kps[13] = kps[12]
        persons.append(person_layout(kps, z=float(rng.choice([0.2, 0.5, 0.9])),
                                     radius=radius))
    return scene_layout(w, h, persons)


def one_big_person(rng, w=320, h=240):
    """One person whose limbs cross the image and leave it: its padded
    segment windows hold more than _RENDER_BAND_CELLS cells."""
    kps = rng.uniform([-60.0, -60.0], [w + 60.0, h + 60.0], (14, 2))
    return scene_layout(w, h, [person_layout(kps, z=0.5, radius=6.0)])


class TestRenderConsistency:
    @pytest.mark.parametrize("band_cells", [None, 13])
    def test_render_equals_full_window_reference(self, band_cells, monkeypatch):
        """Per-segment windows paint what testing every segment over the
        person's whole window painted. band_cells 13 makes one-row bands."""
        if band_cells is not None:
            monkeypatch.setattr(S, "_RENDER_BAND_CELLS", band_cells)
        layouts = [random_layout(substream(i, "render_full")) for i in range(60)]
        layouts += [one_big_person(substream(i, "render_big")) for i in range(4)]
        for i, layout in enumerate(layouts):
            raster, depth = S.render_layout(layout)
            ref_raster, ref_depth = oracles.render_layout_reference(layout)
            assert raster.pixels.tobytes() == ref_raster.pixels.tobytes(), f"layout {i}"
            assert depth.tobytes() == ref_depth.tobytes(), f"layout {i}"

    @pytest.mark.parametrize("band_cells", [None, 13 * 8])
    def test_per_person_render_equals_per_segment(self, band_cells, monkeypatch):
        # a small band budget forces one- or two-row bands through the loop
        if band_cells is not None:
            monkeypatch.setattr(S, "_RENDER_BAND_CELLS", band_cells)
        for i in range(40):
            layout = random_layout(substream(i, "render_ref"))
            raster, depth = S.render_layout(layout)
            ref_raster, ref_depth = render_per_segment(layout)
            assert np.array_equal(raster.pixels, ref_raster.pixels), f"layout {i}"
            assert np.array_equal(depth, ref_depth), f"layout {i}"

    def test_raster_and_depth_agree_with_flags(self):
        cfg = small_cfg(person_count_range=(3, 6))
        for i in range(10):
            rng = substream(i, "render")
            layout = sample_layout(rng, cfg, count=3 + i % 4,
                                   p_attach=0.8, sigma_attach=0.35)
            record = S._layout_record(layout, f"s{i}")
            raster, depth = S.render_layout(layout)
            color_to_person = {S.person_color(j): j
                               for j in range(len(layout.zs))}
            for pi, person in enumerate(record.persons):
                for kp in person.pose.keypoints:
                    px, py = int(math.floor(kp.x)), int(math.floor(kp.y))
                    if not (0 <= px < raster.width and 0 <= py < raster.height):
                        continue
                    rgb = tuple(int(v) for v in raster.pixels[py, px, :3])
                    owner = color_to_person.get(rgb)
                    assert owner is not None, "keypoint pixel must be painted"
                    assert depth[py, px] == layout.zs[owner]
                    occluded = kp.vis is Visibility.OCCLUDED
                    assert occluded == (owner != pi)

    def test_determinism_byte_identical(self):
        corpus_cfg = S.CorpusConfig(scenes=4, scene_cfg=small_cfg(),
                                    target_histogram=(0.5, 0.5))
        outs = []
        for _ in range(2):
            scenes = S.plan_corpus(corpus_cfg)
            rendered = [S.render_layout(s.layout) for s in scenes]
            outs.append((serialize_dataset(S.corpus_dataset(corpus_cfg, scenes)),
                         [(write_pam(raster), write_depth_pam(depth))
                          for raster, depth in rendered]))
        assert outs[0] == outs[1]

    def test_person_colors_distinct(self):
        colors = {S.person_color(i) for i in range(200)}
        assert len(colors) == 200


@st.composite
def draw_cases(draw):
    """(SceneConfig, count, p_attach, sigma_attach, seed): both depth models,
    integer-valued and fractional scale bounds (some passed as ints) and
    image sizes other than the default."""
    w, h = draw(st.integers(1, 640)), draw(st.integers(1, 640))
    lo = draw(st.integers(1, max(w, h)) | st.floats(0.25, max(w, h)))
    hi = lo + draw(st.integers(0, 200) | st.floats(0.0, 200.0))
    cfg = S.SceneConfig(image_w=w, image_h=h, scale_range=(lo, hi),
                        depth_model=draw(st.sampled_from([S.DEPTH_UNIFORM,
                                                          S.DEPTH_GROUND_PLANE])))
    p_attach = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return (cfg, draw(st.integers(1, S.MAX_PERSONS)), p_attach,
            draw(st.floats(0.03, 2.0)), draw(st.integers(0, 2 ** 32)))


class TestDrawPersons:
    @settings(max_examples=150, deadline=None)
    @given(draw_cases())
    def test_same_stream_as_uniform_draws(self, case):
        """The scalar draws give uniform's values from the same stream and
        leave the generator in the same state."""
        cfg, count, p_attach, sigma_attach, seed = case
        rng, ref_rng = substream(seed, "draw"), substream(seed, "draw")
        layout = S._draw_persons(rng, cfg, count, p_attach, sigma_attach)
        zs, radii, kps = oracles.draw_persons_reference(ref_rng, cfg, count,
                                                        p_attach, sigma_attach)
        assert layout.keypoints.tobytes() == kps.tobytes()
        assert layout.zs.tobytes() == zs.tobytes()
        assert layout.radii.tobytes() == radii.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSceneConfigValidation:
    def test_person_larger_than_image(self):
        with pytest.raises(ConfigError):
            S.SceneConfig(image_w=50, image_h=40, scale_range=(60.0, 80.0))

    def test_bad_count_range(self):
        with pytest.raises(ConfigError):
            S.SceneConfig(person_count_range=(0, 3))

    def test_upper_bounds(self):
        # a limb radius, limb_radius_frac times the top height, has the same cap
        S.SceneConfig(image_w=S.MAX_IMAGE_SIDE, image_h=S.MAX_IMAGE_SIDE,
                      person_count_range=(1, S.MAX_PERSONS),
                      scale_range=(40.0, S.MAX_PERSON_HEIGHT), limb_radius_frac=1.0)
        for kw in ({"image_w": S.MAX_IMAGE_SIDE + 1}, {"image_h": S.MAX_IMAGE_SIDE + 1},
                   {"person_count_range": (1, S.MAX_PERSONS + 1)},
                   {"scale_range": (40.0, S.MAX_PERSON_HEIGHT + 0.5)},
                   {"scale_range": (40.0, math.inf)}, {"scale_range": (40.0, math.nan)},
                   {"scale_range": (40.0, 128.0), "limb_radius_frac": S.MAX_PERSON_HEIGHT / 127},
                   {"limb_radius_frac": 1e300}, {"limb_radius_frac": math.nan},
                   {"limb_radius_frac": 0.0}):
            with pytest.raises(ConfigError):
                S.SceneConfig(**kw)


class TestCorpus:
    def test_scene_cap(self):
        cfg = S.CorpusConfig(scenes=S.MAX_SCENES, scene_cfg=small_cfg())
        assert len(S.corpus_slots(cfg)) == S.MAX_SCENES
        with pytest.raises(ConfigError):
            S.CorpusConfig(scenes=S.MAX_SCENES + 1, scene_cfg=small_cfg())

    def test_quota_split(self):
        assert S._quotas((0.5, 0.5), 5) == [3, 2]
        assert S._quotas((0.1,) * 10, 2000) == [200] * 10
        assert sum(S._quotas((0.33, 0.33, 0.34), 10)) == 10

    def test_small_uniform_corpus(self):
        corpus_cfg = S.CorpusConfig(scenes=60, scene_cfg=small_cfg(),
                                    target_histogram=(0.25, 0.25, 0.25, 0.25))
        dataset = corpus(corpus_cfg)
        assert len(dataset.images) == 60
        counts = [0, 0, 0, 0]
        for img in dataset.images:
            c = dataset.meta["crowd_index"][img.id]
            # a generated box holds all of its person's keypoints
            assert crowd_index(img) == (c, 0)
            counts[histogram_bin(c, 4)] += 1
        assert counts == [15, 15, 15, 15]

    def test_easy_target_trivial(self):
        corpus_cfg = S.CorpusConfig(scenes=10, scene_cfg=small_cfg(),
                                    target_histogram=(1.0,))
        dataset = corpus(corpus_cfg)
        assert len(dataset.images) == 10

    def test_unreachable_reports_achieved(self):
        cfg = small_cfg(person_count_range=(1, 1))
        corpus_cfg = S.CorpusConfig(scenes=4, scene_cfg=cfg,
                                    target_histogram=(0.0, 0.0, 0.0, 1.0),
                                    retry_factor=5)
        with pytest.raises(TargetingError) as err:
            corpus(corpus_cfg)
        assert err.value.achieved is not None

    # (retry_factor, accepted, achieved) of a 40-scene seed-3 corpus
    BUDGET_CASES = [
        (1, 6, [4, 2, 0, 0, 0, 0, 0, 0, 0, 0]),
        (2, 9, [4, 4, 1, 0, 0, 0, 0, 0, 0, 0]),
        (3, 11, [4, 4, 3, 0, 0, 0, 0, 0, 0, 0]),
    ]

    @pytest.mark.parametrize("retry_factor, accepted, achieved", BUDGET_CASES)
    def test_budget_exhaustion_pinned(self, retry_factor, accepted, achieved):
        """The budget runs out at the same candidate, with the same message
        and histogram, as the per-candidate screen it replaced."""
        corpus_cfg = S.CorpusConfig(scenes=40, scene_cfg=S.SceneConfig(seed=3),
                                    retry_factor=retry_factor)
        with pytest.raises(TargetingError) as err:
            S.plan_corpus(corpus_cfg)
        assert str(err.value) == (f"exhausted {40 * retry_factor} candidate scenes "
                                  f"with {accepted}/40 accepted")
        assert err.value.achieved == achieved

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("retry_factor, accepted, achieved", BUDGET_CASES)
    def test_budget_exhaustion_across_jobs(self, retry_factor, accepted, achieved, jobs):
        """gen's fan-out over runs of slots fails where plan_corpus does:
        each run's own cap never cuts a slot short that the serial budget
        lets finish, and within_budget applies the serial spend."""
        corpus_cfg = S.CorpusConfig(scenes=40, scene_cfg=S.SceneConfig(seed=3),
                                    retry_factor=retry_factor)
        planned = cli._gen_outputs(corpus_cfg, jobs, False)
        with pytest.raises(TargetingError) as err:
            try:
                for _ in S.within_budget(corpus_cfg, planned):
                    pass
            finally:
                planned.close()
        assert str(err.value) == (f"exhausted {40 * retry_factor} candidate scenes "
                                  f"with {accepted}/40 accepted")
        assert err.value.achieved == achieved
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("seed", [1673986675, 1125567838])
    def test_crowded_corpus_plans_at_default_budget(self, seed):
        """70 scenes of 2-20 persons weighted to the hard bins, as the
        crowded eval corpus: at these seeds the plan spends more than 50
        candidates per scene, so the default budget must plan it and
        retry_factor=50 runs out."""
        weights = (1, 1, 1, 1, 1, 2, 2, 3, 4, 4)

        def corpus_cfg(**kw):
            return S.CorpusConfig(
                scenes=70, scene_cfg=S.SceneConfig(seed=seed, person_count_range=(2, 20)),
                target_histogram=tuple(w / sum(weights) for w in weights), **kw)

        assert len(S.plan_corpus(corpus_cfg())) == 70
        with pytest.raises(TargetingError):
            S.plan_corpus(corpus_cfg(retry_factor=50))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_budget_edge_across_jobs(self, jobs):
        """Seed 31's two slots spend 1 and 3 candidates. A budget of exactly
        4 fills both at every --jobs, a budget of 2 stops at the second:
        the second run's floor (1) equals its true prefix here, so a floor
        one too high, or a spend check of >= in place of >, fails."""
        def outcome(retry_factor):
            corpus_cfg = S.CorpusConfig(scenes=2, scene_cfg=S.SceneConfig(seed=31),
                                        target_histogram=(0.5, 0.5),
                                        retry_factor=retry_factor)
            planned = cli._gen_outputs(corpus_cfg, jobs, False)
            try:
                # the scenes come without persons: their entries hold them
                return [(entry, s.slot, s.attempt, s.record.persons)
                        for s, _, entry, *_ in S.within_budget(corpus_cfg, planned)]
            except TargetingError as err:
                return str(err), err.achieved
            finally:
                planned.close()

        serial = S.plan_corpus(S.CorpusConfig(
            scenes=2, scene_cfg=S.SceneConfig(seed=31), target_histogram=(0.5, 0.5),
            retry_factor=2))
        assert [s.attempt for s in serial] == [0, 2]
        assert outcome(2) == [(image_json(s.record), s.slot, s.attempt, ())
                              for s in serial]
        assert outcome(1) == ("exhausted 2 candidate scenes with 1/2 accepted", [1, 0])
        assert not multiprocessing.active_children()

    def test_stopped_worker_gives_up_each_slot(self, monkeypatch):
        """Once stopped() reads true, as in a worker whose gen has closed,
        the slot being searched gives up before its next candidate and the
        rest of the run spends none."""
        checks = iter([False] * 3 + [True] * 10)
        monkeypatch.setattr(S, "stopped", lambda: next(checks))
        corpus_cfg = S.CorpusConfig(
            scenes=4, scene_cfg=S.SceneConfig(seed=3, person_count_range=(1, 1)),
            target_histogram=(0.0, 1.0))  # one person never reaches the top bin
        run = S.corpus_slots(corpus_cfg)
        assert list(S.plan_slots(corpus_cfg, run)) == [(None, 3)] + [(None, 0)] * 3

    def test_corpus_determinism(self):
        corpus_cfg = S.CorpusConfig(scenes=12, scene_cfg=small_cfg(),
                                    target_histogram=(0.5, 0.5))
        a = serialize_dataset(corpus(corpus_cfg))
        b = serialize_dataset(corpus(corpus_cfg))
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            S.CorpusConfig(scenes=5, scene_cfg=small_cfg(),
                           target_histogram=(0.5, 0.4))
        with pytest.raises(ConfigError):
            S.CorpusConfig(scenes=1, scene_cfg=small_cfg(),
                           target_histogram=(0.5, 0.5))
