import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdpose_kit import occloss as L
from crowdpose_kit.errors import DimensionError
from crowdpose_kit.heatmaps import HeatmapPair
from crowdpose_kit.seeding import substream

import oracles

K, HH, WW = 3, 16, 12
CELLS = HH * WW


def zeros():
    return HeatmapPair(np.zeros((2, K, HH, WW)))


def rand_pair(seed):
    rng = substream(seed, "pair")
    return HeatmapPair(rng.standard_normal((2, K, HH, WW)))


def cfg(alpha=1.5):
    return L.LossConfig(alpha=alpha)


class TestLossValue:
    def test_identity_is_zero(self):
        g = rand_pair(1)
        value = L.loss(g, g, cfg())
        assert value.total == 0.0
        assert value.visible_term == 0.0 and value.occluded_term == 0.0

    def test_single_cell_mse(self):
        p = zeros()
        c = 0.37
        p.visible.values[1, 5, 7] = c
        value = L.loss(p, zeros(), cfg())
        assert value.total == pytest.approx(c * c / (K * CELLS), rel=1e-14)

    def test_total_invariant(self):
        p, g = rand_pair(2), rand_pair(3)
        for alpha in (0.5, 1.0, 1.5, 3.0):
            v = L.loss(p, g, cfg(alpha=alpha))
            expected = (v.visible_term + alpha * v.occluded_term) / K
            assert abs(v.total - expected) <= 1e-12 * max(abs(v.total), 1.0)

    def test_alpha_ratio_symmetric_construction(self):
        # same residual placed in visible vs occluded branch
        rng = substream(7, "resid")
        residual = rng.standard_normal((K, HH, WW))
        p_vis = HeatmapPair(np.stack([residual, np.zeros((K, HH, WW))]))
        p_occ = HeatmapPair(np.stack([np.zeros((K, HH, WW)), residual]))
        alpha = 1.5
        lv = L.loss(p_vis, zeros(), cfg(alpha=alpha)).total
        lo = L.loss(p_occ, zeros(), cfg(alpha=alpha)).total
        assert abs(lo / lv - alpha) <= 1e-12 * alpha

    def test_alpha_linearity(self):
        p, g = rand_pair(4), rand_pair(5)
        occ = L.loss(p, g, cfg(alpha=1.0)).occluded_term
        totals = {a: L.loss(p, g, cfg(alpha=a)).total for a in (0.5, 1.0, 1.5, 3.0)}
        for a1, a2 in ((0.5, 1.0), (1.0, 1.5), (1.5, 3.0)):
            slope = (totals[a2] - totals[a1]) / (a2 - a1)
            assert slope == pytest.approx(occ / K, rel=1e-12)

    def test_branch_swap_symmetry(self):
        p, g = rand_pair(6), rand_pair(7)
        alpha = 1.5
        v = L.loss(p, g, cfg(alpha=alpha))
        swapped_p = HeatmapPair(p.values[::-1])
        swapped_g = HeatmapPair(g.values[::-1])
        sv = L.loss(swapped_p, swapped_g, cfg(alpha=alpha))
        assert sv.total == pytest.approx(
            (v.visible_term * alpha + v.occluded_term) / K, rel=1e-12)

    def test_wrong_branch_penalized(self):
        # ground truth peak in visible branch; prediction puts it in occluded
        g = zeros()
        g.visible.values[0, 3, 3] = 1.0
        wrong = zeros()
        wrong.occluded.values[0, 3, 3] = 1.0
        right = zeros()
        right.visible.values[0, 3, 3] = 1.0
        assert L.loss(wrong, g, cfg()).total > L.loss(right, g, cfg()).total

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            L.loss(zeros(), HeatmapPair(np.zeros((2, K, 8, 6))), cfg())


class TestGradient:
    def test_zero_at_optimum(self):
        g = rand_pair(10)
        grad = L.loss_grad(g, g, cfg())
        assert not grad.visible.values.any()
        assert not grad.occluded.values.any()

    def test_single_cell_closed_form(self):
        eps = 1e-3
        p = zeros()
        p.visible.values[0, 2, 2] = eps
        p.occluded.values[1, 4, 4] = eps
        grad = L.loss_grad(p, zeros(), cfg(alpha=1.5))
        assert grad.visible.values[0, 2, 2] == pytest.approx(
            2 * eps / (K * CELLS), rel=1e-14)
        assert grad.occluded.values[1, 4, 4] == pytest.approx(
            2 * 1.5 * eps / (K * CELLS), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
    def test_grad_check_small(self, alpha):
        assert L.grad_check(cfg(alpha=alpha), trials=5, seed=21) < 1e-5

    def test_grad_check_deterministic(self):
        a = L.grad_check(cfg(), trials=3, seed=5)
        b = L.grad_check(cfg(), trials=3, seed=5)
        assert a == b

    def test_grad_check_guards(self):
        for step in (0.0, -1e-4, 2 * L.MAX_FD_STEP, 1e308, math.inf, math.nan):
            with pytest.raises(DimensionError):
                L.grad_check(cfg(), trials=5, fd_step=step)
        with pytest.raises(DimensionError):
            L.grad_check(cfg(), trials=0)

    def test_alpha_cap(self):
        L.LossConfig(alpha=L.MAX_ALPHA)
        for alpha in (0.0, 2 * L.MAX_ALPHA, 1e308, math.inf, math.nan):
            with pytest.raises(DimensionError):
                L.LossConfig(alpha=alpha)

    def test_check_at_the_caps_stays_finite(self):
        """The largest alpha and step keep every loss finite: no warning,
        and the check still passes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = L.grad_check(cfg(alpha=L.MAX_ALPHA), trials=1, fd_step=L.MAX_FD_STEP)
        assert err < 1e-5

    def test_nan_loss_fails_the_check(self, monkeypatch):
        """A loss that reads NaN is reported as a NaN error, which fails
        every bound, not skipped."""
        def nan_loss(p, g, c):
            return L.LossValue(math.nan, math.nan, math.nan)
        monkeypatch.setattr(L, "loss", nan_loss)
        assert math.isnan(L.grad_check(cfg(), trials=1))


class TestMatchesReference:
    """loss and loss_grad against their original expressions, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)),
           scale=st.sampled_from((1e-3, 1.0, 1e3, 1e160)),
           alpha=st.one_of(st.sampled_from((0.5, 1.5, 3.0)), st.floats(1e-3, 1e3)))
    def test_loss_and_grad(self, seed, shape, scale, alpha):
        rng = np.random.default_rng(seed)
        p, g = (HeatmapPair(scale * rng.standard_normal((2, *shape))) for _ in range(2))
        before = [a.tobytes() for a in (p.visible.values, p.occluded.values,
                                        g.visible.values, g.occluded.values)]
        c = L.LossConfig(alpha=alpha)
        with np.errstate(over="ignore"):  # 1e160 squared is inf on both sides
            value = L.loss(p, g, c)
            want = oracles.loss_reference(p, g, alpha, shape[0])
            grad = L.loss_grad(p, g, c)
            want_grad = oracles.loss_grad_reference(p, g, alpha, shape[0])
        assert (value.total, value.visible_term, value.occluded_term) == want
        for got, ref in ((grad.visible, want_grad.visible),
                         (grad.occluded, want_grad.occluded)):
            assert got.values.dtype == ref.values.dtype
            assert got.values.tobytes() == ref.values.tobytes()
        assert before == [a.tobytes() for a in (p.visible.values, p.occluded.values,
                                                g.visible.values, g.occluded.values)]


class TestFloat32Pairs:
    """Encoded and read-back pairs are float32: the kernels stay in that
    dtype and within float32 rounding of the float64 reference."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.tuples(st.integers(1, 14), st.integers(1, 64), st.integers(1, 48)),
           alpha=st.one_of(st.sampled_from((0.5, 1.5, 3.0)), st.floats(1e-3, 1e3)))
    def test_loss_and_grad_near_reference(self, seed, shape, alpha):
        rng = np.random.default_rng(seed)
        p, g = (HeatmapPair(rng.random((2, *shape), dtype=np.float32)) for _ in range(2))
        wide_p, wide_g = (HeatmapPair(x.values.astype(np.float64)) for x in (p, g))
        c = L.LossConfig(alpha=alpha)
        value = L.loss(p, g, c)
        want = oracles.loss_reference(wide_p, wide_g, alpha, shape[0])
        np.testing.assert_allclose(
            (value.total, value.visible_term, value.occluded_term), want, rtol=1e-5)
        grad = L.loss_grad(p, g, c)
        assert grad.values.dtype == np.float32
        np.testing.assert_allclose(
            grad.values, oracles.loss_grad_reference(wide_p, wide_g, alpha, shape[0]).values,
            rtol=1e-5)
