"""Unit tests for the low-level numpy kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


def chwn(x):
    """An ``(N, C, H, W)`` test array in the kernels' ``(C, H, W, N)`` layout."""
    return F.batch_innermost(x)


def seed_cols_to_chwn(cols, n, oh, ow):
    """Seed row-major ``(N*OH*OW, C*K*K)`` columns as ``(C*K*K, OH*OW*N)``."""
    return cols.reshape(n, oh, ow, -1).transpose(3, 1, 2, 0).reshape(cols.shape[1], -1)


class TestIm2Col:
    def test_roundtrip_shapes(self):
        x = np.random.default_rng(0).normal(size=(3, 8, 8, 2)).astype(np.float32)
        cols = F.im2col(x, kernel=3, stride=1, pad=1)
        assert cols.shape == (3 * 9, 8 * 8 * 2)

    def test_stride_reduces_output(self):
        x = np.ones((1, 8, 8, 1), dtype=np.float32)
        cols = F.im2col(x, kernel=2, stride=2)
        assert cols.shape == (4, 16)

    def test_identity_kernel_one(self):
        x = np.random.default_rng(1).normal(size=(2, 4, 4, 1)).astype(np.float32)
        cols = F.im2col(x, kernel=1)
        assert np.allclose(cols, x.reshape(2, 16))
        assert np.shares_memory(cols, x)  # pointwise: a free reshape, no copy

    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 6, 6, 2)).astype(np.float64)
        cols = F.im2col(x, kernel=3, stride=1, pad=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * F.col2im(y, x.shape, 3, 1, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
        h=st.integers(4, 9),
    )
    @settings(max_examples=25, deadline=None)
    def test_adjoint_property(self, kernel, stride, pad, h):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + pad + h)
        x = rng.normal(size=(2, h, h, 1))
        cols = F.im2col(x, kernel, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * F.col2im(y, x.shape, kernel, stride, pad)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestStridedIm2ColEquivalence:
    """The (C, H, W, N) im2col/col2im carry exactly the seed loop's values."""

    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_im2col_matches_loop(self, kernel, stride, pad):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + pad)
        x = rng.normal(size=(2, 3, 11, 11)).astype(np.float32)
        oh = (11 + 2 * pad - kernel) // stride + 1
        np.testing.assert_array_equal(
            F.im2col(chwn(x), kernel, stride, pad),
            seed_cols_to_chwn(F._im2col_loop(x, kernel, stride, pad), 2, oh, oh),
        )

    @pytest.mark.parametrize("kernel", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_col2im_matches_loop(self, kernel, stride, pad):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + pad + 1)
        x_shape = (2, 3, 9, 9)
        cols_shape = F._im2col_loop(np.zeros(x_shape), kernel, stride, pad).shape
        cols = rng.normal(size=cols_shape)
        oh = (9 + 2 * pad - kernel) // stride + 1
        np.testing.assert_array_equal(
            F.col2im(seed_cols_to_chwn(cols, 2, oh, oh), (3, 9, 9, 2), kernel, stride, pad),
            chwn(F._col2im_loop(cols, x_shape, kernel, stride, pad)),
        )

    def test_rectangular_input(self):
        x = np.random.default_rng(8).normal(size=(1, 2, 6, 10)).astype(np.float32)
        np.testing.assert_array_equal(
            F.im2col(chwn(x), 3, 2, 1), seed_cols_to_chwn(F._im2col_loop(x, 3, 2, 1), 1, 3, 5)
        )


class TestConv2d:
    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 5, 1)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        out, _ = F.conv2d(x, w, stride=1, pad=1)
        # Direct reference at one spatial position.
        padded = np.pad(x[..., 0], ((0, 0), (1, 1), (1, 1)))
        ref = (padded[:, 2:5, 3:6] * w[1]).sum()
        assert out[1, 2, 3, 0] == pytest.approx(ref, rel=1e-5)

    def test_output_shape_strided(self):
        x = np.zeros((3, 8, 8, 2), dtype=np.float32)
        w = np.zeros((4, 3, 3, 3), dtype=np.float32)
        out, _ = F.conv2d(x, w, stride=2, pad=1)
        assert out.shape == (4, 4, 4, 2)

    def test_bias_added_per_channel(self):
        x = np.zeros((1, 3, 3, 1), dtype=np.float32)
        w = np.zeros((2, 1, 1, 1), dtype=np.float32)
        b = np.array([1.5, -2.0], dtype=np.float32)
        out, _ = F.conv2d(x, w, bias=b)
        assert np.allclose(out[0], 1.5)
        assert np.allclose(out[1], -2.0)

    def test_backward_gradcheck(self):
        """Finite-difference check of conv2d_backward in float64."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 4, 4, 2))
        w = rng.normal(size=(3, 2, 3, 3))
        out, cols = F.conv2d(x, w, stride=1, pad=1)
        g = rng.normal(size=out.shape)
        grad_x, grad_w, _ = F.conv2d_backward(g, cols, x.shape, w, 1, 1)

        eps = 1e-6
        idx = (0, 2, 3, 1)
        x2 = x.copy()
        x2[idx] += eps
        out2, _ = F.conv2d(x2, w, stride=1, pad=1)
        num = ((out2 - out) * g).sum() / eps
        assert grad_x[idx] == pytest.approx(num, rel=1e-4)

        widx = (2, 1, 0, 1)
        w2 = w.copy()
        w2[widx] += eps
        out2, _ = F.conv2d(x, w2, stride=1, pad=1)
        num = ((out2 - out) * g).sum() / eps
        assert grad_w[widx] == pytest.approx(num, rel=1e-4)


class TestBlockedConvEquivalence:
    """The one-GEMM (C, H, W, N) conv matches the seed im2col-GEMM formulation."""

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_forward_matches_seed_gemm(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        out, _ = F.conv2d(chwn(x), w, stride=stride, pad=pad)
        cols = F._im2col_loop(x, 3, stride, pad)
        oh = (9 + 2 * pad - 3) // stride + 1
        ref = (cols @ w.reshape(4, -1).T).reshape(2, oh, oh, 4).transpose(3, 1, 2, 0)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_backward_matches_seed_path(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        out, cols = F.conv2d(chwn(x), w, stride=1, pad=1)
        g_seed = rng.normal(size=(2, 4, 8, 8))
        grad_x, grad_w, grad_b = F.conv2d_backward(chwn(g_seed), cols, (3, 8, 8, 2), w, 1, 1,
                                                   with_bias=True)

        seed_cols = F._im2col_loop(x, 3, 1, 1)
        g_flat = g_seed.transpose(0, 2, 3, 1).reshape(-1, 4)
        ref_w = (g_flat.T @ seed_cols).reshape(4, 3, 3, 3)
        ref_x = F._col2im_loop(g_flat @ w.reshape(4, -1), x.shape, 3, 1, 1)
        np.testing.assert_allclose(grad_w, ref_w, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(grad_x, chwn(ref_x), rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(grad_b, g_flat.sum(axis=0), rtol=1e-12)


class TestPooling:
    def test_max_pool_picks_maxima(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out, _ = F.max_pool2d(x, kernel=2)
        assert np.allclose(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_max_pool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out, argmax = F.max_pool2d(x, kernel=2)
        g = np.ones_like(out)
        grad = F.max_pool2d_backward(g, argmax, x.shape, kernel=2)
        expected = np.zeros((4, 4))
        for r, c in [(1, 1), (1, 3), (3, 1), (3, 3)]:
            expected[r, c] = 1.0
        assert np.allclose(grad[0, :, :, 0], expected)

    def test_avg_pool_averages(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = F.avg_pool2d(x, kernel=2)
        assert np.allclose(out[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_backward_spreads_uniformly(self):
        x = np.zeros((1, 4, 4, 1), dtype=np.float32)
        g = np.ones((1, 2, 2, 1), dtype=np.float32)
        grad = F.avg_pool2d_backward(g, x.shape, kernel=2)
        assert grad.shape == x.shape
        assert np.allclose(grad, 0.25)

    def test_multichannel_max_pool(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4, 4, 2)).astype(np.float32)
        out, _ = F.max_pool2d(x, kernel=2)
        for n in range(2):
            for c in range(3):
                assert out[c, 0, 0, n] == x[c, :2, :2, n].max()


class TestActivations:
    def test_relu_clamps_negatives(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        assert np.allclose(F.relu(x), [0, 0, 2])

    def test_relu_backward_masks(self):
        x = np.array([-1.0, 0.5], dtype=np.float32)
        g = np.array([3.0, 3.0], dtype=np.float32)
        assert np.allclose(F.relu_backward(g, x), [0, 3])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(5, 7)) * 10
        p = F.softmax(z, axis=1)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()

    def test_softmax_shift_invariant(self):
        z = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(F.softmax(z), F.softmax(z + 100.0))

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(4, 6))
        assert np.allclose(F.log_softmax(z), np.log(F.softmax(z)), atol=1e-7)

    def test_softmax_extreme_logits_stable(self):
        z = np.array([[1000.0, -1000.0, 0.0]])
        p = F.softmax(z)
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)

    @given(st.integers(2, 8), st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_softmax_property(self, n, k):
        rng = np.random.default_rng(n * 31 + k)
        z = rng.normal(size=(n, k)) * 5
        p = F.softmax(z, axis=1)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert (p.argmax(axis=1) == z.argmax(axis=1)).all()
