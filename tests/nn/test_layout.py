"""The batch-innermost ``(C, H, W, N)`` layout against layout-free references.

Three layers of evidence that the internal layout changes nothing a
caller can observe:

- a direct window-einsum convolution on ``(N, C, H, W)`` arrays, which
  shares no code with the im2col/GEMM kernels;
- central finite differences of conv, batchnorm and global average pool
  in the new layout;
- whole ResNet-20 / ResNet-18 / ResNet-50 runs (logits, input gradient,
  every parameter gradient, BN running statistics, and the quantized
  selection model with and without fake-quantized activations) against
  an ``(N, C, H, W)`` float64 reference interpreter written here.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import functional as F
from repro.nn.loss import CrossEntropyLoss
from repro.nn.modules import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    ReLU,
    Sequential,
)
from repro.nn.quantize import QuantizedModel, dequantize_tensor, quantize_tensor
from repro.nn.resnet import BasicBlock, Bottleneck, ResNet, resnet18, resnet20, resnet50

RTOL = 1e-4


def conv_ref(x, w, stride, pad):
    """Direct convolution of ``(N, C, H, W)`` ``x``: an einsum over windows.

    Returns ``(out, backward)`` where ``backward(g) -> (grad_x, grad_w)``.
    """
    k = w.shape[2]
    h, wd = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("nchwyx,ocyx->nohw", win, w)

    def backward(g):
        grad_w = np.einsum("nohw,nchwyx->ocyx", g, win)
        grad_win = np.einsum("nohw,ocyx->nchwyx", g, w)
        grad_xp = np.zeros_like(xp)
        oh, ow = g.shape[2:]
        for ky in range(k):
            for kx in range(k):
                grad_xp[:, :, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride] += (
                    grad_win[..., ky, kx]
                )
        return grad_xp[:, :, pad:pad + h, pad:pad + wd], grad_w

    return out, backward


def chwn(x):
    return F.batch_innermost(x)


def nchw(x):
    return x.transpose(3, 0, 1, 2)


CONV_GRID = [(k, s, p) for k in (1, 3) for s in (1, 2) for p in (0, 1)]


class TestReferenceConv:
    @pytest.mark.parametrize("kernel,stride,pad", CONV_GRID)
    def test_forward_matches_window_einsum(self, kernel, stride, pad):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + pad)
        x = rng.normal(size=(3, 4, 7, 7))
        w = rng.normal(size=(5, 4, kernel, kernel))
        out, _ = F.conv2d(chwn(x), w, stride=stride, pad=pad)
        ref, _ = conv_ref(x, w, stride, pad)
        np.testing.assert_allclose(nchw(out), ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,pad", CONV_GRID)
    def test_backward_matches_window_einsum(self, kernel, stride, pad):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + pad + 7)
        x = rng.normal(size=(3, 4, 7, 7))
        w = rng.normal(size=(5, 4, kernel, kernel))
        out, cols = F.conv2d(chwn(x), w, stride=stride, pad=pad)
        g = rng.normal(size=out.shape)
        grad_x, grad_w, _ = F.conv2d_backward(g, cols, (4, 7, 7, 3), w, stride, pad)
        _, backward = conv_ref(x, w, stride, pad)
        ref_x, ref_w = backward(nchw(g))
        np.testing.assert_allclose(nchw(grad_x), ref_x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad_w, ref_w, rtol=1e-12, atol=1e-12)


def directional_check(f, grad, x, rng, eps=1e-6):
    """``<grad, v>`` equals the central difference of ``f`` along random ``v``."""
    for _ in range(3):
        v = rng.normal(size=x.shape)
        num = (f(x + eps * v) - f(x - eps * v)) / (2 * eps)
        assert float((grad * v).sum()) == pytest.approx(num, rel=1e-6, abs=1e-8)


class TestFiniteDifferences:
    """Gradchecks in the (C, H, W, N) layout, float64, full random directions."""

    @pytest.mark.parametrize("kernel,stride,pad", CONV_GRID)
    def test_conv(self, kernel, stride, pad):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + pad + 3)
        x = rng.normal(size=(3, 6, 6, 4))
        w = rng.normal(size=(2, 3, kernel, kernel))
        b = rng.normal(size=2)
        out, cols = F.conv2d(x, w, b, stride=stride, pad=pad)
        g = rng.normal(size=out.shape)
        grad_x, grad_w, grad_b = F.conv2d_backward(
            g, cols, x.shape, w, stride, pad, with_bias=True
        )

        def loss(x_=x, w_=w, b_=b):
            return float((F.conv2d(x_, w_, b_, stride=stride, pad=pad)[0] * g).sum())

        directional_check(lambda v: loss(x_=v), grad_x, x, rng)
        directional_check(lambda v: loss(w_=v), grad_w, w, rng)
        directional_check(lambda v: loss(b_=v), grad_b, b, rng)

    def test_batchnorm(self):
        rng = np.random.default_rng(11)
        bn = BatchNorm2d(3)
        bn.weight.data = rng.normal(size=3)
        bn.bias.data = rng.normal(size=3)
        x = rng.normal(2.0, 1.5, size=(3, 4, 4, 5))
        g = rng.normal(size=x.shape)

        def loss(v):
            out = float((bn(v) * g).sum())
            bn._cache = None
            return out

        bn.zero_grad()
        bn(x)
        grad_x = bn.backward(g)
        grad_w, grad_b = bn.weight.grad.copy(), bn.bias.grad.copy()
        directional_check(loss, grad_x, x, rng)

        def param_loss(param, v):
            saved = param.data
            param.data = v
            try:
                return loss(x)
            finally:
                param.data = saved

        directional_check(lambda v: param_loss(bn.weight, v), grad_w, bn.weight.data, rng)
        directional_check(lambda v: param_loss(bn.bias, v), grad_b, bn.bias.data, rng)

    def test_global_avg_pool(self):
        rng = np.random.default_rng(12)
        pool = GlobalAvgPool2d()
        x = rng.normal(size=(3, 4, 5, 6))
        g = rng.normal(size=(6, 3))
        pool(x)
        grad_x = pool.backward(g)
        directional_check(lambda v: float((pool(v) * g).sum()), grad_x, x, rng)


class NCHWReference:
    """A float64 ``(N, C, H, W)`` interpreter for the repo's ResNets.

    It reads the modules' parameters and buffers but none of their code:
    convolutions go through :func:`conv_ref`, batchnorm/pool/linear are
    written out here.  ``run`` returns ``(out, backward)``; parameter
    gradients accumulate in :attr:`grads` and the BN running statistics a
    training forward would write land in :attr:`stats` (both keyed by
    ``id`` of the parameter / module).
    """

    def __init__(self, training: bool, act_quant_bits: int | None = None):
        self.training = training
        self.act_quant_bits = act_quant_bits
        self.grads: dict = {}
        self.stats: dict = {}

    def _grad(self, param, value):
        self.grads[id(param)] = self.grads.get(id(param), 0.0) + value

    def chain(self, modules, x):
        backs = []
        for m in modules:
            x, back = self.run(m, x)
            backs.append(back)

        def backward(g):
            for back in reversed(backs):
                g = back(g)
            return g

        return x, backward

    def _fake_quant(self, x):
        if self.act_quant_bits is None:
            return x
        q, scale = quantize_tensor(x, bits=self.act_quant_bits, per_channel=False)
        return dequantize_tensor(q, scale)

    def run(self, m, x):  # noqa: C901 - one branch per module type
        if isinstance(m, ResNet):
            x = self._fake_quant(x)
            x, stem_back = self.chain([m.stem_conv, m.stem_bn, m.stem_relu], x)
            x = self._fake_quant(x)
            stage_backs = []
            for stage in m.stages:
                x, back = self.run(stage, x)
                x = self._fake_quant(x)
                stage_backs.append(back)
            x, head_back = self.chain([m.pool, m.fc], x)

            def backward(g):
                g = head_back(g)
                for back in reversed(stage_backs):
                    g = back(g)
                return stem_back(g)

            return x, backward
        if isinstance(m, (BasicBlock, Bottleneck)):
            names = ["conv1", "bn1", "relu1", "conv2", "bn2"]
            if isinstance(m, Bottleneck):
                names += ["relu2", "conv3", "bn3"]
            main, main_back = self.chain([getattr(m, n) for n in names], x)
            short, short_back = self.run(m.shortcut, x)
            pre = main + short
            out = np.maximum(pre, 0.0)

            def backward(g):
                g = g * (pre > 0)
                return main_back(g) + short_back(g)

            return out, backward
        if isinstance(m, Sequential):
            return self.chain(m.layers, x)
        if isinstance(m, Identity):
            return x, lambda g: g
        if isinstance(m, ReLU):
            return np.maximum(x, 0.0), lambda g: g * (x > 0)
        if isinstance(m, Conv2d):
            out, back = conv_ref(x, m.weight.data.astype(np.float64), m.stride, m.padding)

            def backward(g):
                grad_x, grad_w = back(g)
                self._grad(m.weight, grad_w)
                return grad_x

            return out, backward
        if isinstance(m, BatchNorm2d):
            return self._batchnorm(m, x)
        if isinstance(m, GlobalAvgPool2d):
            h, w = x.shape[2:]
            return x.mean(axis=(2, 3)), lambda g: np.broadcast_to(
                g[:, :, None, None] / (h * w), x.shape
            )
        if isinstance(m, Linear):
            wt = m.weight.data.astype(np.float64)

            def backward(g):
                self._grad(m.weight, g.T @ x)
                self._grad(m.bias, g.sum(axis=0))
                return g @ wt

            return x @ wt.T + m.bias.data, backward
        raise TypeError(f"no reference for {type(m).__name__}")

    def _batchnorm(self, m, x):
        gamma = m.weight.data.astype(np.float64)[None, :, None, None]
        beta = m.bias.data.astype(np.float64)[None, :, None, None]
        if self.training:
            mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
            self.stats[id(m)] = (
                (1 - m.momentum) * m.running_mean + m.momentum * mean,
                (1 - m.momentum) * m.running_var + m.momentum * var,
            )
        else:
            mean, var = m.running_mean, m.running_var
        inv_std = (1.0 / np.sqrt(var + m.eps))[None, :, None, None]
        x_hat = (x - mean[None, :, None, None]) * inv_std

        def backward(g):
            self._grad(m.weight, (g * x_hat).sum(axis=(0, 2, 3)))
            self._grad(m.bias, g.sum(axis=(0, 2, 3)))
            g_mean = g.mean(axis=(0, 2, 3), keepdims=True)
            gx_mean = (g * x_hat).mean(axis=(0, 2, 3), keepdims=True)
            return gamma * inv_std * (g - g_mean - x_hat * gx_mean)

        return gamma * x_hat + beta, backward


def assert_close(actual, expected, what):
    scale = float(np.abs(expected).max())
    np.testing.assert_allclose(
        actual, expected, rtol=RTOL, atol=RTOL * 1e-3 * scale, err_msg=what
    )


BUILDERS = [
    pytest.param(lambda: resnet20(num_classes=5, width=4, seed=1), id="resnet20"),
    pytest.param(lambda: resnet18(num_classes=5, width=4, seed=2), id="resnet18"),
    pytest.param(lambda: resnet50(num_classes=5, width=2, seed=3), id="resnet50"),
]


class TestWholeModel:
    @pytest.mark.parametrize("build", BUILDERS)
    def test_training_step_matches_nchw_reference(self, build):
        rng = np.random.default_rng(0)
        net = build().train()
        x = rng.normal(size=(6, 3, 8, 8))
        labels = np.arange(6) % 5

        ref = NCHWReference(training=True)
        ref_logits, ref_back = ref.run(net, x)
        crit = CrossEntropyLoss()
        crit(ref_logits, labels)
        ref_grad_x = ref_back(crit.backward())

        net.zero_grad()
        logits = net(x)  # float64 input: the whole model computes in float64
        crit(logits, labels)
        grad_x = net.backward(crit.backward())

        assert grad_x.shape == x.shape
        assert_close(logits, ref_logits, "logits")
        assert_close(grad_x, ref_grad_x, "input gradient")
        params = list(net.named_parameters())
        assert len(params) == len(ref.grads)
        for name, p in params:
            assert_close(p.grad, ref.grads[id(p)], f"grad of {name}")
        bns = [m for m in net.modules() if isinstance(m, BatchNorm2d)]
        assert len(bns) == len(ref.stats)
        for bn in bns:
            mean, var = ref.stats[id(bn)]
            assert_close(bn.running_mean, mean, "running_mean")
            assert_close(bn.running_var, var, "running_var")

    @pytest.mark.parametrize("build", BUILDERS)
    def test_float32_logits_match_reference(self, build):
        net = build().eval()
        x = np.random.default_rng(1).normal(size=(5, 3, 8, 8)).astype(np.float32)
        ref_logits, _ = NCHWReference(training=False).run(net, x.astype(np.float64))
        logits = net(x)
        assert logits.dtype == np.float32
        assert_close(logits, ref_logits, "float32 eval logits")

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("activation_bits", [None, 8])
    def test_quantized_model_matches_reference(self, build, activation_bits):
        source = build().train()
        rng = np.random.default_rng(2)
        for _ in range(2):  # move BN running stats off their init values
            source(rng.normal(size=(4, 3, 8, 8)).astype(np.float32))
        qm = QuantizedModel(build(), bits=8, activation_bits=activation_bits)
        qm.sync_from(source)
        x = rng.normal(size=(5, 3, 8, 8))

        ref = NCHWReference(training=False, act_quant_bits=activation_bits)
        ref_logits, _ = ref.run(qm.model, x)
        features = qm.features(x)
        assert features.shape == (5, qm.model.embedding_dim)
        assert_close(qm(x), ref_logits, f"quantized logits (activation_bits={activation_bits})")
