"""Low-level numpy kernels: convolution via im2col, pooling, activations.

Layout
------
Every 4-D activation inside :mod:`repro.nn` is *batch-innermost*:
``(C, H, W, N)`` float32 (channels, height, width, batch).  The models'
public boundary stays ``(N, C, H, W)``; :func:`batch_innermost` converts
once at the model entry.  Kernels come in forward/backward pairs; the
backward functions take the upstream gradient and whatever cached values
the forward pass produced, mirroring how :mod:`repro.nn.modules` drives
them.

Why the batch goes innermost: the training shapes are tiny spatially
(8x8 inputs shrinking to 4x4, 2x2 and 1x1) and narrow (6-48 channels).
In ``(N, C, H, W)`` every im2col window copy and every backward
scatter-add runs over only ``OW`` = 8, 4, 2 or 1 contiguous floats, and
a conv is ``N`` separate tiny GEMMs.  With the batch innermost:

- a conv is one 2-D GEMM, ``W(C_out, C*K*K) @ cols(C*K*K, OH*OW*N)``,
  whose ``(C_out, OH*OW*N)`` result already *is* the next activation;
- every window copy and scatter-add runs over ``OW*N`` contiguous floats
  (``N`` for strided convs), 64-256 at the training batch sizes;
- a 1x1 stride-1 conv needs no im2col at all: its columns are a free
  reshape of the input;
- batchnorm and the global average pool reduce over contiguous axes.

The seed's ``(N, C, H, W)`` ``kernel^2``-slice loops are kept as
``_im2col_loop`` / ``_col2im_loop`` for equivalence tests and the
``bench --group nn`` seed references.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "batch_innermost",
    "im2col",
    "col2im",
    "conv2d",
    "conv2d_backward",
    "max_pool2d",
    "max_pool2d_backward",
    "avg_pool2d",
    "avg_pool2d_backward",
    "relu",
    "relu_backward",
    "softmax",
    "log_softmax",
]


def batch_innermost(x: np.ndarray) -> np.ndarray:
    """Convert an ``(N, C, H, W)`` batch to the internal ``(C, H, W, N)`` layout."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a conv/pool window sweep."""
    return (size + 2 * pad - kernel) // stride + 1


def _is_pointwise(kernel: int, stride: int, pad: int) -> bool:
    """A 1x1 stride-1 unpadded window: the columns are the input itself."""
    return kernel == 1 and stride == 1 and pad == 0


def _pad2d(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes of a ``(C, H, W, N)`` array."""
    if pad == 0:
        return x
    c, h, w, n = x.shape
    out = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    out[:, pad : pad + h, pad : pad + w] = x
    return out


def im2col(
    x: np.ndarray, kernel: int, stride: int = 1, pad: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unfold ``(C, H, W, N)`` into columns ``(C*K*K, OH*OW*N)``.

    Row ``(c, ky, kx)`` holds input channel ``c`` at kernel offset
    ``(ky, kx)`` for every output position and sample, so a convolution
    is one GEMM against the flattened ``(C_out, C*K*K)`` filter bank.
    The copy reads a zero-copy window view whose innermost run is
    ``OW*N`` contiguous floats (``N`` when strided).  ``out``, when
    given, receives the copy instead of a fresh allocation (the
    :mod:`repro.nn.scratch` pool leases these).  A pointwise window
    (:func:`_is_pointwise`) returns a free reshape of ``x`` and ignores
    ``out``.
    """
    c, h, w, n = x.shape
    if _is_pointwise(kernel, stride, pad):
        return x.reshape(c, h * w * n)
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    xp = _pad2d(x, pad)
    sc, sh, sw, sn = xp.strides
    view = as_strided(
        xp,
        shape=(c, kernel, kernel, oh, ow, n),
        strides=(sc, sh, sw, sh * stride, sw * stride, sn),
    )
    if out is None:
        out = np.empty((c * kernel * kernel, oh * ow * n), dtype=x.dtype)
    np.copyto(out.reshape(c, kernel, kernel, oh, ow, n), view)
    return out


def col2im(
    cols: np.ndarray,
    x_shape: tuple,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold ``(C*K*K, OH*OW*N)`` columns back to ``(C, H, W, N)``, summing overlaps.

    The adjoint of :func:`im2col`, and therefore exactly the gradient
    routing a convolution's backward pass needs.  Each kernel position's
    scatter-add runs over ``OW*N`` contiguous floats.
    """
    c, h, w, n = x_shape
    if _is_pointwise(kernel, stride, pad):
        return cols.reshape(x_shape)
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    windows = cols.reshape(c, kernel, kernel, oh, ow, n)
    x = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=cols.dtype)
    for ky in range(kernel):
        y_max = ky + stride * oh
        for kx in range(kernel):
            x_max = kx + stride * ow
            target = x[:, ky:y_max:stride, kx:x_max:stride]
            if ky == 0 and kx == 0:
                # The accumulator starts at zero: plain assignment saves a
                # full read pass over the largest array.
                target[...] = windows[:, 0, 0]
            else:
                target += windows[:, ky, kx]
    if pad > 0:
        return x[:, pad : pad + h, pad : pad + w]
    return x


def _im2col_loop(x: np.ndarray, kernel: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Seed ``(N, C, H, W)`` ``kernel^2``-slice im2col, rows ``(N*OH*OW, C*K*K)``.

    Reference for tests and benchmarks only.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")

    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for ky in range(kernel):
        y_max = ky + stride * oh
        for kx in range(kernel):
            x_max = kx + stride * ow
            cols[:, :, ky, kx, :, :] = x[:, :, ky:y_max:stride, kx:x_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, -1)


def _col2im_loop(
    cols: np.ndarray,
    x_shape: tuple,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Seed ``(N, C, H, W)`` ``kernel^2``-slice col2im (reference only)."""
    n, c, h, w = x_shape
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    cols = cols.reshape(n, oh, ow, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)

    x = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ky in range(kernel):
        y_max = ky + stride * oh
        for kx in range(kernel):
            x_max = kx + stride * ow
            x[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]
    if pad > 0:
        return x[:, :, pad : pad + h, pad : pad + w]
    return x


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    pad: int = 0,
    cols_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """2-D convolution of ``(C, H, W, N)`` input; ``weight`` is ``(C_out, C_in, K, K)``.

    Returns ``(output, cols)``: the ``(C_out, OH, OW, N)`` output and the
    ``(C*K*K, OH*OW*N)`` column matrix (:func:`im2col`) the backward pass
    reuses — :class:`repro.nn.modules.Conv2d` threads it through, so
    backward never re-derives columns.  ``cols_out`` lets the caller
    supply that buffer (a pooled scratch lease) instead of allocating it
    per batch.
    """
    c_out, _, k, _ = weight.shape
    _, h, w, n = x.shape
    oh = _out_size(h, k, stride, pad)
    ow = _out_size(w, k, stride, pad)
    cols = im2col(x, k, stride, pad, out=cols_out)
    out = weight.reshape(c_out, -1) @ cols  # (c_out, oh*ow*n): one GEMM
    if bias is not None:
        out += bias[:, None]
    return out.reshape(c_out, oh, ow, n), cols


def conv2d_backward(
    grad_out: np.ndarray,
    cols: np.ndarray,
    x_shape: tuple,
    weight: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    with_bias: bool = False,
    overwrite_cols: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`conv2d` given its column cache.

    Returns ``(grad_x, grad_weight, grad_bias)``; ``grad_bias`` is ``None``
    unless ``with_bias`` is set.  One GEMM gives ``grad_weight``, one
    gives the column gradient, and :func:`col2im` scatters it back.
    ``overwrite_cols`` lets the column gradient reuse ``cols``'s buffer
    (the caller is done with it) instead of allocating its own.
    """
    c_out = weight.shape[0]
    k = weight.shape[2]
    g = grad_out.reshape(c_out, -1)  # (c_out, oh*ow*n)
    w2 = weight.reshape(c_out, -1)
    grad_weight = (g @ cols.T).reshape(weight.shape)
    grad_bias = g.sum(axis=1) if with_bias else None
    reuse = overwrite_cols and cols.dtype == np.result_type(w2, g)
    grad_cols = np.matmul(w2.T, g, out=cols if reuse else None)
    return col2im(grad_cols, x_shape, k, stride, pad), grad_weight, grad_bias


def _pool_windows(x: np.ndarray, kernel: int, stride: int) -> tuple[np.ndarray, tuple]:
    """``(C, K*K, OH*OW*N)`` pooling windows of ``x`` and the output shape."""
    c, h, w, n = x.shape
    oh = _out_size(h, kernel, stride, 0)
    ow = _out_size(w, kernel, stride, 0)
    windows = im2col(x, kernel, stride, 0).reshape(c, kernel * kernel, -1)
    return windows, (c, oh, ow, n)


def max_pool2d(
    x: np.ndarray, kernel: int, stride: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling. Returns ``(output, argmax)`` with argmax cached for backward.

    ``argmax`` is ``(C, OH*OW*N)`` holding flat ``ky*K + kx`` window
    positions (ties resolve to the first maximum, as in the seed kernel).
    """
    windows, out_shape = _pool_windows(x, kernel, stride or kernel)
    argmax = windows.argmax(axis=1)
    out = np.take_along_axis(windows, argmax[:, None, :], axis=1)[:, 0, :]
    return out.reshape(out_shape), argmax


def max_pool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: tuple,
    kernel: int,
    stride: int | None = None,
) -> np.ndarray:
    """Backward pass of :func:`max_pool2d` — route gradients to the argmax."""
    c = x_shape[0]
    grad_windows = np.zeros((c, kernel * kernel, argmax.shape[1]), dtype=grad_out.dtype)
    np.put_along_axis(
        grad_windows, argmax[:, None, :], grad_out.reshape(c, 1, -1), axis=1
    )
    return col2im(
        grad_windows.reshape(c * kernel * kernel, -1), x_shape, kernel, stride or kernel, 0
    )


def avg_pool2d(x: np.ndarray, kernel: int, stride: int | None = None) -> np.ndarray:
    """Average pooling over non-overlapping (or strided) windows."""
    windows, out_shape = _pool_windows(x, kernel, stride or kernel)
    return windows.mean(axis=1).reshape(out_shape)


def avg_pool2d_backward(
    grad_out: np.ndarray, x_shape: tuple, kernel: int, stride: int | None = None
) -> np.ndarray:
    """Backward pass of :func:`avg_pool2d` — spread gradients uniformly."""
    c = x_shape[0]
    grad = grad_out.reshape(c, 1, -1) / (kernel * kernel)
    grad_windows = np.broadcast_to(grad, (c, kernel * kernel, grad.shape[2]))
    return col2im(
        grad_windows.reshape(c * kernel * kernel, -1), x_shape, kernel, stride or kernel, 0
    )


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear activation."""
    return np.maximum(x, 0.0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Backward pass of :func:`relu` given the forward input."""
    return grad_out * (x > 0)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
