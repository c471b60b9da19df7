"""Learnable layers as plain array functions with explicit VJPs.

Layout conventions: feature maps are channels-last, (H, W, C) in 2D and
(D, H, W, C) in 3D. Convolution kernels are (*kspatial, C_in, C_out) and
implement cross-correlation. "same" padding requires odd kernels and pads
symmetrically; stride subsamples the output grid.

Convolution pads the input once and reads it as rows of a row-major
(rows, C_in) matrix: the stride-1 output at padded position r reads row
r + offset(tap) for each kernel tap, so every tap is one GEMM over a
contiguous block of rows, and stride keeps every stride-th position of that
stride-1 grid. The kernel gradient and the strided input gradient run the
same loop over the taps.

All arithmetic is float64. Taps are always accumulated in np.ndindex
order, so outputs and gradients are bitwise reproducible run to run.
"""

from __future__ import annotations

import numpy as np

_EPS_NORM = 1e-5


def _conv_geometry(x_shape, k_shape, stride, padding):
    nd = len(k_shape) - 2
    spatial = x_shape[:nd]
    kspatial = k_shape[:nd]
    if padding == "same":
        if any(k % 2 == 0 for k in kspatial):
            raise ValueError("same padding requires odd kernels")
        pads = tuple(k // 2 for k in kspatial)
    elif padding == "valid":
        pads = (0,) * nd
    else:
        raise ValueError(f"unknown padding {padding!r}")
    out = tuple((s + 2 * p - k) // stride + 1 for s, p, k in zip(spatial, pads, kspatial))
    if any(o < 1 for o in out):
        raise ValueError(f"kernel {kspatial} does not fit input {spatial}")
    return nd, spatial, kspatial, pads, out


def _tap_rows(x, pads, kspatial):
    """The padded input as (rows, C), the padded grid shape, the row offset of
    every tap in np.ndindex order, and the number of rows each tap's GEMM covers."""
    xp = np.pad(x, [(p, p) for p in pads] + [(0, 0)])
    padded = xp.shape[:-1]
    offsets = [int(np.ravel_multi_index(tap, padded)) for tap in np.ndindex(*kspatial)]
    rows = xp.reshape(-1, x.shape[-1])
    return rows, padded, offsets, len(rows) - offsets[-1]


def _output_slices(out, stride):
    """The output positions within the stride-1 grid over the padded input."""
    return tuple(slice(0, stride * (o - 1) + 1, stride) for o in out)


def conv_forward(x, kernel, bias=None, stride=1, padding="same"):
    """N-dimensional cross-correlation; x (*spatial, C_in), kernel (*k, C_in, C_out)."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    nd, _, kspatial, pads, out = _conv_geometry(x.shape, kernel.shape, stride, padding)
    if x.shape[nd] != kernel.shape[nd]:
        raise ValueError(f"channel mismatch: input {x.shape[nd]}, kernel {kernel.shape[nd]}")
    rows, padded, offsets, m = _tap_rows(x, pads, kspatial)
    y = np.zeros((len(rows), kernel.shape[-1]))
    for off, k in zip(offsets, kernel.reshape(-1, *kernel.shape[-2:])):
        y[:m] += rows[off:off + m] @ k
    y = np.ascontiguousarray(y.reshape(*padded, -1)[_output_slices(out, stride)])
    if bias is not None:
        y += np.asarray(bias, dtype=np.float64)
    return y


def conv_vjp(x, kernel, stride, padding, upstream):
    """Gradients of <conv_forward(x, kernel, bias), upstream> w.r.t. (x, kernel, bias)."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    nd, spatial, kspatial, pads, out = _conv_geometry(x.shape, kernel.shape, stride, padding)
    c_out = kernel.shape[-1]
    rows, padded, offsets, m = _tap_rows(x, pads, kspatial)
    # upstream on the stride-1 grid of conv_forward, zero where no output is
    up_rows = np.zeros((*padded, c_out))
    up_rows[_output_slices(out, stride)] = upstream
    up_rows = up_rows.reshape(-1, c_out)[:m]

    grad_k = np.stack([rows[off:off + m].T @ up_rows for off in offsets]).reshape(kernel.shape)
    grad_b = upstream.reshape(-1, c_out).sum(axis=0)

    if stride == 1:
        # transposed convolution: correlate upstream with the flipped kernel
        k_t = np.flip(kernel, axis=tuple(range(nd))).swapaxes(nd, nd + 1)
        up_padded = np.pad(
            upstream, [(k - 1 - p, k - 1 - p) for k, p in zip(kspatial, pads)] + [(0, 0)]
        )
        grad_x = conv_forward(up_padded, k_t, None, stride=1, padding="valid")
    else:
        grad_rows = np.zeros_like(rows)
        for off, k in zip(offsets, kernel.reshape(-1, *kernel.shape[-2:])):
            grad_rows[off:off + m] += up_rows @ k.T
        grad_x = grad_rows.reshape(*padded, -1)[
            tuple(slice(p, s + p) for p, s in zip(pads, spatial))]
    return grad_x, grad_k, grad_b


def _norm_forward(x, gain, shift, axes, eps):
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return gain * xhat + shift, xhat, var


def _norm_vjp(gain, xhat, var, axes, param_axes, eps, upstream):
    # axes: normalization axes; param_axes: broadcast axes of gain/shift
    grad_gain = (upstream * xhat).sum(axis=param_axes)
    grad_shift = upstream.sum(axis=param_axes)
    g = upstream * gain
    inv_s = 1.0 / np.sqrt(var + eps)
    grad_x = inv_s * (
        g
        - g.mean(axis=axes, keepdims=True)
        - xhat * (g * xhat).mean(axis=axes, keepdims=True)
    )
    return grad_x, grad_gain, grad_shift


def instance_norm(x, gain, shift, eps=_EPS_NORM):
    """Zero mean / unit variance per channel over the spatial axes, then affine."""
    x = np.asarray(x, dtype=np.float64)
    axes = tuple(range(x.ndim - 1))
    out, _, _ = _norm_forward(x, np.asarray(gain), np.asarray(shift), axes, eps)
    return out


def instance_norm_vjp(x, gain, shift, upstream, eps=_EPS_NORM):
    x = np.asarray(x, dtype=np.float64)
    axes = tuple(range(x.ndim - 1))
    _, xhat, var = _norm_forward(x, np.asarray(gain), np.asarray(shift), axes, eps)
    return _norm_vjp(np.asarray(gain), xhat, var, axes, axes, eps, np.asarray(upstream))


def layer_norm_channels(x, gain, shift, eps=_EPS_NORM):
    """Zero mean / unit variance over the channel axis per position, then affine."""
    x = np.asarray(x, dtype=np.float64)
    out, _, _ = _norm_forward(x, np.asarray(gain), np.asarray(shift), (x.ndim - 1,), eps)
    return out


def layer_norm_channels_vjp(x, gain, shift, upstream, eps=_EPS_NORM):
    x = np.asarray(x, dtype=np.float64)
    axes = (x.ndim - 1,)
    param_axes = tuple(range(x.ndim - 1))  # gain/shift are per channel
    _, xhat, var = _norm_forward(x, np.asarray(gain), np.asarray(shift), axes, eps)
    return _norm_vjp(np.asarray(gain), xhat, var, axes, param_axes, eps, np.asarray(upstream))


def relu(x):
    return np.maximum(x, 0.0)


def relu_vjp(x, upstream):
    return np.where(x > 0, upstream, 0.0)


def sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def softmax_channels(x):
    """Softmax over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_channels_vjp(probs, upstream):
    dot = (upstream * probs).sum(axis=-1, keepdims=True)
    return probs * (upstream - dot)


def upsample_nearest(x, factor):
    """Repeat each spatial sample factor times along every spatial axis."""
    for axis in range(x.ndim - 1):
        x = np.repeat(x, factor, axis=axis)
    return x


def upsample_nearest_vjp(x_shape, factor, upstream):
    nd = len(x_shape) - 1
    up = np.asarray(upstream)
    for axis in range(nd):
        new = up.shape[:axis] + (x_shape[axis], factor) + up.shape[axis + 1:]
        up = up.reshape(new).sum(axis=axis + 1)
    return up
