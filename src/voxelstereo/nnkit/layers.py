"""Learnable layers as plain array functions with explicit VJPs.

Layout conventions: feature maps are channels-last, (H, W, C) in 2D and
(D, H, W, C) in 3D. Convolution kernels are (*kspatial, C_in, C_out) and
implement cross-correlation. "same" padding requires odd kernels and pads
symmetrically; stride subsamples the output grid.

All arithmetic is float64. Backward passes use a deterministic
accumulation order (BLAS contractions and np.bincount scatters), so
gradients are bitwise reproducible run to run.
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


def _im2col(x, kspatial, pads, stride, out):
    """Patches of shape (prod(out), prod(kspatial) * C_in)."""
    nd = len(kspatial)
    xp = np.pad(x, [(p, p) for p in pads] + [(0, 0)])
    win = np.lib.stride_tricks.sliding_window_view(xp, kspatial, axis=tuple(range(nd)))
    # (out_full..., C, k...) subsampled by stride, then channels moved last
    win = win[tuple(slice(None, None, stride) for _ in range(nd))]
    order = tuple(range(nd)) + tuple(range(nd + 1, 2 * nd + 1)) + (nd,)
    patches = win.transpose(order).reshape(int(np.prod(out)), -1)
    return patches, xp.shape


def _scatter_indices(xp_shape, kspatial, stride, out, c_in):
    """Flat indices into the padded input for every patch element."""
    nd = len(kspatial)
    sp_pad = xp_shape[:nd]
    starts = np.meshgrid(*[np.arange(o) * stride for o in out], indexing="ij")
    starts = np.stack([s.reshape(-1) for s in starts], axis=1)  # (N, nd)
    offs = np.meshgrid(*[np.arange(k) for k in kspatial], indexing="ij")
    offs = np.stack([o.reshape(-1) for o in offs], axis=1)  # (pk, nd)
    pos = starts[:, None, :] + offs[None, :, :]  # (N, pk, nd)
    flat = np.ravel_multi_index(tuple(pos[..., d] for d in range(nd)), sp_pad)
    idx = flat[..., None] * c_in + np.arange(c_in)
    return idx.reshape(flat.shape[0], -1)  # (N, pk * C_in)


def conv_forward(x, kernel, bias=None, stride=1, padding="same"):
    """N-dimensional cross-correlation; x (*spatial, C_in), kernel (*k, C_in, C_out)."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    nd, _, kspatial, pads, out = _conv_geometry(x.shape, kernel.shape, stride, padding)
    if x.shape[nd] != kernel.shape[nd]:
        raise ValueError(f"channel mismatch: input {x.shape[nd]}, kernel {kernel.shape[nd]}")
    patches, _ = _im2col(x, kspatial, pads, stride, out)
    y = patches @ kernel.reshape(-1, kernel.shape[-1])
    if bias is not None:
        y = y + np.asarray(bias, dtype=np.float64)
    return y.reshape(*out, kernel.shape[-1])


def conv_vjp(x, kernel, stride, padding, upstream):
    """Gradients of <conv_forward(x, kernel, bias), upstream> w.r.t. (x, kernel, bias)."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    nd, spatial, kspatial, pads, out = _conv_geometry(x.shape, kernel.shape, stride, padding)
    c_in, c_out = kernel.shape[-2], kernel.shape[-1]
    up_flat = upstream.reshape(-1, c_out)

    patches, xp_shape = _im2col(x, kspatial, pads, stride, out)
    grad_k = (patches.T @ up_flat).reshape(kernel.shape)
    grad_b = up_flat.sum(axis=0)

    if stride == 1:
        # transposed convolution: correlate upstream with the flipped kernel
        k_t = np.flip(kernel, axis=tuple(range(nd))).swapaxes(nd, nd + 1)
        up_padded = np.pad(
            upstream, [(k - 1 - p, k - 1 - p) for k, p in zip(kspatial, pads)] + [(0, 0)]
        )
        grad_x = conv_forward(up_padded, k_t, None, stride=1, padding="valid")
    else:
        contrib = up_flat @ kernel.reshape(-1, c_out).T  # (N, pk * C_in)
        idx = _scatter_indices(xp_shape, kspatial, stride, out, c_in)
        flat = np.bincount(idx.reshape(-1), weights=contrib.reshape(-1),
                           minlength=int(np.prod(xp_shape)))
        grad_x = flat.reshape(xp_shape)[
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
