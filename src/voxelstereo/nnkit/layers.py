"""Convolution and the two norms as plain array functions with explicit VJPs.

Layout conventions: feature maps are channels-last, (H, W, C) in 2D and
(D, H, W, C) in 3D. Convolution kernels are (*kspatial, C_in, C_out) and
implement cross-correlation, always same-padded: kernels must be odd and the
input is zero-padded by k // 2 per side; stride subsamples the output grid.
conv_vjp's padding must be "same": it stays only because the benchmark's
tracer reads conv_vjp's upstream as its fifth positional argument.

Convolution pads the input once and reads it as rows of a row-major
(rows, C_in) matrix: the stride-1 output at padded position r reads row
r + offset(tap) for each kernel tap, so every tap is one GEMM over a
contiguous block of rows, and stride keeps every stride-th position of that
stride-1 grid. The kernel gradient and the strided input gradient run the
same loop over the taps.

Each tap's GEMM adds its product straight into the output through BLAS
dgemm with beta = 1, so no per-tap temporary is allocated and no second pass
adds it in. BLAS is column-major, and the transpose of a row-major block is
that same memory in column-major order, so the blocks are passed transposed
and nothing is copied. Every conv GEMM, the kernel gradient included, goes
through scipy's BLAS: numpy and scipy each bundle their own OpenBLAS with its
own thread pool, whose threads keep spinning after a call returns, and
alternating between the two makes the pools contend for the same cores.

The norms compute their statistics in one helper with out= buffers: the
forward allocates two full-size arrays (the normalized input, and the
squared deviations, which become the output) and the VJP three. The VJP
recomputes xhat and the variance from x rather than have the forward keep
xhat alive in its tape closure: one cached array per norm node would add
about 50 MB to the 32^3 voxel/GRU training peak, while the recompute costs a
mean, a subtract and a square.

All arithmetic is float64. Taps are always accumulated in np.ndindex
order, so outputs and gradients are bitwise reproducible run to run.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm

_EPS_NORM = 1e-5


def _conv_geometry(x_shape, k_shape, stride):
    nd = len(k_shape) - 2
    spatial = x_shape[:nd]
    kspatial = k_shape[:nd]
    if any(k % 2 == 0 for k in kspatial):
        raise ValueError(f"same padding requires odd kernels, got {kspatial}")
    pads = tuple(k // 2 for k in kspatial)
    out = tuple((s - 1) // stride + 1 for s in spatial)
    return nd, spatial, kspatial, pads, out


def _tap_rows(x, pads, kspatial):
    """The padded input as (rows, C), the padded grid shape, the row offset of
    every tap in np.ndindex order, and the number of rows each tap's GEMM covers."""
    xp = np.pad(x, [(p, p) for p in pads] + [(0, 0)])
    padded = xp.shape[:-1]
    offsets = [int(np.ravel_multi_index(tap, padded)) for tap in np.ndindex(*kspatial)]
    rows = xp.reshape(-1, x.shape[-1])
    return rows, padded, offsets, len(rows) - offsets[-1]


def _gemm_acc(c, a, b):
    """Add the matrix product a b to c in place; c must be Fortran-ordered.

    A row-major operand is handed to BLAS as its transpose with the transpose
    flag set, so no operand is copied either.
    """
    (a, trans_a), (b, trans_b) = (
        (m, 0) if m.flags.f_contiguous else (m.T, 1) for m in (a, b))
    out = dgemm(1.0, a, b, beta=1.0, c=c, trans_a=trans_a, trans_b=trans_b, overwrite_c=True)
    if out is not c:
        # dgemm copied c (not Fortran-ordered), so the sum never reached it
        raise ValueError(f"dgemm did not write in place: c has strides {c.strides}")


def _output_slices(out, stride):
    """The output positions within the stride-1 grid over the padded input."""
    return tuple(slice(0, stride * (o - 1) + 1, stride) for o in out)


def conv_forward(x, kernel, bias=None, stride=1):
    """Same-padded N-d cross-correlation; x (*spatial, C_in), kernel (*k, C_in, C_out)."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    nd, _, kspatial, pads, out = _conv_geometry(x.shape, kernel.shape, stride)
    if x.shape[nd] != kernel.shape[nd]:
        raise ValueError(f"channel mismatch: input {x.shape[nd]}, kernel {kernel.shape[nd]}")
    rows, padded, offsets, m = _tap_rows(x, pads, kspatial)
    y = np.zeros((len(rows), kernel.shape[-1]))
    for off, k in zip(offsets, kernel.reshape(-1, *kernel.shape[-2:])):
        _gemm_acc(y[:m].T, k.T, rows[off:off + m].T)
    y = np.ascontiguousarray(y.reshape(*padded, -1)[_output_slices(out, stride)])
    if bias is not None:
        y += np.asarray(bias, dtype=np.float64)
    return y


def conv_vjp(x, kernel, stride, padding, upstream):
    """Gradients of <conv_forward(x, kernel, bias, stride), upstream> w.r.t. (x, kernel, bias)."""
    if padding != "same":
        raise ValueError(f"only same padding is supported, got {padding!r}")
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    nd, spatial, kspatial, pads, out = _conv_geometry(x.shape, kernel.shape, stride)
    c_out = kernel.shape[-1]
    rows, padded, offsets, m = _tap_rows(x, pads, kspatial)
    # upstream on the stride-1 grid of conv_forward, zero where no output is
    up_rows = np.zeros((*padded, c_out))
    up_rows[_output_slices(out, stride)] = upstream
    up_rows = up_rows.reshape(-1, c_out)[:m]

    grad_k = np.zeros((len(offsets), *kernel.shape[-2:]))
    for off, g in zip(offsets, grad_k):
        _gemm_acc(g.T, up_rows.T, rows[off:off + m])
    grad_k = grad_k.reshape(kernel.shape)
    grad_b = upstream.reshape(-1, c_out).sum(axis=0)

    if stride == 1:
        # transposed conv: same-padded (k - 1 - p = p) correlation with the flipped kernel
        k_t = np.flip(kernel, axis=tuple(range(nd))).swapaxes(nd, nd + 1)
        grad_x = conv_forward(upstream, k_t)
    else:
        grad_rows = np.zeros_like(rows)
        for off, k in zip(offsets, kernel.reshape(-1, *kernel.shape[-2:])):
            _gemm_acc(grad_rows[off:off + m].T, k, up_rows.T)
        grad_x = grad_rows.reshape(*padded, -1)[
            tuple(slice(p, s + p) for p, s in zip(pads, spatial))]
    return grad_x, grad_k, grad_b


def he_normal(rng, shape):
    """He-normal conv kernel (*k, C_in, C_out): std sqrt(2 / fan_in), fan_in = prod(*k, C_in)."""
    fan_in = int(np.prod(shape[:-1]))
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def _norm_stats(x, axes):
    """(xhat, var, spare): x normalized over `axes`, its variance there, and a
    free full-size buffer that held the squared deviations."""
    xhat = np.subtract(x, x.mean(axis=axes, keepdims=True))
    spare = np.square(xhat)
    var = spare.mean(axis=axes, keepdims=True)
    xhat /= np.sqrt(var + _EPS_NORM)
    return xhat, var, spare


def _norm_forward(x, gain, shift, axes):
    xhat, _, out = _norm_stats(x, axes)
    np.multiply(gain, xhat, out=out)
    out += shift
    return out


def _norm_vjp(x, gain, axes, param_axes, upstream):
    # axes: normalization axes; param_axes: broadcast axes of gain/shift
    xhat, var, buf = _norm_stats(x, axes)
    grad_gain = np.multiply(upstream, xhat, out=buf).sum(axis=param_axes)
    grad_shift = upstream.sum(axis=param_axes)
    grad_x = upstream * gain
    proj = np.multiply(grad_x, xhat, out=buf).mean(axis=axes, keepdims=True)
    grad_x -= grad_x.mean(axis=axes, keepdims=True)
    grad_x -= np.multiply(xhat, proj, out=xhat)
    grad_x *= 1.0 / np.sqrt(var + _EPS_NORM)
    return grad_x, grad_gain, grad_shift


def instance_norm(x, gain, shift):
    """Zero mean / unit variance per channel over the spatial axes, then affine."""
    x = np.asarray(x, dtype=np.float64)
    return _norm_forward(x, np.asarray(gain), np.asarray(shift), tuple(range(x.ndim - 1)))


def instance_norm_vjp(x, gain, upstream):
    x = np.asarray(x, dtype=np.float64)
    axes = tuple(range(x.ndim - 1))
    return _norm_vjp(x, np.asarray(gain), axes, axes, np.asarray(upstream))


def layer_norm_channels(x, gain, shift):
    """Zero mean / unit variance over the channel axis per position, then affine."""
    x = np.asarray(x, dtype=np.float64)
    return _norm_forward(x, np.asarray(gain), np.asarray(shift), (x.ndim - 1,))


def layer_norm_channels_vjp(x, gain, upstream):
    x = np.asarray(x, dtype=np.float64)
    param_axes = tuple(range(x.ndim - 1))  # gain/shift are per channel
    return _norm_vjp(x, np.asarray(gain), (x.ndim - 1,), param_axes, np.asarray(upstream))

