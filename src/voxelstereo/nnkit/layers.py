"""Convolution and the two norms as plain array functions with explicit VJPs.

Layout conventions: feature maps are channels-last, (H, W, C) in 2D and
(D, H, W, C) in 3D. Convolution kernels are (*kspatial, C_in, C_out) and
implement cross-correlation, always same-padded: kernels must be odd and the
input is zero-padded by k // 2 per side; stride subsamples the output grid.
conv_vjp's padding must be "same": it stays only because the benchmark's
tracer reads conv_vjp's upstream as its fifth positional argument.

Both entry points prepare their input with one call to _tap_rows: it checks
that channel blocks share one spatial shape, the kernel is odd and the input
channels equal the kernel's, then pads the input once and reads it as rows
of a row-major (rows, C_in) matrix. The stride-1 output at padded position r
reads row r + offset(tap) for each kernel tap, so every tap is one GEMM over
a contiguous block of rows. Stride picks the positions slice(0, s, stride) of
that stride-1 grid on an axis of input extent s: conv_forward keeps them and
conv_vjp scatters the upstream into them. The kernel gradient and the
strided input gradient, cropped to the input's interior, run the same loop
over the taps. The input may be a list of channel blocks whose concatenation
it is, the value of a tape.concat node (a GRU gate over [x, h], the depth
head's refine conv): each block is copied straight into its channels of the
padded buffer, so no joined copy is made and the bits are those of the
concatenation. conv_forward frees its padded rows once the taps are done,
before it copies the output out of the padded grid, and at stride 1
conv_vjp drops its padded input and upstream rows before the input
gradient, a conv_forward over the upstream, pads its own.

The kernel may also be a list of kernels over the same input, the GRU
gates that read one input: the forward runs one conv over them joined on
the output axis, and conv_vjp takes one upstream block per kernel, copies
each straight into its channels of the padded upstream rows and runs the
kernel gradient as one pass over all the output channels. Its input
gradient is one transposed conv per kernel, added, since a single one over
all the channels would sum in another order. Outputs and gradients are the
bits of one conv per kernel at stride 1. The joined kernel is built anew on
each call, so a caller keeps only the separate kernels.

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


def _tap_rows(x, k_shape):
    """The one preparation of a same-padded conv input for a kernel of shape k_shape.

    x is one array or a list of channel blocks whose concatenation is the
    input. Returns the zero-padded input as (rows, C_in), the padded grid
    shape, the input's slices within it, the row offset of every tap in
    np.ndindex order, and the number of rows each tap's GEMM covers. Each
    block is copied straight into its channels of the padded buffer, so no
    concatenated copy is made.
    """
    blocks = [np.asarray(b, dtype=np.float64) for b in (x if isinstance(x, list) else [x])]
    spatial = blocks[0].shape[:-1]
    for b in blocks[1:]:
        if b.shape[:-1] != spatial:
            raise ValueError(f"channel blocks of different spatial shapes: {spatial} and "
                             f"{b.shape[:-1]}")
    nd = len(k_shape) - 2
    kspatial = k_shape[:nd]
    if any(k % 2 == 0 for k in kspatial):
        raise ValueError(f"same padding requires odd kernels, got {kspatial}")
    c_in = sum(b.shape[-1] for b in blocks)
    if c_in != k_shape[nd]:
        raise ValueError(f"channel mismatch: input {c_in}, kernel {k_shape[nd]}")
    padded = tuple(s + k - 1 for s, k in zip(spatial, kspatial))
    interior = tuple(slice(k // 2, s + k // 2) for s, k in zip(spatial, kspatial))
    xp = np.zeros((*padded, c_in))
    lo = 0
    for b in blocks:
        xp[(*interior, slice(lo, lo + b.shape[-1]))] = b
        lo += b.shape[-1]
    offsets = [int(np.ravel_multi_index(tap, padded)) for tap in np.ndindex(*kspatial)]
    rows = xp.reshape(-1, c_in)
    return rows, padded, interior, offsets, len(rows) - offsets[-1]


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


def _joined(a):
    """One array, or a list of arrays joined on their last axis."""
    if isinstance(a, list):
        return np.concatenate([np.asarray(b, dtype=np.float64) for b in a], axis=-1)
    return np.asarray(a, dtype=np.float64)


def conv_forward(x, kernel, bias=None, stride=1):
    """Same-padded N-d cross-correlation; x (*spatial, C_in), kernel (*k, C_in, C_out).

    x may also be a list of channel blocks (*spatial, C_i) whose
    concatenation is the input; the result is the same bits. kernel may be
    a list of kernels (*k, C_in, C_out_i) over the same input, and bias then
    a list of their biases: the output joins theirs on the channel axis.
    """
    kernel = _joined(kernel)
    rows, padded, interior, offsets, m = _tap_rows(x, kernel.shape)
    y = np.zeros((len(rows), kernel.shape[-1]))
    for off, k in zip(offsets, kernel.reshape(-1, *kernel.shape[-2:])):
        _gemm_acc(y[:m].T, k.T, rows[off:off + m].T)
    del rows  # the padded input is freed before the output is copied out
    outputs = tuple(slice(0, i.stop - i.start, stride) for i in interior)
    y = np.ascontiguousarray(y.reshape(*padded, -1)[outputs])
    if bias is not None:
        y += _joined(bias)
    return y


def conv_vjp(x, kernel, stride, padding, upstream):
    """Gradients of <conv_forward(x, kernel, bias, stride), upstream> w.r.t. (x, kernel, bias).

    x may be a list of channel blocks, as in conv_forward; the input
    gradient is then that of their concatenation. With a list of kernels,
    upstream is the list of their output blocks' cotangents, and the kernel
    and bias gradients are lists, one per kernel.
    """
    if padding != "same":
        raise ValueError(f"only same padding is supported, got {padding!r}")
    several = isinstance(kernel, list)
    kernels = kernel if several else [kernel]
    ups = [np.asarray(u, dtype=np.float64) for u in (upstream if several else [upstream])]
    if [np.shape(k)[-1] for k in kernels] != [u.shape[-1] for u in ups]:
        raise ValueError(f"upstream channels {[u.shape[-1] for u in ups]} for kernels of "
                         f"{[np.shape(k)[-1] for k in kernels]} output channels")
    kernel = _joined(kernel)
    rows, padded, interior, offsets, m = _tap_rows(x, kernel.shape)
    c_out = kernel.shape[-1]
    # upstream on the stride-1 grid of conv_forward, zero where no output is
    up_rows = np.zeros((*padded, c_out))
    outputs = tuple(slice(0, i.stop - i.start, stride) for i in interior)
    lo = 0
    for u in ups:
        up_rows[(*outputs, slice(lo, lo + u.shape[-1]))] = u
        lo += u.shape[-1]
    up_rows = up_rows.reshape(-1, c_out)[:m]

    grad_k = np.zeros((len(offsets), *kernel.shape[-2:]))
    for off, g in zip(offsets, grad_k):
        _gemm_acc(g.T, up_rows.T, rows[off:off + m])
    grad_k = grad_k.reshape(kernel.shape)
    grad_b = [u.reshape(-1, u.shape[-1]).sum(axis=0) for u in ups]

    if stride == 1:
        # transposed conv: same-padded (k - 1 - p = p) correlation with the flipped
        # kernel, one per kernel, summed; the padded input and upstream rows are
        # dropped before it pads its own
        nd = kernel.ndim - 2
        del rows, up_rows, kernel
        grad_x = None
        for k, u in zip(kernels, ups):
            k_t = np.flip(np.asarray(k, dtype=np.float64), axis=tuple(range(nd)))
            g = conv_forward(u, k_t.swapaxes(nd, nd + 1))
            grad_x = g if grad_x is None else np.add(grad_x, g, out=grad_x)
    else:
        grad_rows = np.zeros_like(rows)
        for off, k in zip(offsets, kernel.reshape(-1, *kernel.shape[-2:])):
            _gemm_acc(grad_rows[off:off + m].T, k, up_rows.T)
        grad_x = grad_rows.reshape(*padded, -1)[interior]
    if not several:
        return grad_x, grad_k, grad_b[0]
    splits = np.cumsum([u.shape[-1] for u in ups])[:-1]
    return grad_x, np.split(grad_k, splits, axis=-1), grad_b


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

