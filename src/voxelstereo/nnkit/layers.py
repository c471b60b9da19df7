"""Convolution, the two norms and the sigmoid as plain array functions, with
explicit VJPs for the conv and the norms.

Layout conventions: feature maps are channels-last, (H, W, C) in 2D and
(D, H, W, C) in 3D. Convolution kernels are (*kspatial, C_in, C_out) and
implement cross-correlation, always same-padded: kernels must be odd and the
input is zero-padded by k // 2 per side; stride, at least 1, subsamples the
output grid. conv_vjp's padding must be "same": it stays only because the
benchmark's tracer reads conv_vjp's upstream as its fifth positional
argument. conv_vjp gives no bias gradient, the upstream summed over
positions: the callers with a bias, tape.conv and the GRU gates, take it.

Both entry points prepare their input with one call to _tap_rows: it checks
the stride, that channel blocks share one spatial shape, that the kernel is
odd and that the input channels equal the kernel's, then pads the input once
and reads it as rows of a row-major (rows, C_in) matrix. The stride-1 output
at padded position r reads row r + offset(tap) for each kernel tap, so every
tap is one GEMM over a contiguous block of rows. Stride picks the positions
slice(0, s, stride) of that stride-1 grid on an axis of input extent s:
conv_forward keeps them and conv_vjp scatters the upstream into them. The
strided input gradient, cropped to the input's interior, runs the same loop
over the taps, and the kernel gradient runs it inside a loop over row blocks
(see below). The input may be a list of channel blocks whose concatenation
it is (a GRU gate's [x, h], or the value of a tape.concat node, which the
depth head's refine conv reads): each block is copied straight into its
channels of the padded buffer, so no joined copy is made and the bits are
those of the concatenation. conv_forward frees its padded rows once the taps
are done, before it copies the output out of the padded grid, and at
stride 1 conv_vjp drops its padded input and upstream rows before the input
gradient, a conv_forward over the upstream, pads its own.

The kernel may also be a list of kernels over the same input, the GRU
gates that read one input: the forward runs one conv over them joined on
the output axis, and conv_vjp takes the cotangent of that joined output
and runs the kernel gradient as one pass over all the output channels.
Its input gradient is one transposed conv per kernel, over that kernel's
channels of the upstream, added, since a single one over all the channels
would sum in another order. Outputs and gradients are the
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

The kernel gradient sums over every row, and OpenBLAS orders a long
reduction by the thread count: one GEMM per tap over all the rows (about
37k at 32^3) gave different bits at 1 and 2 threads. So the rows are cut
into fixed blocks of _ROW_BLOCK, the block loop outside and the taps
inside, and each tap's gradient adds its blocks in block order with
beta = 1. Its bits then depend on the block size alone, a module constant,
and training is bitwise the same at any thread count. The size is bounded
on both sides. A GEMM of M * N * K <= 1e6 (C_in * C_out * rows) runs
OpenBLAS's single-threaded small-matrix kernel; the fused GRU gates' joined
36 x 32 kernel stays there up to 868 rows, as each of its 16-channel
kernels does, so its gradient is bitwise one conv per kernel. At 1024 rows
the joined GEMM left that path and its bits no longer matched. Small
blocks cost calls: at 32^3 the 36 -> 32 gradient took about 83 ms at 256
rows against 45 ms at 768.

The norms compute their statistics in one helper with out= buffers: the
forward allocates two full-size arrays (the normalized input xhat, and the
squared deviations, which become the output) and returns xhat and the
variance with the output; the VJP reads those two in place of x, so it
recomputes no statistic, and allocates two more. Keeping xhat costs no
memory where the norm's input is dropped once it is normalized, as every
conv output the model normalizes is: the VJP's state is then xhat, the size
of x, and the variance, one value per normalized row or channel.

All arithmetic is float64. Taps are always accumulated in np.ndindex
order, and the kernel gradient's blocks in row order, so outputs and
gradients are bitwise reproducible run to run.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm

_EPS_NORM = 1e-5
_ROW_BLOCK = 768  # rows per kernel-gradient block; the module docstring says why


def _tap_rows(x, k_shape, stride):
    """The one preparation of a same-padded conv input for a kernel of shape k_shape.

    x is one array or a list of channel blocks whose concatenation is the
    input. Returns the zero-padded input as (rows, C_in), the padded grid
    shape, the input's slices within it, the output positions within it
    at `stride`, the row offset of every tap in np.ndindex order, and the
    number of rows each tap's GEMM covers. Each block is copied straight
    into its channels of the padded buffer, so no concatenated copy is made.
    """
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
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
    outputs = tuple(slice(0, s, stride) for s in spatial)
    offsets = [int(np.ravel_multi_index(tap, padded)) for tap in np.ndindex(*kspatial)]
    rows = xp.reshape(-1, c_in)
    return rows, padded, interior, outputs, offsets, len(rows) - offsets[-1]


def _gemm_acc(c, a, b):
    """Add the matrix product a b to c in place; c must be Fortran-ordered.

    A row-major operand is handed to BLAS as its transpose with the transpose
    flag set, so no operand is copied either.
    """
    # positional arguments: keyword parsing cost about 1 us a call (4 us under
    # tracemalloc), and the kernel gradient makes 27 calls per row block
    f_a, f_b = a.flags.f_contiguous, b.flags.f_contiguous
    out = dgemm(1.0, a if f_a else a.T, b if f_b else b.T, 1.0, c, not f_a, not f_b, True)
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
    rows, padded, _, outputs, offsets, m = _tap_rows(x, kernel.shape, stride)
    y = np.zeros((len(rows), kernel.shape[-1]))
    for off, k in zip(offsets, kernel.reshape(-1, *kernel.shape[-2:])):
        _gemm_acc(y[:m].T, k.T, rows[off:off + m].T)
    del rows  # the padded input is freed before the output is copied out
    y = np.ascontiguousarray(y.reshape(*padded, -1)[outputs])
    if bias is not None:
        y += _joined(bias)
    return y


def conv_vjp(x, kernel, stride, padding, upstream):
    """(grad_x, grad_kernel) of <conv_forward(x, kernel, bias, stride), upstream>.

    The bias gradient, upstream summed over positions, is the caller's.
    x may be a list of channel blocks, as in conv_forward; the input
    gradient is then that of their concatenation. With a list of kernels,
    upstream is the cotangent of the joined output, and the kernel gradient
    is a list, one per kernel.
    """
    if padding != "same":
        raise ValueError(f"only same padding is supported, got {padding!r}")
    several = isinstance(kernel, list)
    kernels = kernel if several else [kernel]
    upstream = np.asarray(upstream, dtype=np.float64)
    widths = [np.shape(k)[-1] for k in kernels]
    if sum(widths) != upstream.shape[-1]:
        raise ValueError(f"upstream of {upstream.shape[-1]} channels for kernels of "
                         f"{widths} output channels")
    kernel = _joined(kernel)
    rows, padded, interior, outputs, offsets, m = _tap_rows(x, kernel.shape, stride)
    c_out = kernel.shape[-1]
    # upstream on the stride-1 grid of conv_forward, zero where no output is
    up_rows = np.zeros((*padded, c_out))
    up_rows[outputs] = upstream
    up_rows = up_rows.reshape(-1, c_out)[:m]

    grad_k = np.zeros((len(offsets), *kernel.shape[-2:]))
    grad_k_t = [g.T for g in grad_k]  # Fortran-ordered, so dgemm adds into them
    for lo in range(0, m, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, m)
        up_block = up_rows[lo:hi].T
        for off, g in zip(offsets, grad_k_t):
            _gemm_acc(g, up_block, rows[off + lo:off + hi])
    del up_block  # the view would keep the upstream rows alive past their del below
    grad_k = grad_k.reshape(kernel.shape)

    bounds = np.cumsum([0, *widths])
    if stride == 1:
        # transposed conv: same-padded (k - 1 - p = p) correlation with the flipped
        # kernel, one per kernel, summed; the padded input and upstream rows are
        # dropped before it pads its own
        nd = kernel.ndim - 2
        del rows, up_rows, kernel
        grad_x = None
        for k, lo, hi in zip(kernels, bounds[:-1], bounds[1:]):
            k_t = np.flip(np.asarray(k, dtype=np.float64), axis=tuple(range(nd)))
            g = conv_forward(upstream[..., lo:hi], k_t.swapaxes(nd, nd + 1))
            grad_x = g if grad_x is None else np.add(grad_x, g, out=grad_x)
    else:
        grad_rows = np.zeros_like(rows)
        for off, k in zip(offsets, kernel.reshape(-1, *kernel.shape[-2:])):
            _gemm_acc(grad_rows[off:off + m].T, k, up_rows.T)
        grad_x = grad_rows.reshape(*padded, -1)[interior]
    if not several:
        return grad_x, grad_k
    return grad_x, np.split(grad_k, bounds[1:-1], axis=-1)


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
    xhat, var, out = _norm_stats(x, axes)
    np.multiply(gain, xhat, out=out)
    out += shift
    return out, xhat, var


def _norm_vjp(xhat, var, gain, axes, param_axes, upstream):
    # axes: normalization axes; param_axes: broadcast axes of gain/shift
    buf = np.empty(xhat.shape)
    grad_gain = np.multiply(upstream, xhat, out=buf).sum(axis=param_axes)
    grad_shift = upstream.sum(axis=param_axes)
    grad_x = upstream * gain
    proj = np.multiply(grad_x, xhat, out=buf).mean(axis=axes, keepdims=True)
    grad_x -= grad_x.mean(axis=axes, keepdims=True)
    grad_x -= np.multiply(xhat, proj, out=buf)
    grad_x *= 1.0 / np.sqrt(var + _EPS_NORM)
    return grad_x, grad_gain, grad_shift


def instance_norm(x, gain, shift):
    """Zero mean / unit variance per channel over the spatial axes, then affine.

    Returns (y, xhat, var): the output, the normalized input and its
    per-channel variance, the two that instance_norm_vjp reads.
    """
    x = np.asarray(x, dtype=np.float64)
    return _norm_forward(x, np.asarray(gain), np.asarray(shift), tuple(range(x.ndim - 1)))


def instance_norm_vjp(xhat, var, gain, upstream):
    """Gradients w.r.t. (x, gain, shift), from instance_norm's xhat and var."""
    axes = tuple(range(xhat.ndim - 1))
    return _norm_vjp(xhat, var, np.asarray(gain), axes, axes, np.asarray(upstream))


def layer_norm_channels(x, gain, shift):
    """Zero mean / unit variance over the channel axis per position, then affine.

    Returns (y, xhat, var): the output, the normalized input and its
    per-position variance, the two that layer_norm_channels_vjp reads.
    """
    x = np.asarray(x, dtype=np.float64)
    return _norm_forward(x, np.asarray(gain), np.asarray(shift), (x.ndim - 1,))


def layer_norm_channels_vjp(xhat, var, gain, upstream):
    """Gradients w.r.t. (x, gain, shift), from layer_norm_channels' xhat and var."""
    param_axes = tuple(range(xhat.ndim - 1))  # gain/shift are per channel
    return _norm_vjp(xhat, var, np.asarray(gain), (xhat.ndim - 1,), param_axes,
                     np.asarray(upstream))


def sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    never overflows: both are e' / (1 + e) with e = exp(-|x|), where e' is 1
    for x >= 0 and e below. Both branches are evaluated over the whole array
    instead of gathered and scattered by a boolean mask, which gives the same
    bits."""
    e = np.abs(x, dtype=np.float64)
    np.exp(np.negative(e, out=e), out=e)
    s = 1.0 + e
    np.copyto(e, 1.0, where=x >= 0)
    return np.divide(e, s, out=s)
