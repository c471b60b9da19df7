"""Layer semantics and gradient checks against finite differences."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    TapeDot,
    assert_vjp_matches_fd,
    fd_gradient,
    joined_concat,
    max_rel_error,
    tape_vjp,
)

from voxelstereo.nnkit import tape
from voxelstereo.nnkit.adam import LR, Adam, adam_step
from voxelstereo.nnkit.layers import (
    _ROW_BLOCK,
    _gemm_acc,
    conv_forward,
    conv_vjp,
    instance_norm,
    instance_norm_vjp,
    layer_norm_channels,
    layer_norm_channels_vjp,
    sigmoid,
)


def tape_value(op, x, *args):
    """The value of the tape op `op` on a leaf holding x."""
    return op(tape.TapeNode(x), *args).value


SRC = Path(__file__).resolve().parent.parent / "src"

# The GRU's two fused gate pairs at 16^3: update and candidate over x alone
# (the x rows of 36-row kernels, as the zero-state step takes them), and
# update and reset over the blocks [x, h].
FUSED_CONV_CHECK = """
import numpy as np
from voxelstereo.nnkit.layers import conv_forward, conv_vjp

rng = np.random.default_rng(40)
x, h = rng.standard_normal((16, 16, 16, 20)), rng.standard_normal((16, 16, 16, 16))
for name, xs, rows in (("x", x, 20), ("x+h", [x, h], 36)):
    ks = [rng.standard_normal((3, 3, 3, 36, 16))[..., :rows, :] for _ in range(2)]
    bs = [rng.standard_normal(16) for _ in range(2)]
    ups = [rng.standard_normal((16, 16, 16, 16)) for _ in range(2)]
    y = conv_forward(xs, ks, bs)
    grad_x, grad_ks = conv_vjp(xs, ks, 1, "same", np.concatenate(ups, axis=-1))
    separate = [conv_vjp(xs, k, 1, "same", u) for k, u in zip(ks, ups)]
    for i, (k, b) in enumerate(zip(ks, bs)):
        assert y[..., 16 * i:16 * (i + 1)].tobytes() == conv_forward(xs, k, b).tobytes(), name
        assert grad_ks[i].tobytes() == separate[i][1].tobytes(), name
    assert grad_x.tobytes() == (separate[0][0] + separate[1][0]).tobytes(), name
    print(name)
"""


class TestConv:
    def test_1x1_identity_kernel(self):
        x = np.random.default_rng(0).random((5, 6, 3))
        kernel = np.eye(3).reshape(1, 1, 3, 3)
        np.testing.assert_allclose(conv_forward(x, kernel), x, atol=1e-14)

    def test_3x3_average_on_constant_interior(self):
        x = np.full((6, 6, 1), 2.0)
        kernel = np.full((3, 3, 1, 1), 1.0 / 9.0)
        y = conv_forward(x, kernel)
        np.testing.assert_allclose(y[1:-1, 1:-1], 2.0)
        assert y[0, 0, 0] == pytest.approx(2.0 * 4 / 9)  # zero padding at the corner

    def test_bias_added(self):
        x = np.zeros((4, 4, 2))
        kernel = np.zeros((1, 1, 2, 3))
        y = conv_forward(x, kernel, bias=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(y, np.broadcast_to([1.0, 2.0, 3.0], (4, 4, 3)))

    def test_stride2_shape(self):
        y = conv_forward(np.zeros((8, 8, 2)), np.zeros((3, 3, 2, 4)), stride=2)
        assert y.shape == (4, 4, 4)

    def test_hand_computed_entry(self):
        x = np.arange(9.0).reshape(3, 3, 1)
        k = np.arange(1.0, 10.0).reshape(3, 3, 1, 1)
        y = conv_forward(x, k)
        # the corner window is x[:2, :2] = [[0,1],[3,4]] under k[1:, 1:] =
        # [[5,6],[8,9]], the rest zero padding: 0 + 6 + 24 + 36 = 66
        assert y[0, 0, 0] == 66.0
        # the center window is all of x under all of k: sum i * (i + 1) = 240
        assert y[1, 1, 0] == 240.0

    @pytest.mark.parametrize("x,k_shape,message", [
        pytest.param(np.zeros((4, 4, 2)), (3, 3, 3, 1), "channel mismatch: input 2, kernel 3",
                     id="channels"),
        pytest.param(np.zeros((4, 4, 1)), (2, 2, 1, 1), "odd kernels, got (2, 2)",
                     id="even-kernel"),
        pytest.param([np.zeros((4, 4, 2)), np.zeros((4, 5, 1))], (3, 3, 3, 1),
                     "(4, 4) and (4, 5)", id="block-shapes"),
    ])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_both_entry_points_reject_bad_input_alike(self, x, k_shape, message, stride):
        kernel = np.zeros(k_shape)
        with pytest.raises(ValueError, match=re.escape(message)) as forward:
            conv_forward(x, kernel, stride=stride)
        with pytest.raises(ValueError) as vjp:
            conv_vjp(x, kernel, stride, "same", np.zeros((4 // stride, 4 // stride, 1)))
        assert str(vjp.value) == str(forward.value)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_both_entry_points_reject_a_stride_below_one(self, stride):
        x, kernel = np.zeros((4, 4, 1)), np.zeros((3, 3, 1, 1))
        message = re.escape(f"stride must be at least 1, got {stride}")
        with pytest.raises(ValueError, match=message):
            conv_forward(x, kernel, stride=stride)
        with pytest.raises(ValueError, match=message):
            conv_vjp(x, kernel, stride, "same", x)

    def test_vjp_rejects_padding_other_than_same(self):
        x = np.zeros((4, 4, 1))
        with pytest.raises(ValueError, match="same padding"):
            conv_vjp(x, np.zeros((3, 3, 1, 1)), 1, "valid", x)

    @pytest.mark.parametrize("spatial,channels", [((7, 6), (2, 3, 4)), ((5, 4, 5), (20, 16))])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_channel_blocks_are_bitwise_their_concatenation(self, spatial, channels, stride):
        rng = np.random.default_rng(3)
        blocks = [rng.standard_normal(spatial + (c,)) for c in channels]
        x = np.concatenate(blocks, axis=-1)
        kernel = rng.standard_normal((3,) * len(spatial) + (x.shape[-1], 5))
        bias = rng.standard_normal(5)
        y = conv_forward(x, kernel, bias, stride)
        assert conv_forward(blocks, kernel, bias, stride).tobytes() == y.tobytes()
        up = rng.standard_normal(y.shape)
        got = conv_vjp(blocks, kernel, stride, "same", up)
        for a, b, part in zip(got, conv_vjp(x, kernel, stride, "same", up), ("x", "kernel"),
                              strict=True):
            assert a.tobytes() == b.tobytes(), part

    @pytest.mark.parametrize("spatial,channels,stride", [((7, 6), (2, 3), 2),
                                                         ((5, 4, 5), (4, 3), 1)])
    def test_tape_conv_over_a_concat_is_bitwise_the_conv_over_its_join(self, spatial, channels,
                                                                         stride):
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal(spatial + (c,)) for c in channels]
        kernel = rng.standard_normal((3,) * len(spatial) + (sum(channels), 5))
        bias = rng.standard_normal(5)

        def run(join):
            blocks = [tape.TapeNode(a) for a in arrays]
            params = [tape.TapeNode(kernel), tape.TapeNode(bias)]
            y = tape.conv(join(blocks), *params, stride=stride)
            tape.backward(TapeDot(y, np.random.default_rng(5).standard_normal(y.value.shape)))
            return [y.value.tobytes()] + [n.grad.tobytes() for n in blocks + params]

        assert run(tape.concat) == run(joined_concat)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_tape_conv_without_a_bias_node_records_x_and_kernel_only(self, stride):
        rng = np.random.default_rng(7)
        x, kernel = rng.standard_normal((7, 6, 3)), rng.standard_normal((3, 3, 3, 4))
        nodes = [tape.TapeNode(x), tape.TapeNode(kernel)]
        y = tape.conv(*nodes, stride=stride)
        assert y.value.tobytes() == conv_forward(x, kernel, None, stride).tobytes()
        assert y.slot.parents == tuple(n.slot for n in nodes)
        up = rng.standard_normal(y.value.shape)
        tape.backward(TapeDot(y, up))
        expected = conv_vjp(x, kernel, stride, "same", up)[:2]
        assert [n.grad.tobytes() for n in nodes] == [g.tobytes() for g in expected]

    def test_vjp_rejects_an_upstream_that_does_not_match_the_kernels(self):
        x = np.zeros((4, 4, 2))
        kernels = [np.zeros((3, 3, 2, 3)), np.zeros((3, 3, 2, 1))]
        # the upstream of a list of kernels is that of their joined output
        with pytest.raises(ValueError, match=re.escape("upstream of 3 channels for kernels "
                                                       "of [3, 1] output channels")):
            conv_vjp(x, kernels, 1, "same", np.zeros((4, 4, 3)))
        with pytest.raises(ValueError, match=re.escape("upstream of 2 channels for kernels "
                                                       "of [3] output")):
            conv_vjp(x, kernels[0], 1, "same", np.zeros((4, 4, 2)))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_list_of_kernels_is_bitwise_one_conv_per_kernel_at_any_thread_count(self,
                                                                                  threads):
        # The fused conv must match the separate ones at each thread count:
        # a joined kernel's GEMMs are larger than a single kernel's, and a
        # GEMM that leaves OpenBLAS's small-matrix path sums in another order
        # (see the layers docstring on the kernel gradient's row blocks).
        # Each count needs its own process: OpenBLAS reads it once, at load.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", FUSED_CONV_CHECK], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.split() == ["x", "x+h"]

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_gradcheck(self, stride):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 5, 2))
        kernel = rng.standard_normal((3, 3, 2, 3))
        bias = rng.standard_normal(3)
        up = rng.standard_normal(conv_forward(x, kernel, bias, stride).shape)

        assert_vjp_matches_fd(
            lambda xx: conv_forward(xx, kernel, bias, stride),
            lambda xx, u: conv_vjp(xx, kernel, stride, "same", u)[0], x, up)
        assert_vjp_matches_fd(
            lambda kk: conv_forward(x, kk, bias, stride),
            lambda kk, u: conv_vjp(x, kk, stride, "same", u)[1], kernel, up)
        # conv_vjp leaves the bias gradient to its caller: tape.conv's is checked
        assert_vjp_matches_fd(
            lambda bb: conv_forward(x, kernel, bb, stride),
            lambda bb, u: tape_vjp(lambda b: tape.conv(tape.TapeNode(x), tape.TapeNode(kernel),
                                                       b, stride), bb, u), bias, up)

    def test_conv3d_gradcheck(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 4, 4, 2))
        kernel = rng.standard_normal((3, 3, 3, 2, 2))
        up = rng.standard_normal((4, 4, 4, 2))
        assert_vjp_matches_fd(
            lambda xx: conv_forward(xx, kernel),
            lambda xx, u: conv_vjp(xx, kernel, 1, "same", u)[0], x, up)
        assert_vjp_matches_fd(
            lambda kk: conv_forward(x, kk),
            lambda kk, u: conv_vjp(x, kk, 1, "same", u)[1], kernel, up)


def direct_conv(x, kernel, bias, stride, upstream):
    """conv_forward and the two conv_vjp outputs with "same" padding, summed
    directly at every output position."""
    nd = x.ndim - 1
    kspatial = kernel.shape[:nd]
    pads = [k // 2 for k in kspatial]
    xp = np.pad(x, [(p, p) for p in pads] + [(0, 0)])
    out = [(n - k) // stride + 1 for n, k in zip(xp.shape[:nd], kspatial)]
    y = np.zeros(out + [kernel.shape[-1]])
    grad_xp = np.zeros_like(xp)
    grad_k = np.zeros_like(kernel)
    for pos in np.ndindex(*out):
        window = tuple(slice(i * stride, i * stride + k) for i, k in zip(pos, kspatial))
        y[pos] = np.tensordot(xp[window], kernel, axes=nd + 1) + bias
        grad_xp[window] += np.tensordot(kernel, upstream[pos], axes=1)
        grad_k += np.multiply.outer(xp[window], upstream[pos])
    grad_x = grad_xp[tuple(slice(p, p + n) for p, n in zip(pads, x.shape[:nd]))]
    return y, grad_x, grad_k


class TestConvAtModelChannelCounts:
    @pytest.mark.parametrize("spatial,kernel_shape,stride", [
        ((5, 4, 5), (3, 3, 3, 36, 16), 1),  # a GRU gate over [x, h]
        ((7, 6), (3, 3, 3, 8), 2),          # the strided 2D encoder
        ((4, 3), (1, 1, 256, 128), 1),      # ray_reduce0: one tap, long K
        ((6, 5), (3, 3, 9, 1), 1),          # depth_refine: one output channel
    ])
    def test_forward_and_vjp_match_direct_sums(self, spatial, kernel_shape, stride):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(spatial + kernel_shape[-2:-1])
        kernel = rng.standard_normal(kernel_shape)
        bias = rng.standard_normal(kernel_shape[-1])
        y = conv_forward(x, kernel, bias, stride)
        up = rng.standard_normal(y.shape)
        ref = direct_conv(x, kernel, bias, stride, up)
        for got, want in zip((y, *conv_vjp(x, kernel, stride, "same", up)), ref, strict=True):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    # The kernel gradient sums its rows in blocks of _ROW_BLOCK. A 1-D conv of
    # length n with a 3-tap kernel covers n rows per tap, so these lengths give
    # fewer rows than one block, exactly one and two blocks, and a short last
    # block.
    @pytest.mark.parametrize("spatial,kernel_shape,stride", [
        ((_ROW_BLOCK // 3,), (3, 36, 32), 1),
        ((_ROW_BLOCK,), (3, 36, 32), 1),
        ((2 * _ROW_BLOCK,), (3, 20, 16), 1),
        ((2 * _ROW_BLOCK + 37,), (3, 16, 8), 1),
        ((_ROW_BLOCK,), (3, 36, 16), 2),
        ((2 * _ROW_BLOCK + 37,), (3, 20, 32), 2),
        ((40, 30), (3, 3, 8, 16), 2),       # 1278 rows
        ((9, 10, 11), (3, 3, 3, 36, 16), 1),  # 1376 rows
    ])
    def test_kernel_gradient_matches_einsum(self, spatial, kernel_shape, stride):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(spatial + kernel_shape[-2:-1])
        kernel = rng.standard_normal(kernel_shape)
        up = rng.standard_normal(conv_forward(x, kernel, None, stride).shape)
        nd = len(spatial)
        kspatial = kernel_shape[:nd]
        xp = np.pad(x, [(k // 2, k // 2) for k in kspatial] + [(0, 0)])
        # windows (*out, C_in, *kspatial) at the strided output positions
        windows = np.lib.stride_tricks.sliding_window_view(xp, kspatial, axis=tuple(range(nd)))
        windows = windows[(slice(None, None, stride),) * nd]
        out, taps = "abc"[:nd], "xyz"[:nd]
        want = np.einsum(f"{out}i{taps},{out}o->{taps}io", windows, up)
        got = conv_vjp(x, kernel, stride, "same", up)[1]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_gemm_acc_raises_on_a_buffer_it_cannot_write_in_place(self):
        c = np.zeros((3, 5))  # C-contiguous: dgemm would add into a copy
        with pytest.raises(ValueError, match="in place"):
            _gemm_acc(c, np.ones((3, 4)), np.ones((4, 5)))
        assert not c.any()


class TestInstanceNorm:
    def test_constant_channel_maps_to_shift(self):
        x = np.full((4, 4, 2), 7.0)
        y, _, _ = instance_norm(x, gain=np.ones(2), shift=np.array([0.5, -0.5]))
        np.testing.assert_allclose(y[..., 0], 0.5)
        np.testing.assert_allclose(y[..., 1], -0.5)

    def test_normalizes_mean_and_variance(self):
        # eps = 1e-5 biases the variance by eps/sigma^2; use large-variance
        # data so the claim holds to 1e-6
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 16, 3)) * 100.0
        y, _, _ = instance_norm(x, np.ones(3), np.zeros(3))
        np.testing.assert_allclose(y.mean(axis=(0, 1)), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=(0, 1)), 1.0, atol=1e-6)

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 5, 2))
        gain = rng.standard_normal(2)
        shift = rng.standard_normal(2)
        up = rng.standard_normal((4, 5, 2))
        assert_vjp_matches_fd(
            lambda xx: instance_norm(xx, gain, shift)[0],
            lambda xx, u: norm_vjp("instance_norm", xx, gain, u)[0], x, up)
        assert_vjp_matches_fd(
            lambda gg: instance_norm(x, gg, shift)[0],
            lambda gg, u: norm_vjp("instance_norm", x, gg, u)[1], gain, up)
        assert_vjp_matches_fd(
            lambda ss: instance_norm(x, gain, ss)[0],
            lambda ss, u: norm_vjp("instance_norm", x, gain, u)[2], shift, up)

    @pytest.mark.parametrize("shape", [(6, 5, 4), (5, 4, 6, 3)])
    def test_a_per_channel_bias_cancels(self, shape):
        # why the model's convs that feed an instance norm carry no bias
        rng = np.random.default_rng(6)
        y = rng.standard_normal(shape)
        b = rng.standard_normal(shape[-1])
        gain, shift = rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])
        up = rng.standard_normal(shape)
        np.testing.assert_allclose(instance_norm(y + b, gain, shift)[0],
                                   instance_norm(y, gain, shift)[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(norm_vjp("instance_norm", y + b, gain, up)[0],
                                   norm_vjp("instance_norm", y, gain, up)[0],
                                   rtol=0, atol=1e-12)

    def test_layer_norm_gradcheck(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 3, 3, 4))
        gain = rng.standard_normal(4)
        shift = rng.standard_normal(4)
        up = rng.standard_normal(x.shape)
        assert_vjp_matches_fd(
            lambda xx: layer_norm_channels(xx, gain, shift)[0],
            lambda xx, u: norm_vjp("layer_norm_channels", xx, gain, u)[0], x, up)


class TestPointwise:
    def test_relu(self):
        out = tape_value(tape.relu, np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_vjp_masks_where_the_input_is_positive(self):
        # the VJP reads the output; y > 0 is x > 0 at NaN, signed zeros and infinities
        x = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.0, -1.0])
        u = np.arange(1.0, x.size + 1)
        assert tape_vjp(tape.relu, x, u).tobytes() == np.where(x > 0, u, 0.0).tobytes()

    def test_sigmoid_extremes_stable(self):
        y = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-12)

    def test_softmax_equal_logits(self):
        p = tape_value(tape.softmax_channels, np.zeros((2, 2, 2)))
        np.testing.assert_allclose(p, 0.5)

    def test_softmax_monotone_in_logit_gap(self):
        gaps = np.array([0.0, 1.0, 5.0, 20.0])
        probs = [tape_value(tape.softmax_channels, np.array([0.0, g]))[1] for g in gaps]
        assert all(b > a for a, b in zip(probs, probs[1:]))
        assert probs[-1] > 0.999999

    def test_softmax_gradcheck(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 2))
        up = rng.standard_normal((3, 4, 2))
        assert_vjp_matches_fd(
            lambda xx: tape_value(tape.softmax_channels, xx),
            lambda xx, u: tape_vjp(tape.softmax_channels, xx, u), x, up)

    @pytest.mark.parametrize("channels", [1, 2, 3, 7])
    def test_softmax_bytes_match_the_whole_axis_form(self, channels):
        # the columns' max, left-to-right sums and divide give the bytes of the
        # whole-axis reductions, on non-finite rows too
        rng = np.random.default_rng(channels)
        x = 30 * rng.standard_normal((6, 5, 4, channels))
        x[0, :, :, 0] = np.nan
        x[1, :, :, -1] = np.inf
        x[2, :, :, 0] = -np.inf
        x[3] = -np.inf
        x[4] = np.inf
        x[5, 0] = -0.0
        g = rng.standard_normal(x.shape)
        g[5, 1, :, 0] = np.nan
        with np.errstate(invalid="ignore"):
            m = x.max(axis=-1, keepdims=True)
            e = np.exp(x - m)
            p = e / e.sum(axis=-1, keepdims=True)
            want_grad = p * (g - (g * p).sum(axis=-1, keepdims=True))
            got = tape_value(tape.softmax_channels, x)
            got_grad = tape_vjp(tape.softmax_channels, x, g)
        assert got.tobytes() == p.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()

    def test_upsample_round_trip_vjp(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4, 2))
        up = rng.standard_normal((6, 8, 2))
        assert_vjp_matches_fd(
            lambda xx: tape_value(tape.upsample_nearest, xx, 2),
            lambda xx, u: tape_vjp(lambda n: tape.upsample_nearest(n, 2), xx, u), x, up)


def reference_norm_forward(x, gain, shift, axes):
    """The norm forward as first written, with full-size temporaries."""
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + 1e-5)
    return gain * xhat + shift, xhat, var


def reference_norm_vjp(x, gain, shift, axes, param_axes, upstream):
    _, xhat, var = reference_norm_forward(x, gain, shift, axes)
    grad_gain = (upstream * xhat).sum(axis=param_axes)
    grad_shift = upstream.sum(axis=param_axes)
    g = upstream * gain
    inv_s = 1.0 / np.sqrt(var + 1e-5)
    grad_x = inv_s * (
        g
        - g.mean(axis=axes, keepdims=True)
        - xhat * (g * xhat).mean(axis=axes, keepdims=True)
    )
    return grad_x, grad_gain, grad_shift


def reference_sigmoid(x):
    """The sigmoid as first written, by boolean-mask gather and scatter."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def norm_axes(name, ndim):
    """(normalization axes, gain/shift broadcast axes) of a norm."""
    spatial = tuple(range(ndim - 1))
    return (spatial, spatial) if name == "instance_norm" else ((ndim - 1,), spatial)


NORMS = {"instance_norm": (instance_norm, instance_norm_vjp),
         "layer_norm_channels": (layer_norm_channels, layer_norm_channels_vjp)}


def norm_vjp(name, x, gain, upstream):
    """The norm's VJP at x, from the xhat and variance its forward returns;
    the shift does not reach them."""
    forward, vjp = NORMS[name]
    _, xhat, var = forward(x, gain, np.zeros_like(gain))
    return vjp(xhat, var, gain, upstream)


def traced_peak(func):
    """Peak bytes func() allocates on top of what is live when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        func()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestLeanKernels:
    """Norms and sigmoid with out= buffers are bitwise the plain formulas."""

    @pytest.mark.parametrize("name", sorted(NORMS))
    @pytest.mark.parametrize("shape", [(32, 32, 32, 16), (32, 32, 8)])  # GRU gate, encoder
    def test_norm_bitwise_equal_to_reference(self, name, shape):
        forward, vjp = NORMS[name]
        rng = np.random.default_rng(20)
        x = 3.0 * rng.standard_normal(shape) + 1.0
        gain, shift = rng.standard_normal((2, shape[-1]))
        up = rng.standard_normal(shape)
        axes, param_axes = norm_axes(name, len(shape))
        expected, _, _ = reference_norm_forward(x, gain, shift, axes)
        y, xhat, var = forward(x, gain, shift)
        assert y.tobytes() == expected.tobytes()
        got = vjp(xhat, var, gain, up)
        ref = reference_norm_vjp(x, gain, shift, axes, param_axes, up)
        for a, b, part in zip(got, ref, ("x", "gain", "shift"), strict=True):
            assert a.tobytes() == b.tobytes(), part

    def test_sigmoid_bitwise_equal_to_reference(self):
        rng = np.random.default_rng(21)
        special = np.array([0.0, -0.0, 1000.0, -1000.0, np.inf, -np.inf, 745.5, -745.5])
        x = np.concatenate([30.0 * rng.standard_normal(4096), special])
        assert sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()
        # NaN stays NaN; only its sign bit may change
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()

    @pytest.mark.parametrize("name", sorted(NORMS))
    def test_norm_peak_memory(self, name):
        forward, vjp = NORMS[name]
        rng = np.random.default_rng(22)
        x = rng.standard_normal((16, 16, 16, 16))
        up = rng.standard_normal(x.shape)
        gain, shift = rng.standard_normal((2, 16))
        # the forward writes xhat and the output; the VJP, which reads xhat
        # and the variance in place of x, writes the input gradient and one
        # buffer, where recomputing xhat took a third
        assert traced_peak(lambda: forward(x, gain, shift)) <= 2.5 * x.nbytes
        _, xhat, var = forward(x, gain, shift)
        assert traced_peak(lambda: vjp(xhat, var, gain, up)) <= 3.0 * x.nbytes

    def test_conv_vjp_peak_memory(self):
        # the stride-1 input gradient pads the upstream once, inside conv_forward
        rng = np.random.default_rng(24)
        x = rng.standard_normal((16, 16, 16, 16))
        kernel = rng.standard_normal((3, 3, 3, 16, 16))
        up = rng.standard_normal(x.shape)
        assert traced_peak(lambda: conv_vjp(x, kernel, 1, "same", up)) <= 7.5 * x.nbytes

    def test_sigmoid_peak_memory(self):
        x = np.random.default_rng(23).standard_normal((16, 16, 16, 16))
        assert traced_peak(lambda: sigmoid(x)) <= 2.5 * x.nbytes


def loss(op, pred, *args):
    return float(tape_value(op, pred, *args))


class TestLosses:
    def test_bce_at_half_is_ln2(self):
        p = np.full((4, 4, 4), 0.5)
        y = np.random.default_rng(0).integers(0, 2, (4, 4, 4))
        assert loss(tape.bce, p, y) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_bce_perfect_prediction_small(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert loss(tape.bce, y, y) <= 1e-6

    def test_bce_gradcheck_away_from_clamp(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0.05, 0.95, (3, 3))
        y = rng.integers(0, 2, (3, 3)).astype(float)
        fd = fd_gradient(lambda pp: loss(tape.bce, pp, y), p, step=1e-5)
        assert max_rel_error(tape_vjp(lambda n: tape.bce(n, y), p, 1.0), fd) < 1e-4

    def test_l1_exact_and_offset(self):
        gt = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.ones_like(gt, dtype=bool)
        assert loss(tape.l1_masked, gt, gt, mask) == 0.0
        assert loss(tape.l1_masked, gt + 0.1, gt, mask) == pytest.approx(0.1)

    def test_l1_respects_mask(self):
        gt = np.array([1.0, 1.0])
        pred = np.array([2.0, 1.0])
        assert loss(tape.l1_masked, pred, gt, np.array([True, False])) == pytest.approx(1.0)

    def test_l1_empty_mask_raises(self):
        with pytest.raises(ValueError, match="empty"):
            loss(tape.l1_masked, np.ones(3), np.ones(3), np.zeros(3, dtype=bool))

    def test_l1_gradcheck_off_ties(self):
        rng = np.random.default_rng(9)
        gt = rng.standard_normal((4, 4))
        pred = gt + rng.choice([-1.0, 1.0], (4, 4)) * rng.uniform(0.5, 1.0, (4, 4))
        mask = rng.random((4, 4)) > 0.3
        fd = fd_gradient(lambda pp: loss(tape.l1_masked, pp, gt, mask), pred)
        assert max_rel_error(tape_vjp(lambda n: tape.l1_masked(n, gt, mask), pred, 1.0),
                             fd) < 1e-4

    def test_l1_tie_subgradient_zero(self):
        gt = np.array([1.0, 2.0])
        grad = tape_vjp(lambda n: tape.l1_masked(n, gt, np.ones(2, dtype=bool)), gt.copy(), 1.0)
        np.testing.assert_array_equal(grad, 0.0)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        value = np.array([1.0, -2.0])
        new, m, v = adam_step(value, np.zeros(2), np.zeros(2), np.zeros(2), t=1)
        np.testing.assert_array_equal(new, value)

    def test_first_step_magnitude_is_lr(self):
        value = np.zeros(3)
        grad = np.array([1.0, -2.0, 0.5])
        new, _, _ = adam_step(value, grad, np.zeros(3), np.zeros(3), t=1)
        np.testing.assert_allclose(np.abs(new), LR, rtol=1e-6)
        np.testing.assert_allclose(np.sign(new), -np.sign(grad))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        value = rng.standard_normal(5)
        grad = rng.standard_normal(5)
        a = adam_step(value.copy(), grad, np.zeros(5), np.zeros(5), t=3)
        b = adam_step(value.copy(), grad, np.zeros(5), np.zeros(5), t=3)
        assert a[0].tobytes() == b[0].tobytes()

    def test_step_index_validated(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), t=0)

    def test_step_consumes_every_gradient(self):
        rng = np.random.default_rng(11)
        params = [tape.TapeNode(rng.standard_normal(3)) for _ in range(3)]
        grads = [rng.standard_normal(3), None, rng.standard_normal(3)]
        for p, g in zip(params, grads):
            p.grad = g
        start = [p.value for p in params]
        Adam(params).step()
        for p, x, g in zip(params, start, grads):
            assert p.grad is None
            expected, _, _ = adam_step(x, np.zeros(3) if g is None else g,
                                       np.zeros(3), np.zeros(3), t=1)
            assert p.value.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value_shape,grad_shape", [((4,), (2, 4)), ((3, 4), (4,))])
    def test_step_refuses_a_gradient_of_another_shape(self, value_shape, grad_shape):
        # numpy would broadcast both: the first parameter would become (2, 4),
        # the second would get the same update in every row
        params = [tape.TapeNode(np.ones(3)), tape.TapeNode(np.ones(value_shape))]
        params[0].grad, params[1].grad = np.ones(3), np.ones(grad_shape)
        opt = Adam(params)
        with pytest.raises(ValueError, match=re.escape(
                f"parameter 1: gradient of shape {grad_shape} for a value of shape "
                f"{value_shape}")):
            opt.step()
        assert opt.t == 0 and all((p.value == 1.0).all() for p in params)
