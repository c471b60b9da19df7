"""Fusing per-view feature grids into a single grid.

Two routes: the exactly permutation-invariant pointwise mean, which lives
in tape.mean_stack, and the 3D convolutional gated recurrent unit here,
which folds the views in sequence. GRU gates are same-padded 3x3x3
convolutions over the channel concatenation of input and state, with
pre-activations layer-normalized over channels per voxel:

    z  = sigmoid(LN_z(conv([x, h], W_z) + b_z))
    r  = sigmoid(LN_r(conv([x, h], W_r) + b_r))
    c  = tanh(LN_c(conv([x, r * h], W_c) + b_c))
    h' = (1 - z) * h + z * c

Each gate kernel W has shape (3, 3, 3, C_in + C_h, C_h): rows [:C_in] act
on x and rows [C_in:] on h (or r * h), so one convolution computes the sum
of the input and the recurrent term. The conv reads the channel blocks
[x, h] as they are, so no concatenation is written. The gate parameters
are entries of the model's one parameter store, keyed by their checkpoint
names gru.<gate>.kernel, .bias, .ln_gain and .ln_shift for gate in update,
reset and candidate.

gru_step_node records each step as one tape op, whose VJP is written out
here. The op holds h and, for each gate, the normalized pre-activation
xhat and its variance that layers.layer_norm_channels returns: 17.6 MB a
step at 32^3 and the model's widths. It holds no conv output and none of
z, r, c or r * h. In place of x it holds tape.recall(x): for a recorded
tape.unproject, the model's case, a rebuild that unprojects the view's
feature map again (one 32^3 unproject, some 4 ms), so the step keeps no
5.2 MB grid alive; for any other node, x's value. The VJP rebuilds z, r
and c from xhat (gain * xhat + shift, then sigmoid or tanh: the forward's
bits), x where it first reads it, and r * h from r and h; it hands xhat
and the variance to layers.layer_norm_channels_vjp and the blocks to
layers.conv_vjp, and drops each array once it has read it, its cotangent
too, so its working set shrinks as it goes. Only elementwise work and the
unproject are recomputed; no conv runs twice.

The value and every gradient are the bits of the graph of separate tape
ops (sigmoid, tanh, mul, lerp, a concat, a conv per gate) that the op
replaces; a test pins this. Each term is computed as that graph's op
computed it, and each sum adds the same terms in the same order: h's
gradient is (the blend's term + the r * h term) + the gate convs' term,
x's the sum of its two convs' terms, and each parameter gets one term per
step, which backward adds from the last step to the first.

The update and reset gates read the same blocks [x, h], so their convs run
as one: layers.conv_forward over the list of both kernels (36 -> 16 + 16 at
the model's widths), each gate's layer norm reading its channels of the one
output, and one conv_vjp over the cotangent of that joined output. The
parameters stay separate. The values and every gradient are the bits of
one conv per gate: each output channel of the wider GEMMs sums the same
terms in the same order (a test checks this at 1 and 2 BLAS threads), and
the input gradient is one transposed conv per gate, added, as the separate
convs' gradients were added where they met; a sum of two terms is the same
in either order.

The initial hidden state is zeros, and the first step runs none of the
work that multiplies it. With h = 0 the rows [C_in:] of every kernel meet
only zeros and r * h = 0, so the reset gate is dead and the step is

    h1 = z * c,  z = sigmoid(LN_z(conv(x, W_z[..., :C_in, :]) + b_z)),
                 c = tanh(LN_c(conv(x, W_c[..., :C_in, :]) + b_c))

gru_step_node computes this when given h = None, which is how
fuse_recurrent_node starts. Its update and candidate gates both read x
alone, so they too run as one conv: a K-view fold runs 2K - 1 convolutions
and 3K - 1 layer norms, not 3K of each. Its VJP gives the unused h rows of
each kernel zero gradient, and the reset gate of a one-view fold gets no
gradient at all (None, which Adam reads as zeros). The terms dropped are
products with exact zeros, so at the model's widths the result and every
gradient are bitwise those of the fold from an explicit zero state; a test
pins this, since BLAS may sum a narrower GEMM in another order.

A gate keeps its bias b: the layer norm, over channels, cancels only b's
mean across channels, not its differences. A gate is still forced open or
closed through the LN shift, which the norm does not rescale.
"""

from __future__ import annotations

import numpy as np

from .nnkit import layers
from .nnkit.layers import he_normal
from .nnkit.tape import TapeNode, recall


def init_gru_params(c_in, c_hidden, rng) -> dict[str, TapeNode]:
    """{gru.<gate>.<kernel|bias|ln_gain|ln_shift>: leaf node} of one cell.

    He-initialized kernels, zero biases, unit layer-norm gains; each gate's
    x rows and h rows are He-scaled by their own fan-in.
    """
    params = {}
    for gate in ("update", "reset", "candidate"):
        w_x = he_normal(rng, (3, 3, 3, c_in, c_hidden))
        w_h = he_normal(rng, (3, 3, 3, c_hidden, c_hidden))
        params[f"gru.{gate}.kernel"] = TapeNode(np.concatenate([w_x, w_h], axis=3))
        params[f"gru.{gate}.bias"] = TapeNode(np.zeros(c_hidden))
        params[f"gru.{gate}.ln_gain"] = TapeNode(np.ones(c_hidden))
        params[f"gru.{gate}.ln_shift"] = TapeNode(np.zeros(c_hidden))
    return params


_FIELDS = ("kernel", "bias", "ln_gain", "ln_shift")


def _gates(xs, params, gates, rows=None):
    """Each gate's LN(conv(xs, W) + b), the gates' convs run as one over xs
    (x, or the blocks [x, h]); `rows` keeps only W[..., :rows, :].

    Returns the gates' parameter nodes, then one (kernel, ln_gain, ln_shift,
    LN output, xhat, var) per gate, with the kernel as the conv read it.
    """
    nodes = [params[f"gru.{gate}.{field}"] for gate in gates for field in _FIELDS]
    kernels, biases, gains, shifts = ([n.value for n in nodes[i::len(_FIELDS)]]
                                     for i in range(len(_FIELDS)))
    kernels = [k[..., :rows, :] for k in kernels]
    pre = layers.conv_forward(xs, kernels, biases)
    width = pre.shape[-1] // len(gates)
    return nodes, [(k, gain, shift,
                    *layers.layer_norm_channels(pre[..., i * width:(i + 1) * width], gain, shift))
                   for i, (k, gain, shift) in enumerate(zip(kernels, gains, shifts))]


def _activation(f, xhat, gain, shift):
    """f of a gate's layer-norm output, rebuilt from xhat: the forward's bits."""
    n = np.multiply(gain, xhat)
    n += shift
    return f(n)


def gru_step_node(h, x, params) -> TapeNode:
    """One recurrent update as one tape op; params maps gru.<gate>.* names.

    h None is the zero state, from which the update is z * c with the gates
    convolving x alone. The op's parents are x, h and each gate's kernel,
    bias, ln_gain and ln_shift.
    """
    if h is None:
        return _zero_state_step(x, params)
    xv, hv = x.value, h.value
    c_in = xv.shape[-1]
    zr_nodes, ((k_z, gain_z, shift_z, z, xhat_z, var_z),
               (k_r, gain_r, shift_r, r, xhat_r, var_r)) = _gates([xv, hv], params,
                                                                 ("update", "reset"))
    z, r = layers.sigmoid(z), layers.sigmoid(r)
    c_nodes, ((k_c, gain_c, shift_c, c, xhat_c, var_c),) = _gates([xv, r * hv], params,
                                                                   ("candidate",))
    del r
    c = np.tanh(c, out=c)
    out = (1.0 - z) * hv + z * c
    saved = [recall(x), hv, xhat_z, var_z, xhat_r, var_r, xhat_c, var_c]

    def vjp(g):
        # each array is dropped once read, g too, which backward hands over;
        # each term and sum is the one the separate ops' graph made
        get_x, h, xhat_z, var_z, xhat_r, var_r, xhat_c, var_c = saved
        saved.clear()
        z = _activation(layers.sigmoid, xhat_z, gain_z, shift_z)
        c = _activation(np.tanh, xhat_c, gain_c, shift_c)
        grad_h = g * (1.0 - z)  # the blend (1 - z) * h + z * c
        grad_c = g * z
        grad_z = g * c - g * h
        del g
        grad_z *= z  # sigmoid
        grad_z *= 1.0 - z
        del z
        grad_c *= 1.0 - c * c  # tanh
        del c
        grad_z, grad_gain_z, grad_shift_z = layers.layer_norm_channels_vjp(
            xhat_z, var_z, gain_z, grad_z)
        del xhat_z, var_z
        grad_c, grad_gain_c, grad_shift_c = layers.layer_norm_channels_vjp(
            xhat_c, var_c, gain_c, grad_c)
        del xhat_c, var_c
        r = _activation(layers.sigmoid, xhat_r, gain_r, shift_r)
        x = get_x()
        grad_xrh, (grad_k_c,), (grad_b_c,) = layers.conv_vjp([x, r * h], [k_c], 1, "same",
                                                            grad_c)
        del grad_c
        grad_rh = grad_xrh[..., c_in:]
        grad_h += grad_rh * r  # r * h
        grad_r = grad_rh * h
        grad_x = grad_xrh[..., :c_in].copy()  # so the r * h part is freed
        del grad_rh, grad_xrh
        grad_r *= r  # sigmoid
        grad_r *= 1.0 - r
        del r
        grad_r, grad_gain_r, grad_shift_r = layers.layer_norm_channels_vjp(
            xhat_r, var_r, gain_r, grad_r)
        del xhat_r, var_r
        # the gates' one conv takes the cotangent of its joined output
        grad_zr = np.concatenate([grad_z, grad_r], axis=-1)
        del grad_z, grad_r
        grad_xh, (grad_k_z, grad_k_r), (grad_b_z, grad_b_r) = layers.conv_vjp(
            [x, h], [k_z, k_r], 1, "same", grad_zr)
        grad_x += grad_xh[..., :c_in]
        grad_h += grad_xh[..., c_in:]
        return (grad_x, grad_h,
                grad_k_z, grad_b_z, grad_gain_z, grad_shift_z,
                grad_k_r, grad_b_r, grad_gain_r, grad_shift_r,
                grad_k_c, grad_b_c, grad_gain_c, grad_shift_c)

    return TapeNode(out, (x, h, *zr_nodes, *c_nodes), vjp)


def _zero_state_step(x, params):
    """gru_step_node from h = 0: z * c, with the update and candidate gates
    convolving x alone through the x rows of their kernels."""
    xv = x.value
    c_in = xv.shape[-1]
    nodes, ((k_z, gain_z, shift_z, z, xhat_z, var_z),
            (k_c, gain_c, shift_c, c, xhat_c, var_c)) = _gates(xv, params,
                                                               ("update", "candidate"),
                                                               rows=c_in)
    z = layers.sigmoid(z)
    c = np.tanh(c, out=c)
    out = z * c
    saved = [recall(x), xhat_z, var_z, xhat_c, var_c]
    shape = params["gru.update.kernel"].value.shape  # all three gate kernels share it

    def vjp(g):
        get_x, xhat_z, var_z, xhat_c, var_c = saved
        saved.clear()
        z = _activation(layers.sigmoid, xhat_z, gain_z, shift_z)
        c = _activation(np.tanh, xhat_c, gain_c, shift_c)
        grad_z = g * c  # z * c
        grad_c = g * z
        del g
        grad_z *= z  # sigmoid
        grad_z *= 1.0 - z
        del z
        grad_c *= 1.0 - c * c  # tanh
        del c
        grad_z, grad_gain_z, grad_shift_z = layers.layer_norm_channels_vjp(
            xhat_z, var_z, gain_z, grad_z)
        del xhat_z, var_z
        grad_c, grad_gain_c, grad_shift_c = layers.layer_norm_channels_vjp(
            xhat_c, var_c, gain_c, grad_c)
        del xhat_c, var_c
        # the gates' one conv takes the cotangent of its joined output
        grad_zc = np.concatenate([grad_z, grad_c], axis=-1)
        del grad_z, grad_c
        grad_x, grad_ks, (grad_b_z, grad_b_c) = layers.conv_vjp(get_x(), [k_z, k_c], 1,
                                                                "same", grad_zc)
        # the h rows of each kernel met only zeros: their gradient is zero
        grad_k_z, grad_k_c = np.zeros(shape), np.zeros(shape)
        grad_k_z[..., :c_in, :], grad_k_c[..., :c_in, :] = grad_ks
        return (grad_x, grad_k_z, grad_b_z, grad_gain_z, grad_shift_z,
                grad_k_c, grad_b_c, grad_gain_c, grad_shift_c)

    return TapeNode(out, (x, *nodes), vjp)


def fuse_recurrent_node(grids, params) -> TapeNode:
    """Fold gru_step_node over the views in the given order from the zero state.

    grids may be any iterable, read once and lazily: the fold drops each grid
    node once its step is recorded, before it asks for the next, so a
    generator that unprojects one view at a time has one grid alive at once.
    """
    h = None
    for g in grids:
        h = gru_step_node(h, g, params)
        del g
    if h is None:
        raise ValueError("need at least one grid")
    return h
