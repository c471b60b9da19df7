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
reset and candidate. A gate keeps its bias b: the layer norm, over
channels, cancels only b's mean across channels, not its differences.

gru_step_node records each step as one tape op, whose VJP is written out
here. The op holds h and each gate's normalized pre-activation xhat and
its variance (17.6 MB a step at 32^3 and the model's widths), and none of
the conv outputs, z, r, c or r * h. In place of x it holds tape.recall(x):
for a recorded tape.unproject, the model's case, a rebuild that unprojects
the view's feature map again (some 4 ms at 32^3), so the step keeps no
5.2 MB grid alive. The VJP rebuilds x where it first reads it and r * h
from r and h, and drops each array once read, its cotangent too. Only
elementwise work and the unproject are recomputed; no conv runs twice.

The gate rule is written once, for both step ops. _gates runs the gates'
one conv, then each gate's layer norm and f (sigmoid; tanh for the
candidate), and keeps a state per gate: f, the kernel as the conv read it,
ln_gain, ln_shift, xhat and var. _activation rebuilds f's output from it,
the forward's bits. _gate_vjp is the gate's backward to its conv output:
f's derivative, layers.layer_norm_channels_vjp and the bias gradient (that
cotangent summed over positions); it drops xhat and var once read. A
step's VJP writes only the blend, the r * h chain, which convs run as one,
and the zero gradient of the kernel rows the zero state never used.

The value and every gradient are the bits of the graph of separate tape
ops (sigmoid, tanh, mul, lerp, a joined concatenation, a conv per gate)
that the op replaces; a test pins this. Each term is computed as that graph's op
computed it, and each sum adds the same terms in the same order: h's
gradient is (the blend's term + the r * h term) + the gate convs' term,
x's the sum of its two convs' terms, and each parameter gets one term per
step, which backward adds from the last step to the first.

The update and reset gates read the same blocks [x, h], so their convs run
as one conv_forward over both kernels (36 -> 16 + 16 at the model's
widths), each gate's layer norm reading its channels of the output, and
one conv_vjp over the cotangent of that joined output. The values and
every gradient are the bits of one conv per gate: each output channel of
the wider GEMMs sums the same terms in the same order (a test checks this
at 1 and 2 BLAS threads), and the input gradient is one transposed conv
per gate, added, as the separate convs' gradients were.

The initial hidden state is zeros, and the first step runs none of the
work that multiplies it. With h = 0 the rows [C_in:] of every kernel meet
only zeros and r * h = 0, so the reset gate is dead and the step is

    h1 = z * c,  z = sigmoid(LN_z(conv(x, W_z[..., :C_in, :]) + b_z)),
                 c = tanh(LN_c(conv(x, W_c[..., :C_in, :]) + b_c))

gru_step_node computes this when given h = None, as fuse_recurrent_node
starts. Its update and candidate gates both read x alone, so they too run
as one conv: a K-view fold runs 2K - 1 convolutions and 3K - 1 layer
norms, not 3K of each. The reset gate of a one-view fold gets no gradient
(None, which Adam reads as zeros). The terms dropped are products with
exact zeros, so at the model's widths the result and every gradient are
bitwise those of the fold from an explicit zero state; a test pins this,
since BLAS may sum a narrower GEMM in another order.
"""

from __future__ import annotations

from types import SimpleNamespace

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


def _tanh(n):
    return np.tanh(n, out=n)


def _gates(xs, params, gates, rows=None):
    """The gates' parameter nodes, then each gate's f(LN(conv(xs, W) + b))
    and state, the gates' convs run as one over xs (x, or the blocks [x, h]);
    `rows` keeps only W[..., :rows, :]."""
    nodes = [params[f"gru.{gate}.{field}"] for gate in gates for field in _FIELDS]
    kernels, biases, gains, shifts = ([n.value for n in nodes[i::len(_FIELDS)]]
                                     for i in range(len(_FIELDS)))
    kernels = [k[..., :rows, :] for k in kernels]
    pre = layers.conv_forward(xs, kernels, biases)
    out = []
    for gate, k, gain, shift, p in zip(gates, kernels, gains, shifts,
                                       np.split(pre, len(gates), axis=-1)):
        n, xhat, var = layers.layer_norm_channels(p, gain, shift)
        f = _tanh if gate == "candidate" else layers.sigmoid
        out.append((f(n), SimpleNamespace(f=f, kernel=k, gain=gain, shift=shift, xhat=xhat,
                                          var=var)))
    return nodes, out


def _activation(state):
    """A gate's activation, rebuilt from its state's xhat: the forward's bits."""
    n = np.multiply(state.gain, state.xhat)
    n += state.shift
    return state.f(n)


def _gate_vjp(grad, a, state):
    """(conv output's cotangent, (bias's, ln_gain's, ln_shift's)) of a gate from
    grad, its activation a's, which it overwrites; drops the state's xhat and var."""
    if state.f is _tanh:
        grad *= 1.0 - a * a
    else:  # sigmoid
        grad *= a
        grad *= 1.0 - a
    grad, grad_gain, grad_shift = layers.layer_norm_channels_vjp(state.xhat, state.var,
                                                                 state.gain, grad)
    del state.xhat, state.var
    return grad, (grad.reshape(-1, grad.shape[-1]).sum(axis=0), grad_gain, grad_shift)


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
    zr_nodes, ((z, st_z), (r, st_r)) = _gates([xv, hv], params, ("update", "reset"))
    c_nodes, ((c, st_c),) = _gates([xv, r * hv], params, ("candidate",))
    del r
    out = (1.0 - z) * hv + z * c
    saved = [recall(x), hv, st_z, st_r, st_c]

    def vjp(g):
        # each array is dropped once read, g too, which backward hands over;
        # each term and sum is the one the separate ops' graph made
        get_x, h, st_z, st_r, st_c = saved
        saved.clear()
        z, c = _activation(st_z), _activation(st_c)
        grad_h = g * (1.0 - z)  # the blend (1 - z) * h + z * c
        grad_c = g * z
        grad_z = g * c - g * h
        del g
        grad_z, grads_z = _gate_vjp(grad_z, z, st_z)
        del z
        grad_c, grads_c = _gate_vjp(grad_c, c, st_c)
        del c
        r = _activation(st_r)
        x = get_x()
        grad_xrh, grad_k_c = layers.conv_vjp([x, r * h], st_c.kernel, 1, "same", grad_c)
        del grad_c
        grad_rh = grad_xrh[..., c_in:]
        grad_h += grad_rh * r  # r * h
        grad_r = grad_rh * h
        grad_x = grad_xrh[..., :c_in].copy()  # so the r * h part is freed
        del grad_rh, grad_xrh
        grad_r, grads_r = _gate_vjp(grad_r, r, st_r)
        del r
        # the gates' one conv takes the cotangent of its joined output
        grad_zr = np.concatenate([grad_z, grad_r], axis=-1)
        del grad_z, grad_r
        grad_xh, (grad_k_z, grad_k_r) = layers.conv_vjp([x, h], [st_z.kernel, st_r.kernel],
                                                        1, "same", grad_zr)
        grad_x += grad_xh[..., :c_in]
        grad_h += grad_xh[..., c_in:]
        return (grad_x, grad_h, grad_k_z, *grads_z, grad_k_r, *grads_r, grad_k_c, *grads_c)

    return TapeNode(out, (x, h, *zr_nodes, *c_nodes), vjp)


def _zero_state_step(x, params):
    """gru_step_node from h = 0: z * c, with the update and candidate gates
    convolving x alone through the x rows of their kernels."""
    xv = x.value
    c_in = xv.shape[-1]
    nodes, ((z, st_z), (c, st_c)) = _gates(xv, params, ("update", "candidate"), rows=c_in)
    out = z * c
    saved = [recall(x), st_z, st_c]
    shape = params["gru.update.kernel"].value.shape  # all three gate kernels share it

    def vjp(g):
        get_x, st_z, st_c = saved
        saved.clear()
        z, c = _activation(st_z), _activation(st_c)
        grad_z = g * c  # z * c
        grad_c = g * z
        del g
        grad_z, grads_z = _gate_vjp(grad_z, z, st_z)
        del z
        grad_c, grads_c = _gate_vjp(grad_c, c, st_c)
        del c
        # the gates' one conv takes the cotangent of its joined output
        grad_zc = np.concatenate([grad_z, grad_c], axis=-1)
        del grad_z, grad_c
        grad_x, grad_ks = layers.conv_vjp(get_x(), [st_z.kernel, st_c.kernel], 1, "same", grad_zc)
        # the h rows of each kernel met only zeros: their gradient is zero
        grad_k_z, grad_k_c = np.zeros(shape), np.zeros(shape)
        grad_k_z[..., :c_in, :], grad_k_c[..., :c_in, :] = grad_ks
        return (grad_x, grad_k_z, *grads_z, grad_k_c, *grads_c)

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
