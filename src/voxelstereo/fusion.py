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
of the input and the recurrent term. The gate parameters are entries of
the model's one parameter store, keyed by their checkpoint names
gru.<gate>.kernel, .bias, .ln_gain and .ln_shift for gate in update, reset
and candidate; the separate w_x / w_h entries of older checkpoints are
rejected as missing that kernel.

The initial hidden state is zeros, and the first step runs none of the
work that multiplies it. With h = 0 the rows [C_in:] of every kernel meet
only zeros and r * h = 0, so the reset gate is dead and the step is

    h1 = z * c,  z = sigmoid(LN_z(conv(x, W_z[..., :C_in, :]) + b_z)),
                 c = tanh(LN_c(conv(x, W_c[..., :C_in, :]) + b_c))

gru_step_node computes this when given h = None, which is how
fuse_recurrent_node starts: a K-view fold runs 3K - 1 gate convolutions and
layer norms, not 3K. The kernel rows are taken by tape.take, whose VJP
gives the unused h rows zero gradient, and the reset gate of a one-view
fold gets no gradient at all (None, which Adam reads as zeros). The terms
dropped are products with exact zeros, so at the model's widths the result
and every gradient are bitwise those of the fold from an explicit zero
state; a test pins this, since BLAS may sum a narrower GEMM in another order.

Note the layer norm removes any constant shift of its input, so a gate is
forced open/closed through the LN shift parameter, not the convolution
bias.
"""

from __future__ import annotations

import numpy as np

from .nnkit import tape
from .nnkit.tape import Parameter, TapeNode


def init_gru_params(c_in, c_hidden, rng) -> dict[str, Parameter]:
    """{gru.<gate>.<kernel|bias|ln_gain|ln_shift>: Parameter} of one cell.

    He-initialized kernels, zero biases, unit layer-norm gains; each gate's
    x rows and h rows are He-scaled by their own fan-in.
    """
    values = {}
    for gate in ("update", "reset", "candidate"):
        w_x = rng.standard_normal((3, 3, 3, c_in, c_hidden)) * np.sqrt(2.0 / (27 * c_in))
        w_h = rng.standard_normal((3, 3, 3, c_hidden, c_hidden)) * np.sqrt(2.0 / (27 * c_hidden))
        values[f"gru.{gate}.kernel"] = np.concatenate([w_x, w_h], axis=3)
        values[f"gru.{gate}.bias"] = np.zeros(c_hidden)
        values[f"gru.{gate}.ln_gain"] = np.ones(c_hidden)
        values[f"gru.{gate}.ln_shift"] = np.zeros(c_hidden)
    return {name: Parameter(value, name) for name, value in values.items()}


def _gate_preact(xh, params, gate, rows=None):
    """LN(conv(xh, W) + b) of one gate; `rows` keeps only W[..., :rows, :]."""
    p = f"gru.{gate}."
    kernel = params[p + "kernel"]
    if rows is not None:
        kernel = tape.take(kernel, slice(0, rows), axis=3)
    return tape.layer_norm_channels(tape.conv(xh, kernel, params[p + "bias"]),
                                    params[p + "ln_gain"], params[p + "ln_shift"])


def gru_step_node(h, x, params) -> TapeNode:
    """One recurrent update on tape nodes; params maps gru.<gate>.* names.

    h None is the zero state, from which the update is z * c with the gates
    convolving x alone.
    """
    x = tape.as_node(x)
    if h is None:
        c_in = x.value.shape[-1]
        z = tape.sigmoid(_gate_preact(x, params, "update", rows=c_in))
        c = tape.tanh(_gate_preact(x, params, "candidate", rows=c_in))
        return tape.mul(z, c)
    h = tape.as_node(h)
    xh = tape.concat([x, h])
    z = tape.sigmoid(_gate_preact(xh, params, "update"))
    r = tape.sigmoid(_gate_preact(xh, params, "reset"))
    c = tape.tanh(_gate_preact(tape.concat([x, tape.mul(r, h)]), params, "candidate"))
    return tape.add(tape.mul(tape.one_minus(z), h), tape.mul(z, c))


def fuse_recurrent_node(grids, params) -> TapeNode:
    """Fold gru_step_node over the views in the given order from the zero state."""
    grids = list(grids)
    if not grids:
        raise ValueError("need at least one grid")
    h = None
    for g in grids:
        h = gru_step_node(h, g, params)
    return h


def ordering_variance(grids, params, n_orders=5, seed=0):
    """Max voxel deviation of the fused grid across random view orderings.

    Low variance with respect to ordering is a trained property, so this is
    a diagnostic, not an invariant.
    """
    grids = list(grids)
    rng = np.random.default_rng(seed)
    baseline = fuse_recurrent_node(grids, params).value
    worst = 0.0
    for _ in range(n_orders):
        perm = rng.permutation(len(grids))
        out = fuse_recurrent_node([grids[i] for i in perm], params).value
        worst = max(worst, float(np.abs(out - baseline).max()))
    return worst
