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
of the input and the recurrent term. A tape.concat holds its blocks, not a
joined copy, and each gate conv reads and keeps them for its VJP, so the
graph holds x, h and r * h once each and no concatenation is written; the
blend is tape.lerp(h, c, z), which recomputes 1 - z in its VJP. The gate
parameters are entries of the model's one parameter store, keyed by their
checkpoint names gru.<gate>.kernel, .bias, .ln_gain and .ln_shift for gate
in update, reset and candidate.

The update and reset gates read the same blocks [x, h], so their convs run
as one: tape.conv over the list of both kernels (36 -> 16 + 16 at the
model's widths), whose two results are channel views of the one output,
each normalized by its own gate's layer norm. The parameters stay separate.
The values and every gradient are the bits of one conv per gate: each
output channel of the wider GEMMs sums the same terms in the same order
(a test checks this at 1 and 2 BLAS threads), and the input gradient is
one transposed conv per gate, added, as the separate convs' gradients were
added where they met; a sum of two terms is the same in either order.

The initial hidden state is zeros, and the first step runs none of the
work that multiplies it. With h = 0 the rows [C_in:] of every kernel meet
only zeros and r * h = 0, so the reset gate is dead and the step is

    h1 = z * c,  z = sigmoid(LN_z(conv(x, W_z[..., :C_in, :]) + b_z)),
                 c = tanh(LN_c(conv(x, W_c[..., :C_in, :]) + b_c))

gru_step_node computes this when given h = None, which is how
fuse_recurrent_node starts. Its update and candidate gates both read x
alone, so they too run as one conv: a K-view fold runs 2K - 1 convolutions
and 3K - 1 layer norms, not 3K of each. The kernel rows are taken by
tape.take, whose VJP gives the unused h rows zero gradient, and the reset
gate of a one-view fold gets no gradient at all (None, which Adam reads as
zeros). The terms dropped are products with exact zeros, so at the model's
widths the result and every gradient are bitwise those of the fold from an
explicit zero state; a test pins this, since BLAS may sum a narrower GEMM in
another order.

A gate keeps its bias b: the layer norm, over channels, cancels only b's
mean across channels, not its differences. A gate is still forced open or
closed through the LN shift, which the norm does not rescale.
"""

from __future__ import annotations

import numpy as np

from .nnkit import tape
from .nnkit.layers import he_normal
from .nnkit.tape import TapeNode


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


def _gate_preacts(xh, params, gates, rows=None):
    """LN(conv(xh, W) + b) of each gate, where xh is x or a concat; the
    gates' convs run as one. `rows` keeps only W[..., :rows, :]."""
    kernels = [params[f"gru.{gate}.kernel"] for gate in gates]
    if rows is not None:
        kernels = [tape.take(k, slice(0, rows), axis=3) for k in kernels]
    pre = tape.conv(xh, kernels, [params[f"gru.{gate}.bias"] for gate in gates])
    return [tape.layer_norm_channels(p, params[f"gru.{gate}.ln_gain"],
                                     params[f"gru.{gate}.ln_shift"])
            for p, gate in zip(pre, gates)]


def gru_step_node(h, x, params) -> TapeNode:
    """One recurrent update on tape nodes; params maps gru.<gate>.* names.

    h None is the zero state, from which the update is z * c with the gates
    convolving x alone.
    """
    if h is None:
        z, c = _gate_preacts(x, params, ("update", "candidate"), rows=x.value.shape[-1])
        return tape.mul(tape.sigmoid(z), tape.tanh(c))
    z, r = map(tape.sigmoid, _gate_preacts(tape.concat([x, h]), params, ("update", "reset")))
    c = tape.tanh(*_gate_preacts(tape.concat([x, tape.mul(r, h)]), params, ("candidate",)))
    return tape.lerp(h, c, z)


def fuse_recurrent_node(grids, params) -> TapeNode:
    """Fold gru_step_node over the views in the given order from the zero state."""
    grids = list(grids)
    if not grids:
        raise ValueError("need at least one grid")
    h = None
    for g in grids:
        h = gru_step_node(h, g, params)
    return h
