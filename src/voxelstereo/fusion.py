"""Fusing per-view feature grids into a single grid.

Two routes: exactly permutation-invariant pointwise pooling (max / mean),
and a 3D convolutional gated recurrent unit that folds the views in
sequence. GRU gates are same-padded 3x3x3 convolutions over the channel
concatenation of input and state, with pre-activations layer-normalized
over channels per voxel:

    z  = sigmoid(LN_z(conv([x, h], W_z) + b_z))
    r  = sigmoid(LN_r(conv([x, h], W_r) + b_r))
    c  = tanh(LN_c(conv([x, r * h], W_c) + b_c))
    h' = (1 - z) * h + z * c

Each gate kernel W has shape (3, 3, 3, C_in + C_h, C_h): rows [:C_in] act
on x and rows [C_in:] on h (or r * h), so one convolution computes the sum
of the input and the recurrent term. Checkpoints store it as
gru.<gate>.kernel; the separate w_x / w_h entries of older checkpoints are
rejected as missing that kernel.

Note the layer norm removes any constant shift of its input, so a gate is
forced open/closed through the LN shift parameter, not the convolution
bias. The initial hidden state is zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .nnkit import tape
from .nnkit.tape import Parameter, TapeNode


def fuse_pointwise(grids, mode="max"):
    """Elementwise max or mean over view grids; bitwise permutation-invariant.

    The mean sorts the per-voxel summands before accumulating, so any input
    ordering produces identical bits.
    """
    grids = list(grids)
    if not grids:
        raise ValueError("need at least one grid")
    shapes = {g.shape for g in grids}
    if len(shapes) > 1:
        raise ValueError(f"grids disagree on shape: {shapes}")
    stacked = np.stack([np.asarray(g, dtype=np.float64) for g in grids])
    if mode == "max":
        return stacked.max(axis=0)
    if mode == "mean":
        return np.sort(stacked, axis=0).sum(axis=0) / len(grids)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class GateParams:
    kernel: Parameter   # (3, 3, 3, C_in + C_h, C_h): x rows, then h rows
    bias: Parameter     # (C_h,)
    ln_gain: Parameter  # (C_h,)
    ln_shift: Parameter  # (C_h,)


@dataclass
class GruCellParams:
    update: GateParams
    reset: GateParams
    candidate: GateParams

    @property
    def hidden_channels(self) -> int:
        return self.update.kernel.value.shape[4]

    def parameters(self) -> list[Parameter]:
        out = []
        for gate in (self.update, self.reset, self.candidate):
            out.extend(getattr(gate, f.name) for f in fields(gate))
        return out


def init_gru_params(c_in, c_hidden, rng=None) -> GruCellParams:
    """He-initialized kernels, zero biases, unit layer-norm gains.

    Each gate's x rows and h rows are He-scaled by their own fan-in.
    """
    rng = rng if rng is not None else np.random.default_rng(0)

    def gate(name):
        w_x = rng.standard_normal((3, 3, 3, c_in, c_hidden)) * np.sqrt(2.0 / (27 * c_in))
        w_h = rng.standard_normal((3, 3, 3, c_hidden, c_hidden)) * np.sqrt(2.0 / (27 * c_hidden))
        return GateParams(
            kernel=Parameter(np.concatenate([w_x, w_h], axis=3), f"gru.{name}.kernel"),
            bias=Parameter(np.zeros(c_hidden), f"gru.{name}.bias"),
            ln_gain=Parameter(np.ones(c_hidden), f"gru.{name}.ln_gain"),
            ln_shift=Parameter(np.zeros(c_hidden), f"gru.{name}.ln_shift"),
        )

    return GruCellParams(update=gate("update"), reset=gate("reset"), candidate=gate("candidate"))


def _gate_preact(xh, gate: GateParams):
    return tape.layer_norm_channels(tape.conv(xh, gate.kernel, gate.bias),
                                    gate.ln_gain, gate.ln_shift)


def gru_step_node(h, x, params: GruCellParams) -> TapeNode:
    """One recurrent update on tape nodes."""
    h, x = tape.as_node(h), tape.as_node(x)
    xh = tape.concat([x, h])
    z = tape.sigmoid(_gate_preact(xh, params.update))
    r = tape.sigmoid(_gate_preact(xh, params.reset))
    c = tape.tanh(_gate_preact(tape.concat([x, tape.mul(r, h)]), params.candidate))
    return tape.add(tape.mul(tape.one_minus(z), h), tape.mul(z, c))


def fuse_recurrent_node(grids, params: GruCellParams) -> TapeNode:
    """Fold gru_step_node over the views in the given order from a zero state."""
    grids = list(grids)
    if not grids:
        raise ValueError("need at least one grid")
    v = tape.as_node(grids[0]).value.shape[0]
    h = tape.as_node(np.zeros((v, v, v, params.hidden_channels)))
    for g in grids:
        h = gru_step_node(h, g, params)
    return h


def ordering_variance(grids, params: GruCellParams, n_orders=5, seed=0):
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
