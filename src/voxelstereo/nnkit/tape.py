"""Reverse-mode differentiation over the package's fixed operator set.

Every operation below takes tape nodes, computes its value eagerly and
records one VJP: a function from the node's cotangent to the cotangents of
all its parents, in parent order. An input that is not learned, an image or
a constant, enters as a leaf TapeNode(x); only arguments that are not
differentiated (a target, a mask, a camera, a scale) stay plain values.

The graph links slots, not nodes: a node is its value plus its slot, and a
slot holds only its parents' slots, its VJP and its cotangent. So once a
forward returns, the graph keeps alive exactly the arrays the VJP closures
captured; an intermediate value no VJP reads (a norm output that feeds
sigmoid, a grid that only enters a concat) is freed as soon as the caller
drops its node. backward() consumes the graph: it runs each slot's VJP once,
in anti-topological order, adds gradients at fan-out and unlinks each slot
as it goes, so a second backward over the same root reaches only it.

Each op's forward and VJP are written in the op itself, except conv and the
two norms: they keep their array math in nnkit.layers, where the benchmark's
tracer finds them by name, and their ops here only record it on the tape.
unproject and project likewise call diffops.

This is not a general autodiff system: only the operators defined here are
composable, which is all the toy pipelines need: conv is same-padded and
project samples the nearest voxel.
"""

from __future__ import annotations

import numpy as np

from .. import diffops
from . import layers


class _Slot:
    """A node's place in the graph: its parents' slots, its VJP and its cotangent.

    vjp(g) maps the cotangent g to a sequence holding one cotangent per
    parent, in the order of `parents`. A slot never references its node or
    any node's value, so the graph holds only what the VJPs capture.
    """

    __slots__ = ("parents", "vjp", "grad")

    def __init__(self, parents, vjp):
        self.parents = parents
        self.vjp = vjp
        self.grad = None


class TapeNode:
    """A value plus its slot in the graph.

    TapeNode(value, parents, vjp) records an op whose VJP maps the node's
    cotangent to one cotangent per parent node, in order; the slot keeps the
    parents' slots, not the parents. Leaves, a model's parameters and its
    input images among them, are TapeNode(x): an empty slot, and the value is
    x as float64; grad accumulates until Adam.step uses it.
    """

    __slots__ = ("value", "slot")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.slot = _Slot(tuple(p.slot for p in parents), vjp)

    @property
    def grad(self):
        return self.slot.grad

    @grad.setter
    def grad(self, g):
        self.slot.grad = g


def backward(root: TapeNode) -> None:
    """Add the gradient of `root` (seeded with ones) to every reachable leaf's .grad.

    Consumes the graph: a slot with parents loses them, its VJP and its
    cotangent as the sweep reaches it, so what only the graph held is freed.
    """
    order = []
    seen = set()
    stack = [(root.slot, False)]
    while stack:
        slot, expanded = stack.pop()
        if expanded:
            order.append(slot)
            continue
        if id(slot) in seen:
            continue
        seen.add(id(slot))
        stack.append((slot, True))
        for parent in slot.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones_like(root.value)
    while order:
        slot = order.pop()
        if slot.parents:
            for parent, g in zip(slot.parents, slot.vjp(slot.grad), strict=True):
                parent.grad = g if parent.grad is None else parent.grad + g
            slot.parents, slot.vjp, slot.grad = (), None, None


# --- arithmetic -------------------------------------------------------------

def add(a, b):
    return TapeNode(a.value + b.value, (a, b), lambda g: (g, g))


def mul(a, b):
    av, bv = a.value, b.value
    return TapeNode(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(a, s: float):
    return TapeNode(a.value * s, (a,), lambda g: (g * s,))


def one_minus(a):
    return TapeNode(1.0 - a.value, (a,), lambda g: (-g,))


def concat(nodes):
    """Concatenation along the last (channel) axis."""
    splits = np.cumsum([n.value.shape[-1] for n in nodes])[:-1]
    return TapeNode(np.concatenate([n.value for n in nodes], axis=-1), tuple(nodes),
                    lambda g: np.split(g, splits, axis=-1))


def take(a, index, axis):
    """a's entries at `index` (an int or a slice) along `axis`; the VJP puts
    the cotangent there and zeros everywhere else."""
    shape = a.value.shape
    key = (slice(None),) * (axis % len(shape)) + (index,)

    def vjp(g):
        out = np.zeros(shape)
        out[key] = g
        return (out,)

    return TapeNode(a.value[key], (a,), vjp)


# --- activations and norms ---------------------------------------------------

def relu(a):
    x = a.value
    return TapeNode(np.maximum(x, 0.0), (a,), lambda g: (np.where(x > 0, g, 0.0),))


def sigmoid(a):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    never overflows: both are e' / (1 + e) with e = exp(-|x|), where e' is 1
    for x >= 0 and e below. Both branches are evaluated over the whole array
    instead of gathered and scattered by a boolean mask, which gives the same
    bits."""
    x = a.value
    e = np.abs(x, dtype=np.float64)
    np.exp(np.negative(e, out=e), out=e)
    s = 1.0 + e
    np.copyto(e, 1.0, where=x >= 0)
    np.divide(e, s, out=s)
    return TapeNode(s, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(a):
    t = np.tanh(a.value)
    return TapeNode(t, (a,), lambda g: (g * (1.0 - t * t),))


def instance_norm(x, gain, shift):
    xv, gv = x.value, gain.value
    return TapeNode(layers.instance_norm(xv, gv, shift.value), (x, gain, shift),
                    lambda g: layers.instance_norm_vjp(xv, gv, g))


def layer_norm_channels(x, gain, shift):
    xv, gv = x.value, gain.value
    return TapeNode(layers.layer_norm_channels(xv, gv, shift.value), (x, gain, shift),
                    lambda g: layers.layer_norm_channels_vjp(xv, gv, g))


def softmax_channels(a):
    """Softmax over the last axis."""
    x = a.value
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    p = e / e.sum(axis=-1, keepdims=True)
    return TapeNode(p, (a,), lambda g: (p * (g - (g * p).sum(axis=-1, keepdims=True)),))


# --- convolutions and resampling ---------------------------------------------

def conv(x, kernel, bias, stride=1):
    """Same-padded convolution plus bias."""
    xv, kv = x.value, kernel.value
    return TapeNode(layers.conv_forward(xv, kv, bias.value, stride), (x, kernel, bias),
                    lambda g: layers.conv_vjp(xv, kv, stride, "same", g))


def upsample_nearest(x, factor):
    """Each spatial sample repeated factor times along every spatial axis; the
    VJP sums each factor-long block back into its sample."""
    shape = x.value.shape
    out = x.value
    for axis in range(len(shape) - 1):
        out = np.repeat(out, factor, axis=axis)

    def vjp(g):
        for axis in range(len(shape) - 1):
            g = g.reshape(g.shape[:axis] + (shape[axis], factor) + g.shape[axis + 1:])
            g = g.sum(axis=axis + 1)
        return (g,)

    return TapeNode(out, (x,), vjp)


# --- grid transfer ------------------------------------------------------------

def unproject(fmap, cam, pose, spec, gcfg):
    fv = fmap.value
    out = diffops.unproject(fv, cam, pose, spec, gcfg)
    return TapeNode(out, (fmap,),
                    lambda g: (diffops.unproject_vjp(fv, cam, pose, spec, gcfg, g),))


def project(grid, spec, cam, pose, n_planes):
    """Nearest-neighbor ray samples of the grid on n_planes depth planes."""
    gv = grid.value
    out = diffops.project(gv, spec, cam, pose, n_planes)
    return TapeNode(out, (grid,),
                    lambda g: (diffops.project_vjp(gv, spec, cam, pose, n_planes, g),))


# --- reductions over view stacks ----------------------------------------------

def mean_stack(nodes):
    """Permutation-invariant mean: summands are sorted before accumulation."""
    stacked = np.sort(np.stack([n.value for n in nodes]), axis=0)
    value = stacked.sum(axis=0) / len(nodes)
    inv_n = 1.0 / len(nodes)
    return TapeNode(value, tuple(nodes), lambda g: (g * inv_n,) * len(nodes))


# --- losses --------------------------------------------------------------------

# Probability clamp for the cross-entropy loss; keeps gradients bounded.
P_CLAMP = 1e-7


def bce(probs, target):
    """Mean binary cross entropy of probs clamped to [P_CLAMP, 1 - P_CLAMP];
    the gradient is zero where the clamp is active."""
    pv = probs.value
    p = np.clip(pv, P_CLAMP, 1.0 - P_CLAMP)
    y = np.asarray(target, dtype=np.float64)
    loss = float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))

    def vjp(g):
        # recomputed: capturing the forward's clamp would keep a second full-size array
        p = np.clip(pv, P_CLAMP, 1.0 - P_CLAMP)
        y = np.asarray(target, dtype=np.float64)
        grad = (p - y) / (p * (1.0 - p)) / pv.size
        grad = np.where((pv > P_CLAMP) & (pv < 1.0 - P_CLAMP), grad, 0.0)
        return (grad * float(g),)

    return TapeNode(loss, (probs,), vjp)


def l1_masked(pred, target, valid_mask):
    """Mean absolute error over the valid entries; the subgradient is zero at exact ties."""
    pv = pred.value
    mask = np.asarray(valid_mask, dtype=bool)
    if not mask.any():
        raise ValueError("l1_masked: empty valid mask")
    diff = pv - np.asarray(target, dtype=np.float64)
    loss = float(np.abs(diff[mask]).mean())

    def vjp(g):
        diff = pv - np.asarray(target, dtype=np.float64)
        grad = np.where(mask, np.sign(diff) / mask.sum(), 0.0)
        return (grad * float(g),)

    return TapeNode(loss, (pred,), vjp)
