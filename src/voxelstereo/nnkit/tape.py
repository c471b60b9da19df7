"""Reverse-mode differentiation over the package's fixed operator set.

Every operation below computes its value eagerly and records one VJP: a
function from the node's cotangent to the cotangents of all its parents, in
parent order. A TapeNode is therefore both the value and the provenance
record; backward() walks the recorded graph once in anti-topological order,
runs each node's VJP once and accumulates gradients additively at fan-out.

This is not a general autodiff system: only the operators defined here are
composable, which is all the toy pipelines need: conv is same-padded and
project samples the nearest voxel.
"""

from __future__ import annotations

import numpy as np

from .. import diffops
from . import layers, losses


class TapeNode:
    """A value plus the inputs that produced it and one VJP for all of them.

    vjp(g) maps the node's cotangent g to a sequence holding one cotangent
    per parent, in the order of `parents`. Leaves have no parents and no VJP.
    """

    __slots__ = ("value", "parents", "vjp", "grad")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.vjp = vjp
        self.grad = None


class Parameter(TapeNode):
    """Leaf node with a stable name; gradients accumulate until the
    optimizer's zero_grad clears them."""

    __slots__ = ("name",)

    def __init__(self, value, name):
        super().__init__(np.array(value, dtype=np.float64))
        self.name = name


def as_node(x) -> TapeNode:
    return x if isinstance(x, TapeNode) else TapeNode(x)


def backward(root: TapeNode, seed=None) -> None:
    """Accumulate gradients of `root` into every reachable leaf's .grad.

    A node with parents drops its cotangent once its VJP has run, so the
    graph holds no intermediate gradients after the pass.
    """
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones_like(root.value) if seed is None else np.asarray(seed, dtype=np.float64)
    for node in reversed(order):
        if node.grad is None or not node.parents:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad), strict=True):
            parent.grad = g if parent.grad is None else parent.grad + g
        node.grad = None


# --- arithmetic -------------------------------------------------------------

def add(a, b):
    a, b = as_node(a), as_node(b)
    return TapeNode(a.value + b.value, (a, b), lambda g: (g, g))


def mul(a, b):
    a, b = as_node(a), as_node(b)
    av, bv = a.value, b.value
    return TapeNode(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(a, s: float):
    a = as_node(a)
    return TapeNode(a.value * s, (a,), lambda g: (g * s,))


def one_minus(a):
    a = as_node(a)
    return TapeNode(1.0 - a.value, (a,), lambda g: (-g,))


def concat(nodes):
    """Concatenation along the last (channel) axis."""
    nodes = [as_node(n) for n in nodes]
    splits = np.cumsum([n.value.shape[-1] for n in nodes])[:-1]
    return TapeNode(np.concatenate([n.value for n in nodes], axis=-1), tuple(nodes),
                    lambda g: np.split(g, splits, axis=-1))


def take(a, index, axis):
    """a's entries at `index` (an int or a slice) along `axis`; the VJP puts
    the cotangent there and zeros everywhere else."""
    a = as_node(a)
    shape = a.value.shape
    key = (slice(None),) * (axis % len(shape)) + (index,)

    def vjp(g):
        out = np.zeros(shape)
        out[key] = g
        return (out,)

    return TapeNode(a.value[key], (a,), vjp)


# --- activations and norms ---------------------------------------------------

def relu(a):
    a = as_node(a)
    x = a.value
    return TapeNode(layers.relu(x), (a,), lambda g: (layers.relu_vjp(x, g),))


def sigmoid(a):
    a = as_node(a)
    s = layers.sigmoid(a.value)
    return TapeNode(s, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(a):
    a = as_node(a)
    t = np.tanh(a.value)
    return TapeNode(t, (a,), lambda g: (g * (1.0 - t * t),))


def instance_norm(x, gain, shift):
    x, gain, shift = as_node(x), as_node(gain), as_node(shift)
    xv, gv = x.value, gain.value
    return TapeNode(layers.instance_norm(xv, gv, shift.value), (x, gain, shift),
                    lambda g: layers.instance_norm_vjp(xv, gv, g))


def layer_norm_channels(x, gain, shift):
    x, gain, shift = as_node(x), as_node(gain), as_node(shift)
    xv, gv = x.value, gain.value
    return TapeNode(layers.layer_norm_channels(xv, gv, shift.value), (x, gain, shift),
                    lambda g: layers.layer_norm_channels_vjp(xv, gv, g))


def softmax_channels(a):
    a = as_node(a)
    p = layers.softmax_channels(a.value)
    return TapeNode(p, (a,), lambda g: (layers.softmax_channels_vjp(p, g),))


# --- convolutions and resampling ---------------------------------------------

def conv(x, kernel, bias, stride=1):
    """Same-padded convolution plus bias."""
    x, kernel, bias = as_node(x), as_node(kernel), as_node(bias)
    xv, kv = x.value, kernel.value
    return TapeNode(layers.conv_forward(xv, kv, bias.value, stride), (x, kernel, bias),
                    lambda g: layers.conv_vjp(xv, kv, stride, "same", g))


def upsample_nearest(x, factor):
    x = as_node(x)
    shape = x.value.shape
    return TapeNode(layers.upsample_nearest(x.value, factor), (x,),
                    lambda g: (layers.upsample_nearest_vjp(shape, factor, g),))


# --- grid transfer ------------------------------------------------------------

def unproject(fmap, cam, pose, spec, gcfg):
    fmap = as_node(fmap)
    fv = fmap.value
    out = diffops.unproject(fv, cam, pose, spec, gcfg)
    return TapeNode(out, (fmap,),
                    lambda g: (diffops.unproject_vjp(fv, cam, pose, spec, gcfg, g),))


def project(grid, spec, cam, pose, n_planes):
    """Nearest-neighbor ray samples of the grid on n_planes depth planes."""
    grid = as_node(grid)
    gv = grid.value
    out = diffops.project(gv, spec, cam, pose, n_planes)
    return TapeNode(out, (grid,),
                    lambda g: (diffops.project_vjp(gv, spec, cam, pose, n_planes, g),))


# --- reductions over view stacks ----------------------------------------------

def mean_stack(nodes):
    """Permutation-invariant mean: summands are sorted before accumulation."""
    nodes = [as_node(n) for n in nodes]
    stacked = np.sort(np.stack([n.value for n in nodes]), axis=0)
    value = stacked.sum(axis=0) / len(nodes)
    inv_n = 1.0 / len(nodes)
    return TapeNode(value, tuple(nodes), lambda g: (g * inv_n,) * len(nodes))


# --- losses --------------------------------------------------------------------

def bce(probs, target):
    probs = as_node(probs)
    pv = probs.value
    return TapeNode(losses.bce_loss(pv, target), (probs,),
                    lambda g: (losses.bce_loss_vjp(pv, target, float(g)),))


def l1_masked(pred, target, valid_mask):
    pred = as_node(pred)
    pv = pred.value
    return TapeNode(losses.l1_depth_loss(pv, target, valid_mask), (pred,),
                    lambda g: (losses.l1_depth_loss_vjp(pv, target, valid_mask, float(g)),))
