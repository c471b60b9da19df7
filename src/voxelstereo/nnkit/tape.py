"""Reverse-mode differentiation over the package's fixed operator set.

Every operation below takes tape nodes, computes its value eagerly and
records one VJP: a function from the node's cotangent to the cotangents of
all its parents, in parent order. An input that is not learned, an image or
a constant, enters as a leaf TapeNode(x); only arguments that are not
differentiated (a target, a mask, a camera, a scale) stay plain values.
backward() consumes the recorded graph: it runs each node's VJP once, in
anti-topological order, adds gradients at fan-out and unlinks each node as
it goes, so a second backward over the same root reaches only it.

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
    per parent, in the order of `parents`. Leaves, a model's parameters and
    its input images among them, are TapeNode(x): no parents and no VJP, and
    the value is x as float64; grad accumulates until Adam.step uses it.
    """

    __slots__ = ("value", "parents", "vjp", "grad")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.vjp = vjp
        self.grad = None


def backward(root: TapeNode) -> None:
    """Add the gradient of `root` (seeded with ones) to every reachable leaf's .grad.

    Consumes the graph: a node with parents loses them, its VJP and its
    cotangent as the sweep reaches it, so what only the graph held is freed.
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
    root.grad = np.ones_like(root.value)
    while order:
        node = order.pop()
        if node.parents:
            for parent, g in zip(node.parents, node.vjp(node.grad), strict=True):
                parent.grad = g if parent.grad is None else parent.grad + g
            node.parents, node.vjp, node.grad = (), None, None


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
    return TapeNode(layers.relu(x), (a,), lambda g: (layers.relu_vjp(x, g),))


def sigmoid(a):
    s = layers.sigmoid(a.value)
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
    p = layers.softmax_channels(a.value)
    return TapeNode(p, (a,), lambda g: (layers.softmax_channels_vjp(p, g),))


# --- convolutions and resampling ---------------------------------------------

def conv(x, kernel, bias, stride=1):
    """Same-padded convolution plus bias."""
    xv, kv = x.value, kernel.value
    return TapeNode(layers.conv_forward(xv, kv, bias.value, stride), (x, kernel, bias),
                    lambda g: layers.conv_vjp(xv, kv, stride, "same", g))


def upsample_nearest(x, factor):
    shape = x.value.shape
    return TapeNode(layers.upsample_nearest(x.value, factor), (x,),
                    lambda g: (layers.upsample_nearest_vjp(shape, factor, g),))


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

def bce(probs, target):
    pv = probs.value
    return TapeNode(losses.bce_loss(pv, target), (probs,),
                    lambda g: (losses.bce_loss_vjp(pv, target, float(g)),))


def l1_masked(pred, target, valid_mask):
    pv = pred.value
    return TapeNode(losses.l1_depth_loss(pv, target, valid_mask), (pred,),
                    lambda g: (losses.l1_depth_loss_vjp(pv, target, valid_mask, float(g)),))
