"""Reverse-mode differentiation over the package's fixed operator set.

Every operation below takes tape nodes, computes its value eagerly and
records one VJP: a function from the node's cotangent to the cotangents of
all its parents, in parent order. An input that is not learned, an image or
a constant, enters as a leaf TapeNode(x); only arguments that are not
differentiated (a target, a mask, a camera, a scale) stay plain values.

The graph links slots, not nodes: a node is its value plus its slot, and a
slot holds only its parents' slots, its VJP and its cotangent. A VJP
captures arrays and plain values (a count, a shape, a stride), never a node
or a list of nodes: a captured node would keep its value alive. So once a
forward returns, the graph keeps alive exactly the arrays the VJP closures
captured; an intermediate value no VJP reads (a norm output that feeds
relu, a conv output that feeds a norm, a grid that is only scaled or
averaged) is freed as soon as the caller drops its node. backward()
consumes the graph: it runs each slot's VJP once, in anti-topological
order, adds gradients at fan-out and unlinks each slot as it goes, so a
second backward over the same root reaches only it. It takes the cotangent
out of the slot before it calls the VJP and keeps no other reference, so a
VJP that deletes its argument after its last read frees it before it
returns (CPython 3.11 and later move a call's arguments into the callee's
frame; on 3.10 the caller's stack keeps the argument until the call
returns, and the cotangent is freed then, as before).

The VJPs capture one array per value they need and recompute what is cheap:
relu keeps its output, not its input; instance_norm keeps the normalized
input and its per-channel variance, not the input, which the conv that
made it then frees; a concat's value is its blocks' arrays, which conv
reads as channel blocks, so no joined copy is written and a block that
several convs or other VJPs read is held once. The GRU step
(fusion.gru_step_node) is one op whose VJP is written out by hand.

A value that is cheap to recompute from what the graph holds anyway need
not be held at all: a recorded unproject's node carries a rebuild, a
function of no arguments that runs the same diffops.unproject on the
feature map, camera and pose its own VJP captures, and so returns the
value's bits. A VJP may hold recall(node) in place of a parent's value:
the rebuild where there is one, else a function that returns the held
value, as for a leaf or any other op. The GRU step holds its input x this
way and calls it where its VJP first reads x. A node made under
no_record() gets no rebuild: it would keep alive a feature map that
nothing else holds.

Under no_record(), a forward whose result is never differentiated (an
evaluation, the loss after the last training step) records nothing: an op's
slot keeps no parents and no VJP, so the node holds only its value and each
intermediate is freed as soon as the forward drops its node, just as a
plain numpy computation would be. The values are the same bits either way.
Such a node has no parents, like a leaf, but it is not one: backward from it
would seed it with ones and reach nothing, so backward raises instead. Used
as an input to an op recorded later, it acts as a constant. The flag is a
context variable, so it holds for the current thread only.

Each op's forward and VJP are written in the op itself, except conv and
instance_norm: they keep their array math in nnkit.layers, where the
benchmark's tracer finds them by name, and their ops here only record it on
the tape. unproject and project likewise call diffops.

This is not a general autodiff system: only the operators defined here and
the GRU step are composable, which is all the toy pipelines need: conv is
same-padded and project samples the nearest voxel.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager

import numpy as np

from .. import diffops
from . import layers


_recording = contextvars.ContextVar("voxelstereo_tape_recording", default=True)

# The VJP of a slot whose op ran under no_record(): it marks a root that
# backward refuses, and is never called, since the slot has no parents.
_NOT_RECORDED = object()


@contextmanager
def no_record():
    """Within the block, this thread's ops compute their values but record no graph."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


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

    def pop_grad(self):
        """The cotangent, which the slot then no longer holds."""
        g, self.grad = self.grad, None
        return g


class TapeNode:
    """A value plus its slot in the graph.

    TapeNode(value, parents, vjp) records an op whose VJP maps the node's
    cotangent to one cotangent per parent node, in order; the slot keeps the
    parents' slots, not the parents. Leaves, a model's parameters and its
    input images among them, are TapeNode(x): an empty slot, and the value is
    x as float64; grad accumulates until Adam.step uses it. An op under
    no_record() keeps neither parents nor VJP. Only concat's value is a
    list, of its blocks' arrays, and only conv reads one. rebuild is None,
    except on a recorded unproject: there it is a function of no arguments
    that returns the value's bits anew (see recall).
    """

    __slots__ = ("value", "slot", "rebuild")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.rebuild = None
        if parents and not _recording.get():
            self.slot = _Slot((), _NOT_RECORDED)
        else:
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
    Raises ValueError for a root computed under no_record(), which has no graph.
    """
    if root.slot.vjp is _NOT_RECORDED:
        raise ValueError("backward: the root was computed under tape.no_record(), "
                         "which records no graph to differentiate")
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
            # the VJP gets the cotangent's only reference, so it may free it
            grads = slot.vjp(slot.pop_grad())
            for parent, g in zip(slot.parents, grads, strict=True):
                parent.grad = g if parent.grad is None else parent.grad + g
            del grads, g
            slot.parents, slot.vjp = (), None


def recall(node):
    """A function of no arguments that returns node's value, for a VJP to
    hold in its place: a recorded unproject's rebuild, which holds only what
    the unproject's own VJP holds, or else one that holds the value."""
    if node.rebuild is not None:
        return node.rebuild
    value = node.value
    return lambda: value


# --- arithmetic -------------------------------------------------------------

def add(a, b):
    return TapeNode(a.value + b.value, (a, b), lambda g: (g, g))


def scale(a, s: float):
    return TapeNode(a.value * s, (a,), lambda g: (g * s,))


def concat(nodes):
    """Concatenation along the last (channel) axis. The value is the list of
    the nodes' arrays, the same objects, not a joined copy."""
    splits = np.cumsum([n.value.shape[-1] for n in nodes])[:-1]
    node = TapeNode((), tuple(nodes), lambda g: np.split(g, splits, axis=-1))
    node.value = [n.value for n in nodes]
    return node


def take(a, index, axis):
    """a's entries at `index` (an int or a slice) along `axis`; the VJP puts
    the cotangent there and zeros everywhere else."""
    shape = a.value.shape
    if not -len(shape) <= axis < len(shape):
        raise ValueError(f"axis {axis} is out of range for an array of {len(shape)} axes")
    key = (slice(None),) * (axis % len(shape)) + (index,)

    def vjp(g):
        out = np.zeros(shape)
        out[key] = g
        return (out,)

    return TapeNode(a.value[key], (a,), vjp)


# --- activations and norms ---------------------------------------------------

def relu(a):
    """max(x, 0). The VJP reads the output: y > 0 exactly where x > 0, NaN,
    signed zeros and infinities included, so the input is not kept."""
    y = np.maximum(a.value, 0.0)
    return TapeNode(y, (a,), lambda g: (np.where(y > 0, g, 0.0),))


def instance_norm(x, gain, shift):
    """The VJP reads the normalized input and the variance, not the input."""
    gv = gain.value
    y, xhat, var = layers.instance_norm(x.value, gv, shift.value)
    return TapeNode(y, (x, gain, shift), lambda g: layers.instance_norm_vjp(xhat, var, gv, g))


def softmax_channels(a):
    """Softmax over the last axis.

    Forward and VJP run one channel column at a time: a reduction over a
    short last axis runs numpy's inner loop once per position. The max is
    np.maximum over the columns, the sums add them left to right; below 8
    channels numpy's reductions add in that order too, so the bytes,
    NaN and infinite rows included, are those of the whole-axis form.
    """
    x = a.value
    cols = [x[..., c] for c in range(x.shape[-1])]
    m = cols[0].copy()
    for col in cols[1:]:
        np.maximum(m, col, out=m)
    exps = [np.exp(col - m) for col in cols]
    total = exps[0].copy()
    for e in exps[1:]:
        total += e
    p = np.empty(x.shape)
    for c, e in enumerate(exps):
        np.divide(e, total, out=p[..., c])

    def vjp(g):
        # p * (g - sum_c g_c p_c), the sum left to right
        dot = g[..., 0] * p[..., 0]
        for c in range(1, p.shape[-1]):
            dot += g[..., c] * p[..., c]
        grad = np.empty(p.shape)
        for c in range(p.shape[-1]):
            np.multiply(p[..., c], g[..., c] - dot, out=grad[..., c])
        return (grad,)

    return TapeNode(p, (a,), vjp)


# --- convolutions and resampling ---------------------------------------------

def conv(x, kernel, bias=None, stride=1):
    """Same-padded convolution plus bias; the bias node may be None. x may be
    a concat, whose blocks the conv reads and keeps. A bias's cotangent is
    g summed over positions; layers.conv_vjp gives x's and the kernel's."""
    xv, kv = x.value, kernel.value
    y = layers.conv_forward(xv, kv, None if bias is None else bias.value, stride)
    if bias is None:
        return TapeNode(y, (x, kernel), lambda g: layers.conv_vjp(xv, kv, stride, "same", g))

    def vjp(g):
        return (*layers.conv_vjp(xv, kv, stride, "same", g),
                g.reshape(-1, g.shape[-1]).sum(axis=0))

    return TapeNode(y, (x, kernel, bias), vjp)


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
    """Recorded, the node's rebuild recomputes its value from the feature
    map its VJP holds anyway; under no_record() it has none, so the node
    does not keep the feature map alive."""
    fv = fmap.value
    out = diffops.unproject(fv, cam, pose, spec, gcfg)
    node = TapeNode(out, (fmap,),
                    lambda g: (diffops.unproject_vjp(fv, cam, pose, spec, gcfg, g),))
    if _recording.get():
        node.rebuild = lambda: diffops.unproject(fv, cam, pose, spec, gcfg)
    return node


def project(grid, cam, pose):
    """Nearest-neighbor ray samples of the grid on one depth plane per voxel
    of its edge V: (V, V, V, C) gives (H, W, V * C)."""
    gv = grid.value
    out = diffops.project(gv, cam, pose)
    return TapeNode(out, (grid,), lambda g: (diffops.project_vjp(gv, cam, pose, g),))


# --- reductions over view stacks ----------------------------------------------

# Elements per block of mean_stack: K + 1 blocks of float64 fit a core's L2.
_MEAN_BLOCK = 1 << 15


def mean_stack(nodes):
    """Permutation-invariant mean of equal-shape nodes.

    The summands are put in ascending order by diffops.compare_exchange_sort
    and added to +0.0 one by one, 0.0 + a0 + a1 + ..., which is how numpy
    sums a sorted stack along axis 0, so the value repeats bitwise in every
    view order without a stacked or sorted copy. The sort and the sum run
    over flat blocks of _MEAN_BLOCK elements, written into the one output:
    each element meets the same operations, so the bits do not depend on
    the block size, and the scratch is K + 1 blocks, not K + 1 grids (a
    non-contiguous input is copied whole once to flatten it).
    """
    values = [n.value for n in nodes]
    if not values:
        raise ValueError("mean_stack needs at least one node")
    shapes = {v.shape for v in values}
    if len(shapes) > 1:
        raise ValueError(f"mean_stack needs nodes of the same shape, got {sorted(shapes)}")
    flat = [v.reshape(-1) for v in values]
    value = np.zeros(values[0].shape)
    out = value.reshape(-1)
    for lo in range(0, out.size, _MEAN_BLOCK):
        block = slice(lo, lo + _MEAN_BLOCK)
        acc = out[block]
        ordered = diffops.compare_exchange_sort([f[block] for f in flat])
        while ordered:  # popping frees each summand once added
            acc += ordered.pop(0)
        acc /= len(nodes)
    n = len(nodes)
    inv_n = 1.0 / n
    return TapeNode(value, tuple(nodes), lambda g: (g * inv_n,) * n)


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
