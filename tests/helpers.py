"""Shared numeric oracles for the test suite."""

import numpy as np

from voxelstereo.nnkit import tape


def fd_gradient(func, x, step=1e-3):
    """Central finite-difference gradient of a scalar function, elementwise.

    64-bit arithmetic; func must accept an array of x.shape and return a
    float.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.copy().reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = func(xf.reshape(x.shape))
        xf[i] = orig - step
        lo = func(xf.reshape(x.shape))
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * step)
    return grad


def max_rel_error(analytic, reference):
    """Max elementwise deviation, relative to the reference's magnitude."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = max(1.0, float(np.abs(reference).max(initial=0.0)))
    return float(np.abs(analytic - reference).max(initial=0.0)) / scale


def assert_vjp_matches_fd(func, vjp, x, upstream, tol=1e-4, step=1e-3):
    """Check <func(x), upstream> gradient against central differences."""
    upstream = np.asarray(upstream, dtype=np.float64)
    analytic = vjp(x, upstream)
    fd = fd_gradient(lambda xp: float(np.sum(func(xp) * upstream)), x, step=step)
    err = max_rel_error(analytic, fd)
    assert err < tol, f"VJP mismatch: max relative error {err:.3e} >= {tol}"


def TapeDot(node, u):
    """<node, u> as a tape op, so that backward hands `node` exactly u (1.0 * u)."""
    return tape.TapeNode((node.value * u).sum(), (node,), lambda g: (g * u,))


def tape_vjp(op, x, u):
    """The cotangent the tape op `op` hands its input x when its output's is u."""
    leaf = tape.TapeNode(x)
    tape.backward(TapeDot(op(leaf), u))
    return leaf.grad
