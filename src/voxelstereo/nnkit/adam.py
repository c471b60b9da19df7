"""Bias-corrected Adam with the constants of Kingma & Ba (arXiv 1412.6980)."""

from __future__ import annotations

import numpy as np

LR = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def adam_step(value, grad, m, v, t):
    """One Adam update of step size LR; returns (new_value, new_m, new_v). t is 1-based."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    return value - LR * m_hat / (np.sqrt(v_hat) + EPS), m, v


class Adam:
    """Per-parameter moments for leaf tape nodes; step() applies and clears each grad."""

    def __init__(self, params):
        self.params = list(params)
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            grad = p.grad if p.grad is not None else np.zeros_like(p.value)
            p.value, self._m[i], self._v[i] = adam_step(
                p.value, grad, self._m[i], self._v[i], self.t)
            p.grad = None
