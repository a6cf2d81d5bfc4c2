"""Adam with decoupled weight decay for lists of parameter tensors."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam (``BETA1``, ``BETA2``, ``EPS`` above) plus decoupled decay.

    Decay is applied directly to the weights (``p -= lr * wd * p``) before
    the adaptive step, so it never leaks into the moment estimates.
    Parameters with ``grad is None`` are skipped, decay included.
    """

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0):
        if lr <= 0.0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - BETA1 ** self._t
        bias2 = 1.0 - BETA2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            mhat = m / bias1
            vhat = v / bias2
            p.data -= self.lr * mhat / (np.sqrt(vhat) + EPS)
