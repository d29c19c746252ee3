"""Adam with decoupled weight decay over one flat parameter vector.

The optimizer updates the model's ``theta`` in place, so every parameter
view moves with it. Moments follow the raw gradients; the decay term is
added to the update directly from the parameter values, so it never
enters the moment estimates.
"""
from __future__ import annotations

import numpy as np


class AdamW:
    def __init__(self, theta: np.ndarray, lr: float = 0.003, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 1e-4):
        self.theta = theta
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)

    def step(self, grad: np.ndarray) -> None:
        """One update of ``theta`` from a gradient in the same flat layout."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (grad * grad)
        update = (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)
        self.theta -= self.lr * (update + self.weight_decay * self.theta)
