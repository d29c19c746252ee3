"""Adam with decoupled weight decay over one flat parameter vector.

The optimizer updates the model's ``theta`` in place, so every parameter
view moves with it. Moments follow the raw gradients; the decay term is
added to the update directly from the parameter values, so it never
enters the moment estimates. A step evaluates its expressions into two
theta-sized scratch arrays that it frees on return; the optimizer keeps
nothing but ``m`` and ``v`` between steps.
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
        """One update of ``theta`` from a gradient in the same flat layout, which it only reads."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        a = grad * (1.0 - self.beta1)
        self.m *= self.beta1
        self.m += a                            # m = b1 m + (1 - b1) g
        self.v *= self.beta2
        np.multiply(grad, grad, out=a)
        a *= 1.0 - self.beta2
        self.v += a                            # v = b2 v + (1 - b2) g g
        np.divide(self.m, bc1, out=a)
        b = self.v / bc2
        np.sqrt(b, out=b)
        b += self.eps
        a /= b                                 # update = (m / bc1) / (sqrt(v / bc2) + eps)
        np.multiply(self.theta, self.weight_decay, out=b)
        a += b
        a *= self.lr
        self.theta -= a                        # theta -= lr (update + wd theta)
