"""Adam with decoupled weight decay over one flat parameter vector.

The optimizer updates the model's ``theta`` in place, so every parameter
view moves with it. Moments follow the raw gradients; the decay term is
added to the update directly from the parameter values, so it never
enters the moment estimates. A step evaluates its expressions into two
theta-sized scratch arrays that it frees on return; the optimizer keeps
nothing but ``m`` and ``v`` between steps. The moment decay rates and
the denominator's guard are the constants ``BETA1``, ``BETA2`` and
``EPS``; only the learning rate and the weight decay are settable.
"""
from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamW:
    def __init__(self, theta: np.ndarray, lr: float, weight_decay: float):
        self.theta = theta
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)

    def step(self, grad: np.ndarray) -> None:
        """One update of ``theta`` from a gradient in the same flat layout, which it only reads."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        a = grad * (1.0 - BETA1)
        self.m *= BETA1
        self.m += a                            # m = b1 m + (1 - b1) g
        self.v *= BETA2
        np.multiply(grad, grad, out=a)
        a *= 1.0 - BETA2
        self.v += a                            # v = b2 v + (1 - b2) g g
        np.divide(self.m, bc1, out=a)
        b = self.v / bc2
        np.sqrt(b, out=b)
        b += EPS
        a /= b                                 # update = (m / bc1) / (sqrt(v / bc2) + eps)
        np.multiply(self.theta, self.weight_decay, out=b)
        a += b
        a *= self.lr
        self.theta -= a                        # theta -= lr (update + wd theta)
