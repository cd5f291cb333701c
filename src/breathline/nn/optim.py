"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np

# moment decay rates and the denominator floor
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Updates the given arrays in place; state is keyed by parameter name."""

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bias1 = 1.0 - BETA1**self.t
        bias2 = 1.0 - BETA2**self.t
        for name, param in self.params.items():
            g = grads[name]
            self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
            self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * g**2
            param -= self.learning_rate * (self.m[name] / bias1) / (np.sqrt(self.v[name] / bias2) + EPS)
