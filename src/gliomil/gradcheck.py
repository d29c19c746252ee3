"""Central finite-difference verification of analytic gradients.

``grad_check`` takes a closure that rebuilds a scalar loss from a set of
named parameter tensors, differentiates it analytically, then perturbs
each parameter entry by +/-``DEFAULT_STEP`` and compares. The comparison
is relative where the gradients have magnitude and absolute near zero, so
constant losses (true gradient 0) pass on FD noise alone. A non-finite
analytic or numeric value counts as an infinite error, so a NaN or an
infinity on either side fails its parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .autodiff import Tensor, backward, no_grad

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
_ABS_FLOOR = 1e-6  # below this magnitude, compare absolutely


@dataclass
class CheckLine:
    """One verdict: what was checked, over how many trials or entries, and the worst error."""

    name: str
    trials: int
    passed: bool
    max_rel_err: float

    def text(self) -> str:
        tag = "ok" if self.passed else "FAIL"
        return f"{tag:4s} {self.name:24s} trials={self.trials:<4d} max rel err {self.max_rel_err:.3e}"


@dataclass
class GradCheckReport:
    params: list = field(default_factory=list)  # one CheckLine per parameter

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.params)

    @property
    def failures(self) -> list:
        return [p for p in self.params if not p.passed]

    @property
    def max_rel_err(self) -> float:
        return max((p.max_rel_err for p in self.params), default=0.0)

    def summary(self) -> str:
        return "\n".join(p.text() for p in self.params)


def _error(analytic: float, numeric: float) -> float:
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return math.inf
    denom = max(abs(analytic), abs(numeric))
    diff = abs(analytic - numeric)
    if denom < _ABS_FLOOR:
        return diff
    return diff / denom


def grad_check(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    coords: Optional[Mapping[str, Sequence[int]]] = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` against central differences.

    ``coords`` optionally restricts each parameter to a subset of flat
    entry indices (for sampling large models); by default every entry is
    perturbed. Parameter data is restored bit-exactly afterwards.
    """
    for p in params.values():
        p.grad = None
    loss = f()
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    report = GradCheckReport()
    for name, p in params.items():
        flat = p.data.ravel()
        idxs = range(flat.size) if coords is None else coords.get(name, range(flat.size))
        worst = 0.0
        for i in idxs:
            orig = float(flat[i])
            flat[i] = orig + DEFAULT_STEP
            with no_grad():
                f_plus = float(f().data)
            flat[i] = orig - DEFAULT_STEP
            with no_grad():
                f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * DEFAULT_STEP)
            worst = max(worst, _error(float(analytic[name].ravel()[i]), numeric))
        report.params.append(
            CheckLine(name=name, trials=len(idxs), passed=worst <= DEFAULT_TOL, max_rel_err=worst)
        )
    return report
