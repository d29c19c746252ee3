"""Runtime gradient verification: the finite-difference check, per-op checks
and an end-to-end model check.

``grad_check`` takes a closure that rebuilds a scalar loss from a set of
named parameter tensors, differentiates it analytically, then takes a
central difference at a step of 1e-5 on each parameter entry and compares.
The error is relative where the gradients have magnitude and absolute below
a floor of 1e-6, so constant losses (true gradient 0) pass on FD noise
alone. A non-finite analytic or numeric value counts as an infinite error,
so a NaN or an infinity on either side fails its parameter. Every result is
a ``CheckLine``: ``grad_check`` returns one per parameter, and ``verdict``
folds many into one.

This is the machinery behind the ``gradcheck`` CLI command and the test
suite's per-op gradient tests. ``OP_CASES`` is the one table of op
cases: name -> ``build(rng) -> (params, loss_fn)``; a case named ``op`` or
``op_<variant>`` covers that op of ``autodiff.OPS``. ``check_op`` runs one
case's randomized finite-difference trials, each trial drawing its
operands from a stream keyed by (seed, case name, trial), so adding or
removing a case changes no other case's draws. The full model gets a
sampled-coordinate check through the complete training loss.
"""
from __future__ import annotations

import functools
import math
import time
import zlib
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward, no_grad
from .config import GenConfig, TrainConfig
from .model import Model, ModelConfig
from .synth import estimate_cooccurrence, generate_dataset, marker_table
from .trainer import batch_loss

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
_ABS_FLOOR = 1e-6  # below this magnitude, compare absolutely


class CheckLine(NamedTuple):
    """One verdict: what was checked, over how many trials or entries, and the worst error."""

    name: str
    trials: int
    passed: bool
    max_rel_err: float

    def text(self) -> str:
        tag = "ok" if self.passed else "FAIL"
        return f"{tag:4s} {self.name:24s} trials={self.trials:<4d} max rel err {self.max_rel_err:.3e}"


def verdict(name: str, trials: int, lines: list[CheckLine]) -> CheckLine:
    """One line for many: passed if every line passed, with the worst error (0.0 for none)."""
    return CheckLine(name=name, trials=trials, passed=all(line.passed for line in lines),
                     max_rel_err=max((line.max_rel_err for line in lines), default=0.0))


def format_lines(lines) -> str:
    return "\n".join(line.text() for line in lines)


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
) -> list[CheckLine]:
    """Compare analytic gradients of ``f()`` against central differences.

    Returns one ``CheckLine`` per parameter, its trials the entries
    perturbed. ``coords`` optionally restricts each parameter to a subset of
    flat entry indices (for sampling large models); by default every entry
    is perturbed. Parameter data is restored bit-exactly afterwards.
    """
    for p in params.values():
        p.grad = None
    loss = f()
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    lines = []
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
        lines.append(
            CheckLine(name=name, trials=len(idxs), passed=worst <= DEFAULT_TOL, max_rel_err=worst)
        )
    return lines


def _uniform(*shape, low=-2.0, high=2.0):
    return lambda rng: Tensor(rng.uniform(low, high, size=shape), requires_grad=True)


_unit = functools.partial(_uniform, low=-1.0, high=1.0)


def _off_zero(*shape, low, high=2.0):
    """Magnitudes in [low, high] with random signs: kept off 0 on both sides."""
    def draw(rng):
        signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        return Tensor(signs * rng.uniform(low, high, size=shape), requires_grad=True)
    return draw


def _scalarize(t: Tensor) -> Tensor:
    """Weighted sum of every entry, so each one gets a distinct gradient; a 0-d t is kept."""
    if t.data.ndim == 0:
        return t
    weight = Tensor(np.linspace(0.25, 1.75, t.data.size).reshape(t.data.shape))
    return ad.sum_all(ad.mul(t, weight))


def _case(op, **operands):
    """Builder of the loss ``_scalarize(op(*operands))``; each operand is ``draw(rng)``.

    ``op`` reaches autodiff through ``ad.<name>`` at call time, so a wrapper
    installed on the module sees every call.
    """
    def build(rng):
        params = {name: draw(rng) for name, draw in operands.items()}
        return params, lambda: _scalarize(op(*params.values()))
    return build


def _off_kink(h, w1, b1, margin):
    """Raise ``b1`` by 0.01 until every ReLU input of ``h @ w1 + b1`` is ``margin`` off 0."""
    while np.abs(h @ w1.data + b1.data).min() < margin:
        b1.data += 0.01


def _ffn_off_kink(mid, operands):
    """Keep the feed-forward half's ReLU inputs off the kink for the block's ``mid`` rows."""
    h = ad.layer_norm(mid).data * operands["gain2"].data + operands["bias2"].data
    _off_kink(h, operands["w1"], operands["b1"], 1e-2)


def _mlp(rng):
    x, w1, b1 = _uniform(3, 4)(rng), _uniform(4, 5)(rng), _uniform(1, 5)(rng)
    w2, b2 = _uniform(5, 2)(rng), _uniform(1, 2)(rng)
    _off_kink(x.data, w1, b1, 1e-3)
    params = {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2}
    return params, lambda: _scalarize(ad.mlp(*params.values()))


def _block_operands(rng):
    # operands in [-1, 1]: at +/-2 the loss reaches ~100, and its roundoff
    # over a step of 1e-5 swamps query and key gradients of ~1e-5
    return {name: _unit(*shape)(rng) for name, shape in (
        ("x", (4, 5)), ("gain1", (1, 5)), ("bias1", (1, 5)), ("wq", (5, 3)), ("wk", (5, 3)),
        ("wv", (5, 2)), ("wo", (2, 5)), ("gain2", (1, 5)), ("bias2", (1, 5)),
        ("w1", (5, 6)), ("b1", (1, 6)), ("w2", (6, 5)), ("b2", (1, 5)),
    )}


def _block_half(operands, zeroed, checked):
    """``transformer_block`` with the ``zeroed`` operands held at 0 and only the
    ``checked`` ones perturbed: one sub-layer's gradient with the other inert."""
    for name in zeroed:
        operands[name] = np.zeros_like(operands[name].data)
    params = {name: operands[name] for name in checked}
    return params, lambda: _scalarize(ad.transformer_block(*operands.values(), 0.5))


def _attention_sublayer(rng):
    # a zero second linear: the feed-forward half adds exactly 0, so no ReLU kink matters
    return _block_half(_block_operands(rng), ("w2", "b2"),
                       ("x", "gain1", "bias1", "wq", "wk", "wv", "wo"))


def _ffn_sublayer(rng):
    # a zero wo: the attention half adds exactly 0, so the mid rows are x
    operands = _block_operands(rng)
    _ffn_off_kink(operands["x"], operands)
    return _block_half(operands, ("wo",), ("x", "gain2", "bias2", "w1", "b1", "w2", "b2"))


def _transformer_block(rng):
    params = _block_operands(rng)
    *front, w1, b1, _, _ = params.values()
    with ad.no_grad():  # the mid rows: the block's output with a zero second linear
        mid = ad.transformer_block(*front, w1, b1, np.zeros((6, 5)), np.zeros((1, 5)), 0.5)
    _ffn_off_kink(mid, params)
    return params, lambda: _scalarize(ad.transformer_block(*params.values(), 0.5))


def _concat(rng):
    axis = int(rng.integers(2))  # unequal parts along either axis
    shapes = [(2, 3), (4, 3)] if axis == 0 else [(3, 2), (3, 4)]
    a, b = (_uniform(*shape)(rng) for shape in shapes)
    return {"a": a, "b": b}, lambda: _scalarize(ad.concat([a, b], axis=axis))


def _cosine(rng):
    shape = (4,) if rng.random() < 0.5 else (3, 4)  # cosine flattens either
    a, b = _off_zero(*shape, low=0.2)(rng), _off_zero(*shape, low=0.2)(rng)
    return {"a": a, "b": b}, lambda: ad.cosine(a, b)


def _cosine_gram(rng):
    shape = (4,) if rng.random() < 0.5 else (3, 4)  # blocks flatten either way
    blocks = [_off_zero(*shape, low=0.2)(rng) for _ in range(3)]
    params = {"a": blocks[0], "b": blocks[1], "c": blocks[2]}
    return params, lambda: _scalarize(ad.cosine_gram(blocks))


def _graph_mix_row(rng):
    ps, r = [_uniform(3, 4)(rng) for _ in range(3)], _uniform(3, 4)(rng)
    cs = _off_zero(3, low=0.2, high=1.0)(rng).data
    ps[0].data[np.abs(sum(c * p.data for c, p in zip(cs, ps))) < 1e-3] += 0.05  # off the kink
    params = {"p0": ps[0], "p1": ps[1], "p2": ps[2], "r": r}
    return params, lambda: _scalarize(ad.graph_mix_row(ps, cs, r, 0.3))


def _cross_entropy(rng):
    x, label = _uniform(1, 5)(rng), int(rng.integers(5))
    return {"x": x}, lambda: ad.softmax_cross_entropy(x, label)


OP_CASES = {
    "add": _case(lambda a, b: ad.add(a, b), a=_uniform(3, 4), b=_uniform(3, 4)),
    "add_scalar": _case(lambda a, s: ad.add(a, s), a=_uniform(3, 4), s=_uniform()),
    "sub": _case(lambda a, b: ad.sub(a, b), a=_uniform(3, 4), b=_uniform(3, 4)),
    "mul": _case(lambda a, b: ad.mul(a, b), a=_uniform(3, 4), b=_uniform(3, 4)),
    "mul_scalar": _case(lambda a, s: ad.mul(a, s), a=_uniform(3, 4), s=_uniform()),
    "div": _case(lambda a, b: ad.div(a, b), a=_uniform(3, 4), b=_off_zero(3, 4, low=0.3)),
    "div_scalar": _case(lambda a, s: ad.div(a, s), a=_uniform(3, 4), s=_off_zero(low=0.3)),
    "scale": _case(lambda x: ad.scale(x, -1.7), x=_uniform(3, 4)),
    "matmul": _case(lambda a, b: ad.matmul(a, b), a=_uniform(3, 4), b=_uniform(4, 2)),
    "linear": _case(lambda x, w, b: ad.linear(x, w, b),
                    x=_uniform(3, 4), w=_uniform(4, 2), b=_uniform(1, 2)),
    "mlp": _mlp,
    "transpose": _case(lambda x: ad.transpose(x), x=_uniform(3, 4)),
    "repeat_rows": _case(lambda row: ad.repeat_rows(row, 4), row=_uniform(1, 5)),
    "concat": _concat,
    "narrow": _case(lambda x: ad.narrow(ad.narrow(x, 0, 1, 3), 1, 1, 2), x=_uniform(5, 4)),
    "tanh": _case(lambda x: ad.tanh(x), x=_uniform(3, 4)),
    "relu": _case(lambda x: ad.relu(x), x=_off_zero(3, 4, low=1e-3)),
    "exp": _case(lambda x: ad.exp(x), x=_uniform(3, 4)),
    "log": _case(lambda x: ad.log(x), x=_uniform(3, 4, low=0.2)),
    "softmax": _case(lambda x: ad.softmax(x, axis=1), x=_uniform(3, 4)),
    "softmax_axis0": _case(lambda x: ad.softmax(x, axis=0), x=_uniform(5, 3)),
    "transformer_block": _transformer_block,
    "attention_sublayer": _attention_sublayer,
    "ffn_sublayer": _ffn_sublayer,
    "attention_pool": _case(lambda x, v, w: ad.attention_pool(x, v, w),
                            x=_uniform(5, 4), v=_unit(3, 4), w=_unit(3, 1)),
    "layer_norm": _case(lambda x: ad.layer_norm(x), x=_uniform(4, 6)),
    "graph_mix_row": _graph_mix_row,
    "sum_all": _case(lambda x: ad.sum_all(ad.tanh(x)), x=_uniform(3, 4)),
    "mean_all": _case(lambda x: ad.mean_all(ad.mul(x, x)), x=_uniform(3, 4)),
    "l2norm": _case(lambda x: ad.l2norm(x), x=_off_zero(3, 3, low=0.1)),
    "cosine": _cosine,
    "cosine_gram": _cosine_gram,
    "mse": _case(lambda a, b: ad.mse(a, b), a=_uniform(3, 4), b=_uniform(3, 4)),
    "softmax_cross_entropy": _cross_entropy,
}


def check_op(name: str, trials: int = 100, seed: int = 0) -> CheckLine:
    """Run ``trials`` randomized finite-difference checks of one ``OP_CASES`` entry."""
    build, key = OP_CASES[name], zlib.crc32(name.encode())
    lines = []
    for trial in range(trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(7, key, trial)))
        params, f = build(rng)
        lines += grad_check(f, params)
    return verdict(name, trials, lines)


def check_ops(trials: int = 100, seed: int = 0):
    """Run ``trials`` randomized finite-difference checks per operation."""
    return [check_op(name, trials, seed) for name in OP_CASES]


def check_model(seeds: int = 3, base_seed: int = 0):
    """Finite-difference the full training loss at sampled coordinates.

    Builds a small model and a couple of synthetic bags, then perturbs
    two randomly chosen entries of every parameter.
    """
    lines = []
    for k in range(seeds):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=base_seed, spawn_key=(8, k)))
        bags = generate_dataset(GenConfig(n_cases=4, n_patches=3, feat_dim=4, seed=1000 + k))
        adjacency = estimate_cooccurrence(marker_table(bags)).a
        cfg = TrainConfig(seed=1000 + k)
        model = Model(ModelConfig.of(4, cfg), rng)
        batch = bags[:2]

        def f():  # the batch mean as a step backpropagates it: each bag's loss over B, summed
            losses = [batch_loss(model.forward(b, adjacency), b, adjacency, cfg, 2)[0]
                      for b in batch]
            return functools.reduce(ad.add, [ad.scale(x, 1.0 / len(batch)) for x in losses])

        coords = {
            name: sorted(
                rng.choice(p.data.size, size=min(2, p.data.size), replace=False).tolist()
            )
            for name, p in model.params.items()
        }
        lines.append(verdict(f"model_seed{1000 + k}", sum(len(v) for v in coords.values()),
                             grad_check(f, model.params, coords=coords)))
    return lines


def run_suite(trials: int = 100, model_seeds: int = 3, seed: int = 0):
    """Full verification pass. Returns (all_passed, lines, seconds)."""
    t0 = time.perf_counter()
    lines = check_ops(trials=trials, seed=seed) + check_model(seeds=model_seeds, base_seed=seed)
    return all(line.passed for line in lines), lines, time.perf_counter() - t0

