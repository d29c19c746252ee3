"""Runtime gradient verification: per-op checks plus an end-to-end model check.

This is the machinery behind the ``gradcheck`` CLI command. Each operation
gets many randomized finite-difference trials; the full model gets a
sampled-coordinate check through the complete training loss.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import GenConfig, TrainConfig
from .gradcheck import grad_check
from .model import Model, ModelConfig
from .synth import estimate_cooccurrence, generate_dataset
from .trainer import batch_loss


@dataclass
class CheckLine:
    name: str
    trials: int
    passed: bool
    max_rel_err: float

    def text(self) -> str:
        tag = "ok" if self.passed else "FAIL"
        return f"{tag:4s} {self.name:24s} trials={self.trials:<4d} max rel err {self.max_rel_err:.3e}"


def _param(rng, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _kink_free(rng, shape) -> Tensor:
    mag = rng.uniform(0.2, 1.5, size=shape)
    return Tensor(mag * np.where(rng.random(shape) < 0.5, -1.0, 1.0), requires_grad=True)


def _positive(rng, shape) -> Tensor:
    return Tensor(rng.uniform(0.3, 2.0, size=shape), requires_grad=True)


def _scalarize(t: Tensor) -> Tensor:
    weight = Tensor(np.linspace(0.25, 1.75, t.data.size).reshape(t.data.shape))
    return ad.sum_all(ad.mul(t, weight))


def _op_cases(rng):
    """(name, params, scalar-loss closure) triples covering every op."""
    a = _param(rng, (3, 4))
    b = _param(rng, (3, 4))
    s = _param(rng, ())
    m1 = _param(rng, (3, 4))
    m2 = _param(rng, (4, 2))
    row = _param(rng, (1, 4))
    pos = _positive(rng, (3, 4))
    kink = _kink_free(rng, (3, 4))
    near = Tensor(a.data + 0.05 * rng.standard_normal((3, 4)), requires_grad=True)
    logits = _param(rng, (1, 4))
    label = int(rng.integers(0, 4))
    pos_s = _positive(rng, ())
    # drawn last, so the cases above keep the operands they had before attention
    att_q = _param(rng, (3, 4))
    att_k = _param(rng, (5, 4))
    att_v = _param(rng, (5, 2))
    # drawn after the attention operands, for the same reason
    lin_x, lin_w, lin_b = _param(rng, (3, 4)), _param(rng, (4, 2)), _param(rng, (1, 2))
    while np.abs(lin_x.data @ lin_w.data + lin_b.data).min() < 0.01:
        lin_b.data += 0.05  # keep every ReLU input off the kink
    an_gain, an_bias = _param(rng, (1, 4)), _param(rng, (1, 4))
    mix_p = [_param(rng, (3, 4)) for _ in range(3)]
    mix_r = _param(rng, (3, 4))
    mix_c = (0.7, -0.4, 0.9)
    near_kink = np.abs(sum(c * p.data for c, p in zip(mix_c, mix_p))) < 0.01
    mix_p[0].data[near_kink] += 0.1
    return [
        ("add", {"a": a, "b": b}, lambda: _scalarize(ad.add(a, b))),
        ("add_scalar", {"a": a, "s": s}, lambda: _scalarize(ad.add(a, s))),
        ("sub", {"a": a, "b": b}, lambda: _scalarize(ad.sub(a, b))),
        ("mul", {"a": a, "b": b}, lambda: _scalarize(ad.mul(a, b))),
        ("mul_scalar", {"a": a, "s": s}, lambda: _scalarize(ad.mul(a, s))),
        ("div", {"a": a, "pos": pos}, lambda: _scalarize(ad.div(a, pos))),
        ("div_scalar", {"a": a, "pos_s": pos_s}, lambda: _scalarize(ad.div(a, pos_s))),
        ("scale", {"a": a}, lambda: _scalarize(ad.scale(a, -1.7))),
        ("matmul", {"m1": m1, "m2": m2}, lambda: _scalarize(ad.matmul(m1, m2))),
        ("transpose", {"a": a}, lambda: _scalarize(ad.transpose(a))),
        ("repeat_rows", {"row": row}, lambda: _scalarize(ad.repeat_rows(row, 3))),
        ("concat", {"a": a, "b": b}, lambda: _scalarize(ad.concat([a, b], axis=0))),
        ("narrow", {"a": a}, lambda: _scalarize(ad.narrow(a, 1, 1, 2))),
        ("tanh", {"a": a}, lambda: _scalarize(ad.tanh(a))),
        ("relu", {"kink": kink}, lambda: _scalarize(ad.relu(kink))),
        ("exp", {"a": a}, lambda: _scalarize(ad.exp(a))),
        ("log", {"pos": pos}, lambda: _scalarize(ad.log(pos))),
        ("softmax_rows", {"a": a}, lambda: _scalarize(ad.softmax(a, axis=1))),
        ("softmax_cols", {"a": a}, lambda: _scalarize(ad.softmax(a, axis=0))),
        ("attention", {"att_q": att_q, "att_k": att_k, "att_v": att_v},
         lambda: _scalarize(ad.attention(att_q, att_k, att_v, 0.5))),
        ("layer_norm", {"a": a}, lambda: _scalarize(ad.layer_norm(a))),
        ("sum_all", {"a": a}, lambda: ad.sum_all(a)),
        ("mean_all", {"a": a}, lambda: ad.mean_all(a)),
        ("l2norm", {"pos": pos}, lambda: ad.l2norm(pos)),
        ("cosine", {"a": a, "b": b}, lambda: ad.cosine(a, b)),
        ("mse", {"a": a, "near": near}, lambda: ad.mse(a, near)),
        ("cross_entropy", {"logits": logits},
         lambda: ad.softmax_cross_entropy(logits, label)),
        ("linear_relu", {"lin_x": lin_x, "lin_w": lin_w, "lin_b": lin_b},
         lambda: _scalarize(ad.linear(lin_x, lin_w, lin_b, relu=True))),
        ("affine_norm", {"a": a, "an_gain": an_gain, "an_bias": an_bias},
         lambda: _scalarize(ad.affine_norm(a, an_gain, an_bias))),
        ("graph_mix_row", {"mix_p0": mix_p[0], "mix_p1": mix_p[1], "mix_p2": mix_p[2],
                           "mix_r": mix_r},
         lambda: _scalarize(ad.graph_mix_row(mix_p, mix_c, mix_r, 0.6))),
    ]


def check_ops(trials: int = 100, seed: int = 0):
    """Run ``trials`` randomized finite-difference checks per operation."""
    worst: dict = {}
    fails: dict = {}
    names = [name for name, _, _ in _op_cases(np.random.default_rng(0))]
    for name in names:
        worst[name] = 0.0
        fails[name] = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7, trial)))
        for name, params, f in _op_cases(rng):
            report = grad_check(f, params)
            worst[name] = max(worst[name], report.max_rel_err)
            if not report.passed:
                fails[name] += 1
    return [
        CheckLine(name=name, trials=trials, passed=fails[name] == 0, max_rel_err=worst[name])
        for name in names
    ]


def check_model(seeds: int = 3, coords_per_param: int = 2, base_seed: int = 0):
    """Finite-difference the full training loss at sampled coordinates.

    Builds a small model and a couple of synthetic bags, then perturbs
    ``coords_per_param`` randomly chosen entries of every parameter.
    """
    lines = []
    for k in range(seeds):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=base_seed, spawn_key=(8, k)))
        bags = generate_dataset(GenConfig(n_cases=4, n_patches=3, feat_dim=4, seed=1000 + k))
        marker_rows = np.array(
            [[b.markers.idh_mut, b.markers.codel_1p19q, b.markers.cdkn_homdel] for b in bags]
        )
        adjacency = estimate_cooccurrence(marker_rows).a
        model = Model(ModelConfig(feat_dim=4), rng)
        batch = bags[:2]
        cfg = TrainConfig(seed=1000 + k)

        def f():
            forwards = [model.forward(bag, adjacency) for bag in batch]
            loss, _ = batch_loss(forwards, batch, cfg, top_m=2)
            return loss

        coords = {
            name: sorted(
                rng.choice(p.data.size, size=min(coords_per_param, p.data.size), replace=False).tolist()
            )
            for name, p in model.params.items()
        }
        report = grad_check(f, model.params, coords=coords)
        lines.append(
            CheckLine(
                name=f"model_seed{1000 + k}",
                trials=sum(len(v) for v in coords.values()),
                passed=report.passed,
                max_rel_err=report.max_rel_err,
            )
        )
    return lines


def run_suite(trials: int = 100, model_seeds: int = 3, seed: int = 0):
    """Full verification pass. Returns (all_passed, lines, seconds)."""
    t0 = time.time()
    lines = check_ops(trials=trials, seed=seed) + check_model(seeds=model_seeds, base_seed=seed)
    return all(line.passed for line in lines), lines, time.time() - t0


def format_lines(lines) -> str:
    return "\n".join(line.text() for line in lines)
