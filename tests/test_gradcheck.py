"""Finite-difference verification of every differentiable primitive.

Each op gets >= 100 randomized trials on inputs drawn from [-2, 2]
(log gets positive inputs; relu inputs are kept away from its kink,
where central differences are not valid).
"""
import zlib

import numpy as np
import pytest

from gliomil import autodiff as ad
from gliomil.autodiff import Tensor
from gliomil.gradcheck import grad_check

TRIALS = 100


def rand(rng, shape, low=-2.0, high=2.0):
    return Tensor(rng.uniform(low, high, size=shape), requires_grad=True)


def check(f, params, tol=1e-4):
    report = grad_check(f, params, h=1e-5, tol=tol)
    assert report.passed, report.summary()


def weight(x):
    """A fixed mixing matrix so reductions see every entry asymmetrically."""
    n = x.size
    return Tensor(np.linspace(0.5, 1.5, n).reshape(x.shape))


def scalarize(y):
    return ad.sum_all(ad.mul(y, weight(y.data)))


# one entry per primitive: name -> builder(rng) returning (loss_fn, params)
def _binary(op):
    def build(rng):
        a, b = rand(rng, (2, 3)), rand(rng, (2, 3))
        if op is ad.div:
            b.data[np.abs(b.data) < 0.5] += 1.0  # keep denominators away from 0
        return lambda: scalarize(op(a, b)), {"a": a, "b": b}

    return build


def _binary_scalar(op):
    def build(rng):
        a, s = rand(rng, (2, 3)), rand(rng, ())
        if op is ad.div:
            s.data += 3.0
        return lambda: scalarize(op(a, s)), {"a": a, "s": s}

    return build


def _unary(op, low=-2.0, high=2.0):
    def build(rng):
        x = rand(rng, (3, 4), low, high)
        if op is ad.relu:
            x.data[np.abs(x.data) < 1e-3] += 0.01
        return lambda: scalarize(op(x)), {"x": x}

    return build


def _softmax(rng):
    x = rand(rng, (3, 4))
    return lambda: scalarize(ad.softmax(x, axis=1)), {"x": x}


def _softmax_axis0(rng):
    x = rand(rng, (5, 1))
    return lambda: scalarize(ad.softmax(x, axis=0)), {"x": x}


def _layer_norm(rng):
    x = rand(rng, (4, 6))
    return lambda: scalarize(ad.layer_norm(x)), {"x": x}


def _matmul(rng):
    a, b = rand(rng, (3, 4)), rand(rng, (4, 2))
    return lambda: scalarize(ad.matmul(a, b)), {"a": a, "b": b}


def _transpose(rng):
    x = rand(rng, (3, 4))
    return lambda: scalarize(ad.transpose(x)), {"x": x}


def _repeat_rows(rng):
    x = rand(rng, (1, 5))
    return lambda: scalarize(ad.repeat_rows(x, 4)), {"x": x}


def _concat(rng):
    a, b = rand(rng, (2, 3)), rand(rng, (4, 3))
    return lambda: scalarize(ad.concat([a, b], axis=0)), {"a": a, "b": b}


def _narrow(rng):
    x = rand(rng, (5, 4))
    return lambda: scalarize(ad.narrow(x, 0, 1, 3)), {"x": x}


def _scale(rng):
    x = rand(rng, (3, 3))
    return lambda: scalarize(ad.scale(x, -1.7)), {"x": x}


def _sum(rng):
    x = rand(rng, (3, 4))
    return lambda: ad.sum_all(ad.tanh(x)), {"x": x}


def _mean(rng):
    x = rand(rng, (3, 4))
    return lambda: ad.mean_all(ad.mul(x, x)), {"x": x}


def _l2norm(rng):
    x = rand(rng, (3, 3))
    x.data += np.sign(x.data) * 0.1  # keep away from the origin
    return lambda: ad.l2norm(x), {"x": x}


def _cosine(rng):
    a, b = rand(rng, (4,)), rand(rng, (4,))
    a.data += np.sign(a.data) * 0.2
    b.data += np.sign(b.data) * 0.2
    return lambda: ad.cosine(a, b), {"a": a, "b": b}


def _mse(rng):
    a, b = rand(rng, (3, 4)), rand(rng, (3, 4))
    return lambda: ad.mse(a, b), {"a": a, "b": b}


def _linear(relu):
    def build(rng):
        x, w, b = rand(rng, (3, 4)), rand(rng, (4, 2)), rand(rng, (1, 2))
        while relu and np.abs(x.data @ w.data + b.data).min() < 1e-3:
            b.data += 0.01  # keep the ReLU inputs off its kink
        return lambda: scalarize(ad.linear(x, w, b, relu=relu)), {"x": x, "w": w, "b": b}

    return build


def _affine_norm(rng):
    x, gain, bias = rand(rng, (4, 6)), rand(rng, (1, 6)), rand(rng, (1, 6))
    return lambda: scalarize(ad.affine_norm(x, gain, bias)), {"x": x, "gain": gain, "bias": bias}


def _graph_mix_row(rng):
    ps, r = [rand(rng, (3, 4)) for _ in range(3)], rand(rng, (3, 4))
    c = rng.uniform(0.2, 1.0, size=3)
    ps[0].data[np.abs(sum(cj * p.data for cj, p in zip(c, ps))) < 1e-3] += 0.05
    params = {"p0": ps[0], "p1": ps[1], "p2": ps[2], "r": r}
    return lambda: scalarize(ad.graph_mix_row(ps, c, r, 0.3)), params


def _cross_entropy(rng):
    x = rand(rng, (1, 5))
    label = int(rng.integers(5))
    return lambda: ad.softmax_cross_entropy(x, label), {"x": x}


OPS = {
    "add": _binary(ad.add),
    "sub": _binary(ad.sub),
    "mul": _binary(ad.mul),
    "div": _binary(ad.div),
    "add_scalar": _binary_scalar(ad.add),
    "mul_scalar": _binary_scalar(ad.mul),
    "div_scalar": _binary_scalar(ad.div),
    "scale": _scale,
    "matmul": _matmul,
    "transpose": _transpose,
    "repeat_rows": _repeat_rows,
    "concat": _concat,
    "narrow": _narrow,
    "tanh": _unary(ad.tanh),
    "relu": _unary(ad.relu),
    "exp": _unary(ad.exp),
    "log": _unary(ad.log, low=0.2, high=2.0),
    "softmax": _softmax,
    "softmax_axis0": _softmax_axis0,
    "layer_norm": _layer_norm,
    "linear": _linear(relu=False),
    "linear_relu": _linear(relu=True),
    "affine_norm": _affine_norm,
    "graph_mix_row": _graph_mix_row,
    "sum_all": _sum,
    "mean_all": _mean,
    "l2norm": _l2norm,
    "cosine": _cosine,
    "mse": _mse,
    "softmax_cross_entropy": _cross_entropy,
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_finite_differences(name):
    build = OPS[name]
    for trial in range(TRIALS):
        rng = np.random.default_rng(1000 * zlib.crc32(name.encode()) % 100000 + trial)
        f, params = build(rng)
        report = grad_check(f, params)
        assert report.passed, f"{name} trial {trial}:\n{report.summary()}"


def test_three_layer_mlp_composite():
    rng = np.random.default_rng(42)
    x = Tensor(rng.uniform(-2, 2, size=(4, 5)))
    params = {
        "w1": Tensor(rng.normal(scale=0.5, size=(5, 6)), requires_grad=True),
        "b1": Tensor(np.zeros((1, 6)), requires_grad=True),
        "w2": Tensor(rng.normal(scale=0.5, size=(6, 6)), requires_grad=True),
        "b2": Tensor(np.zeros((1, 6)), requires_grad=True),
        "w3": Tensor(rng.normal(scale=0.5, size=(6, 2)), requires_grad=True),
        "b3": Tensor(np.zeros((1, 2)), requires_grad=True),
    }

    def f():
        h = ad.tanh(ad.add(ad.matmul(x, params["w1"]), ad.repeat_rows(params["b1"], 4)))
        h = ad.tanh(ad.add(ad.matmul(h, params["w2"]), ad.repeat_rows(params["b2"], 4)))
        out = ad.add(ad.matmul(h, params["w3"]), ad.repeat_rows(params["b3"], 4))
        return ad.mse(out, Tensor(np.ones((4, 2))))

    report = grad_check(f, params)
    assert report.passed, report.summary()


def test_constant_loss_passes_on_fd_noise():
    x = Tensor(np.ones(3), requires_grad=True)
    report = grad_check(lambda: Tensor(1.5), {"x": x})
    assert report.passed and report.max_rel_err < 1e-9


def test_corrupted_backward_is_flagged_on_the_right_param():
    """A deliberately wrong backward rule must fail, and only it."""
    rng = np.random.default_rng(3)
    good = Tensor(rng.uniform(-2, 2, size=(3,)), requires_grad=True)
    bad = Tensor(rng.uniform(-2, 2, size=(3,)), requires_grad=True)

    def crooked_square(x):
        out = Tensor(x.data * x.data)
        if ad._GRAD_ENABLED and x.requires_grad:
            out.requires_grad = True
            out._parents = (x,)
            out._backward = lambda g: ad._accum(x, g * 3.0 * x.data)  # wrong: 3x not 2x
        return out

    def f():
        return ad.add(ad.sum_all(ad.mul(good, good)), ad.sum_all(crooked_square(bad)))

    report = grad_check(f, {"good": good, "bad": bad})
    flagged = {p.name for p in report.failures}
    assert flagged == {"bad"}
