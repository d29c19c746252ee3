"""Finite-difference verification of every differentiable primitive.

The op cases live in one table, ``gliomil.verify.OP_CASES``, which the
``gradcheck`` CLI runs too; each case gets 100 randomized trials through
``verify.check_op``. The tests below that exercise ``grad_check`` itself.
"""
import inspect

import numpy as np
import pytest

from gliomil import autodiff as ad
from gliomil import verify
from gliomil.autodiff import Tensor
from gliomil.gradcheck import grad_check


@pytest.mark.parametrize("name", sorted(verify.OP_CASES))
def test_op_gradients_match_finite_differences(name):
    line = verify.check_op(name, trials=100)
    assert line.passed, line.text()


def test_every_autodiff_op_has_a_registry_case(monkeypatch):
    """Each op of ``ad.OPS`` is called by a case named after it (``op`` or ``op_<variant>``),
    and every public function of the module but two is such an op."""
    public = {
        name for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")
    }
    assert public - set(ad.OPS) == {"no_grad", "backward"} and set(ad.OPS) <= public
    called = set()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ad.OPS:
        monkeypatch.setattr(ad, name, spy(name, getattr(ad, name)))
    covered = set()
    for case, build in verify.OP_CASES.items():
        called.clear()
        _, loss = build(np.random.default_rng(0))
        loss()
        covered |= {op for op in called if case == op or case.startswith(op + "_")}
    assert set(ad.OPS) - covered == set()


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


def test_a_nan_numeric_gradient_fails():
    """log(-1) is NaN, so every central difference of the loss is NaN too."""
    x = Tensor([[-1.0, 2.0]], requires_grad=True)
    with np.errstate(invalid="ignore"):
        report = grad_check(lambda: ad.sum_all(ad.log(x)), {"x": x})
    assert not report.passed and report.max_rel_err == np.inf


def test_a_nan_analytic_gradient_fails():
    x = Tensor([0.5, -1.5], requires_grad=True)

    def nan_backward_square(t):
        out = Tensor(t.data * t.data)
        if ad._GRAD_ENABLED and t.requires_grad:
            out.requires_grad = True
            out._parents = (t,)
            out._backward = lambda g: ad._accum(t, g * 2.0 * t.data * np.nan)
        return out

    report = grad_check(lambda: ad.sum_all(nan_backward_square(x)), {"x": x})
    assert not report.passed and report.max_rel_err == np.inf


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
