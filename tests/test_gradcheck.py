"""Finite-difference verification of every differentiable primitive.

The op cases live in one table, ``gliomil.verify.OP_CASES``, which the
``gradcheck`` CLI runs too; each case gets 100 randomized trials through
``verify.check_op``. The tests below exercise ``grad_check`` and ``verdict``
themselves, and the call pattern the ``verify_gradcheck`` benchmark counts.
"""
import importlib
import inspect

import numpy as np
import pytest

from gliomil import autodiff as ad
from gliomil import verify
from gliomil.autodiff import Tensor
from gliomil.verify import CheckLine, format_lines, grad_check, verdict


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

    lines = grad_check(f, params)
    assert all(line.passed for line in lines), format_lines(lines)


def test_constant_loss_passes_on_fd_noise():
    x = Tensor(np.ones(3), requires_grad=True)
    line = verdict("x", 3, grad_check(lambda: Tensor(1.5), {"x": x}))
    assert line.passed and line.max_rel_err < 1e-9


def test_a_nan_numeric_gradient_fails():
    """log(-1) is NaN, so every central difference of the loss is NaN too."""
    x = Tensor([[-1.0, 2.0]], requires_grad=True)
    with np.errstate(invalid="ignore"):
        line = verdict("x", 2, grad_check(lambda: ad.sum_all(ad.log(x)), {"x": x}))
    assert not line.passed and line.max_rel_err == np.inf


def test_a_nan_analytic_gradient_fails():
    x = Tensor([0.5, -1.5], requires_grad=True)

    def nan_backward_square(t):
        out = Tensor(t.data * t.data)
        if ad._GRAD_ENABLED and t.requires_grad:
            out.requires_grad = True
            out._parents = (t,)
            out._backward = lambda g: ad._accum(t, g * 2.0 * t.data * np.nan)
        return out

    line = verdict("x", 2, grad_check(lambda: ad.sum_all(nan_backward_square(x)), {"x": x}))
    assert not line.passed and line.max_rel_err == np.inf


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

    flagged = {line.name for line in grad_check(f, {"good": good, "bad": bad}) if not line.passed}
    assert flagged == {"bad"}


def test_verdict_passes_only_when_every_line_passed_and_keeps_the_worst_error():
    lines = [CheckLine("a", 3, True, 2e-6), CheckLine("b", 3, False, 5e-3),
             CheckLine("c", 3, True, 1e-5)]
    assert verdict("all", 9, lines) == CheckLine("all", 9, False, 5e-3)
    assert verdict("ok", 6, [lines[0], lines[2]]) == CheckLine("ok", 6, True, 1e-5)
    assert verdict("none", 0, []) == CheckLine("none", 0, True, 0.0)


def test_the_suite_calls_grad_check_through_verify_once_per_trial(monkeypatch):
    """``perfbench/workloads.py`` patches ``verify.grad_check`` and ``verify.check_model``
    and counts one timed ``grad_check`` call per op trial, so the suite must reach both
    through ``verify``'s namespace, and ``gradcheck.grad_check`` (the tracer's name for
    the function) must be that same function."""
    assert importlib.import_module("gliomil.gradcheck").grad_check is verify.grad_check
    calls = []

    def counting(f, *args, **kwargs):
        calls.append(f)
        return grad_check(f, *args, **kwargs)

    monkeypatch.setattr(verify, "grad_check", counting)
    assert verify.check_op("add", trials=3).passed and len(calls) == 3
    calls.clear()
    assert all(line.passed for line in verify.check_model(seeds=1)) and len(calls) == 1
    model_calls = []

    def marked_check_model(*args, **kwargs):
        model_calls.append(kwargs)
        return []

    monkeypatch.setattr(verify, "check_model", marked_check_model)
    ok, lines, _ = verify.run_suite(trials=1, model_seeds=2)
    assert ok and model_calls == [{"seeds": 2, "base_seed": 0}]
    assert len(lines) == len(verify.OP_CASES)
