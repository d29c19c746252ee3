import numpy as np
import pytest

from gliomil import autodiff as ad
from gliomil.autodiff import Tensor, backward
from gliomil.disentangle import (
    DisentangledFeatures,
    disentangle,
    disentangle_loss,
    init_disentangler,
)
from gliomil.model import _walk
from gliomil.verify import format_lines, grad_check


def features(seed, n=5, k=4):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(n, k))), Tensor(rng.normal(size=(n, k)))


class TestDisentangle:
    def test_output_shapes(self):
        low, high = features(0)
        d = disentangle(low, high, init_disentangler(np.random.default_rng(1), 4))
        for f in (d.shared_mol, d.indep_mol, d.shared_his, d.indep_his,
                  d.fused_mol, d.fused_his):
            assert f.data.shape == (5, 4)

    def test_rejects_mismatched_magnifications(self):
        p = init_disentangler(np.random.default_rng(2), 4)
        with pytest.raises(ad.ShapeError):
            disentangle(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 4))), p)

    def test_gradients_match_finite_differences(self):
        low, high = features(3)
        p = init_disentangler(np.random.default_rng(4), 4)
        params = {}
        _walk(p, "p", params)
        rng = np.random.default_rng(5)
        t1, t2 = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 4)))

        def f():
            d = disentangle(low, high, p)
            return ad.add(ad.add(ad.mse(d.fused_mol, t1), ad.mse(d.fused_his, t2)),
                          disentangle_loss(d))

        lines = grad_check(f, params)
        assert all(line.passed for line in lines), format_lines(lines)


class TestDisentangleLoss:
    def hand_features(self, shared_gap, indep_gap, fuse_gap_mol, fuse_gap_his):
        """Build a DisentangledFeatures with prescribed difference norms."""
        z = Tensor(np.zeros((1, 2)))

        def vec(norm):
            return Tensor(np.array([[norm, 0.0]]))

        return DisentangledFeatures(
            shared_mol=vec(shared_gap), shared_his=z,
            indep_mol=vec(indep_gap), indep_his=z,
            fused_mol=vec(indep_gap - fuse_gap_mol), fused_his=vec(-fuse_gap_his),
        )

    def test_hand_value(self):
        # numerator norm 5, three denominator terms of norm 1 each
        d = self.hand_features(5.0, 1.0, 1.0, 1.0)
        assert disentangle_loss(d).item() == pytest.approx(5 / 3, rel=1e-7)

    def test_identical_shared_components_give_zero(self):
        low, high = features(6)
        p = init_disentangler(np.random.default_rng(7), 4)
        d = disentangle(low, high, p)
        d = DisentangledFeatures(
            shared_mol=d.shared_mol, shared_his=d.shared_mol,
            indep_mol=d.indep_mol, indep_his=d.indep_his,
            fused_mol=d.fused_mol, fused_his=d.fused_his,
        )
        assert disentangle_loss(d).item() == 0.0

    def test_nonnegative_on_random_inputs(self):
        for seed in range(20):
            low, high = features(100 + seed)
            p = init_disentangler(np.random.default_rng(200 + seed), 4)
            assert disentangle_loss(disentangle(low, high, p)).item() >= 0.0

    def test_descent_is_monotone_in_windows(self):
        """200 plain-gradient steps at lr 1e-3: non-increasing over any 10-step window."""
        low, high = features(8, n=6, k=4)
        p = init_disentangler(np.random.default_rng(9), 4)
        params = {}
        _walk(p, "p", params)
        history = []
        for _ in range(201):
            for t in params.values():
                t.grad = None
            loss = disentangle_loss(disentangle(low, high, p))
            history.append(loss.item())
            backward(loss)
            for t in params.values():
                if t.grad is not None:
                    t.data -= 1e-3 * t.grad
        assert all(np.isfinite(history))
        for i in range(len(history) - 10):
            assert history[i + 10] <= history[i] + 1e-12, f"window at step {i} increased"
        assert history[-1] < history[0]
