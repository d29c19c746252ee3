import math
from types import SimpleNamespace

import numpy as np
import pytest

from gliomil import autodiff as ad
from gliomil.autodiff import Tensor
from gliomil.blocks import attention_pool, init_block, init_pool, transformer_block
from gliomil.gradcheck import grad_check
from gliomil.model import _walk


def block(seed, k):
    return init_block(np.random.default_rng(seed), k)


def pool_weights(x, p):
    """The (N, 1) attention weights the pool's forward computes, as a flat array."""
    *_, a = ad._pool_weights(np.asarray(x, dtype=np.float64), p.v.data, p.w.data)
    return a.ravel()


class TestTransformerBlock:
    def test_preserves_shape(self):
        x = Tensor(np.random.default_rng(0).normal(size=(7, 4)))
        assert transformer_block(x, block(1, 4)).data.shape == (7, 4)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 5))
        p = block(3, 5)
        perm = rng.permutation(6)
        out = transformer_block(Tensor(x), p).data
        out_perm = transformer_block(Tensor(x[perm]), p).data
        assert np.allclose(out_perm, out[perm], atol=1e-12)

    def test_zeroed_projections_give_identity(self):
        """Zero attention-output and zero second FFN weights: pure residual."""
        p = block(4, 5)
        p.wo.data[:] = 0.0
        p.ffn_w2.data[:] = 0.0
        p.ffn_b2.data[:] = 0.0
        x = np.random.default_rng(5).normal(size=(4, 5))
        out = transformer_block(Tensor(x), p).data
        assert np.allclose(out, x, atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(-2, 2, size=(5, 8)))
        p = block(7, 8)
        params = {}
        _walk(p, "p", params)
        target = Tensor(rng.normal(size=(5, 8)))

        def f():
            return ad.mse(transformer_block(x, p), target)

        report = grad_check(f, params)
        assert report.passed, report.summary()

    def test_stacks_compose(self):
        x = Tensor(np.random.default_rng(8).normal(size=(9, 4)))
        h = x
        for i in range(3):
            h = transformer_block(h, block(10 + i, 4))
        assert h.data.shape == (9, 4)


class TestAttentionPool:
    def test_hand_worked_example(self):
        """Two patches, identity scoring basis: only the first score column counts."""
        p = SimpleNamespace(v=Tensor(np.eye(2)), w=Tensor(np.array([[1.0], [0.0]])))
        x = Tensor(np.array([[0.0, 0.0], [10.0, 0.0]]))
        z, a = attention_pool(x, p), pool_weights(x.data, p)
        t = math.tanh(10.0)
        expect = np.exp([0.0, t]) / np.exp([0.0, t]).sum()
        assert np.allclose(a, expect, atol=1e-12)
        assert a[1] == pytest.approx(0.7311, abs=1e-4)
        assert np.allclose(z.data.ravel(), [expect[1] * 10.0, 0.0], atol=1e-12)

    def test_weights_positive_and_sum_to_one(self):
        rng = np.random.default_rng(11)
        p = init_pool(rng, 6)
        for _ in range(20):
            a = pool_weights(rng.normal(scale=3.0, size=(13, 6)), p)
            assert np.all(a > 0)
            assert abs(a.sum() - 1.0) < 1e-12

    def test_single_patch_passes_through(self):
        p = init_pool(np.random.default_rng(12), 4)
        x = np.random.default_rng(13).normal(size=(1, 4))
        z, a = attention_pool(Tensor(x), p), pool_weights(x, p)
        assert a[0] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(z.data, x, atol=1e-15)

    def test_identical_rows_pool_to_that_row(self):
        p = init_pool(np.random.default_rng(14), 5)
        row = np.random.default_rng(15).normal(size=5)
        x = Tensor(np.tile(row, (8, 1)))
        z, a = attention_pool(x, p), pool_weights(x.data, p)
        assert np.allclose(a, 1 / 8, atol=1e-12)
        assert np.allclose(z.data.ravel(), row, atol=1e-12)

    def test_summary_in_convex_hull(self):
        rng = np.random.default_rng(16)
        p = init_pool(rng, 3)
        x = rng.normal(size=(10, 3))
        z = attention_pool(Tensor(x), p)
        assert np.all(z.data.ravel() <= x.max(axis=0) + 1e-12)
        assert np.all(z.data.ravel() >= x.min(axis=0) - 1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        p = init_pool(rng, 4)
        x = Tensor(rng.uniform(-2, 2, size=(6, 4)), requires_grad=True)
        params = {}
        _walk(p, "p", params)
        params["x"] = x

        def f():
            z = attention_pool(x, p)
            return ad.sum_all(ad.mul(z, Tensor(np.linspace(0.5, 1.5, 4).reshape(1, 4))))

        report = grad_check(f, params)
        assert report.passed, report.summary()
