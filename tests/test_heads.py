import numpy as np
import pytest

from gliomil import autodiff as ad
from gliomil.autodiff import Tensor
from gliomil.config import HISTOLOGY
from gliomil.heads import (
    BranchState,
    correlation_loss,
    fusion_classify,
    graph_mix,
    histology_forward,
    init_branch,
    init_molecular,
    molecular_forward,
    refine,
)
from gliomil.model import _walk
from gliomil.synth import estimate_cooccurrence
from gliomil.verify import format_lines, grad_check


def rand_feats(seed, n=3, k=4, count=3):
    rng = np.random.default_rng(seed)
    return tuple(Tensor(rng.normal(size=(n, k))) for _ in range(count))


class TestGraphMix:
    def test_matches_direct_einsum(self):
        rng = np.random.default_rng(0)
        feats = rand_feats(1, n=2, k=2)
        a = estimate_cooccurrence(np.array([[1, 1, 0], [1, 0, 0], [0, 0, 0], [1, 1, 0]])).a
        w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        alpha = 0.5
        out = graph_mix(feats, a, w, alpha)
        stacked = np.stack([f.data for f in feats])
        mid = np.maximum(np.einsum("ij,jnk,kl->inl", a, stacked, w.data), 0.0)
        expect = alpha * mid + (1 - alpha) * stacked
        for i in range(3):
            assert np.allclose(out[i].data, expect[i], atol=1e-12)

    def test_alpha_zero_returns_input(self):
        feats = rand_feats(2)
        w = Tensor(np.random.default_rng(3).normal(size=(4, 4)))
        out = graph_mix(feats, np.eye(3), w, 0.0)
        for f_in, f_out in zip(feats, out):
            assert np.array_equal(f_out.data, f_in.data)

    def test_alpha_one_returns_pure_graph_output(self):
        feats = rand_feats(4)
        w = Tensor(np.random.default_rng(5).normal(size=(4, 4)))
        a = np.full((3, 3), 0.5)
        out = graph_mix(feats, a, w, 1.0)
        stacked = np.stack([f.data for f in feats])
        mid = np.maximum(np.einsum("ij,jnk,kl->inl", a, stacked, w.data), 0.0)
        for i in range(3):
            assert np.allclose(out[i].data, mid[i], atol=1e-12)

    def test_rejects_bad_adjacency(self):
        with pytest.raises(ValueError, match="3x3"):
            graph_mix(rand_feats(6), np.eye(2), Tensor(np.eye(4)), 0.5)


class TestCorrelationLoss:
    def test_zero_when_cosines_equal_adjacency(self):
        # identical blocks have pairwise cosine 1 everywhere; an all-ones
        # adjacency (all markers always jointly positive) matches exactly
        f = Tensor(np.random.default_rng(7).normal(size=(3, 4)))
        loss = correlation_loss((f, f, f), np.ones((3, 3)))
        assert loss.item() <= 1e-12

    def test_matches_directly_computed_cosine_table(self):
        f0 = Tensor(np.array([[1.0, 0.0]]))
        f1 = Tensor(np.array([[0.0, 1.0]]))
        a = np.eye(3)
        a[0, 1] = a[1, 0] = 0.3
        loss = correlation_loss((f0, f1, f0), a)
        cos = np.array([
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 1.0],
        ])
        assert loss.item() == pytest.approx(np.mean((cos - a) ** 2), abs=1e-12)

    def test_uniform_gap_value(self):
        # every cosine exactly matches except one symmetric pair off by 0.3
        f0 = Tensor(np.array([[1.0, 0.0]]))
        f1 = Tensor(np.array([[1.0, 0.0]]))
        f2 = Tensor(np.array([[1.0, 1.0]]) / np.sqrt(2.0))
        a = np.ones((3, 3))
        a[0, 2] = a[2, 0] = np.cos(np.pi / 4) - 0.3
        a[1, 2] = a[2, 1] = np.cos(np.pi / 4)
        loss = correlation_loss((f0, f1, f2), a)
        assert loss.item() == pytest.approx(2 * 0.3**2 / 9, abs=1e-12)

    def test_zero_norm_block_counts_as_zero_cosine(self):
        f0 = Tensor(np.zeros((2, 2)))
        f1 = Tensor(np.ones((2, 2)))
        a = np.zeros((3, 3))
        loss = correlation_loss((f0, f1, f1), a)
        # nonzero entries: cos(1,1)=cos(2,2)=cos(1,2)=cos(2,1)=1 vs 0
        assert loss.item() == pytest.approx(4 / 9, abs=1e-12)

    def test_bounded_by_four(self):
        for seed in range(10):
            feats = rand_feats(seed)
            a = np.random.default_rng(seed).uniform(0, 1, size=(3, 3))
            a = 0.5 * (a + a.T)
            assert 0.0 <= correlation_loss(feats, a).item() <= 4.0


def _correlation_loss_by_cosines(feats, adjacency):
    """The loss as nine ``cosine`` chains, one per ordered pair: the reference."""
    a = np.asarray(adjacency, dtype=np.float64)
    terms = []
    for i in range(3):
        for j in range(3):
            gap = ad.sub(ad.cosine(feats[i], feats[j]), float(a[i, j]))
            terms.append(ad.mul(gap, gap))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.scale(total, 1.0 / 9.0)


class TestCorrelationLossMatchesCosineChains:
    @pytest.mark.parametrize("zero_block", [None, 0, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_and_gradients_within_1e12(self, seed, zero_block):
        rng = np.random.default_rng(seed + 40)
        arrays = [rng.normal(size=(7, 5)) for _ in range(3)]
        if zero_block is not None:
            arrays[zero_block][:] = 0.0
        a = rng.uniform(0, 1, size=(3, 3))
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, 1.0)

        def run(loss_fn):
            feats = [Tensor(x.copy(), requires_grad=True) for x in arrays]
            loss = loss_fn(feats, a)
            value = loss.item()
            ad.backward(loss)
            return value, [f.grad if f.grad is not None else np.zeros_like(f.data)
                           for f in feats]

        value, grads = run(correlation_loss)
        ref_value, ref_grads = run(_correlation_loss_by_cosines)
        assert abs(value - ref_value) <= 1e-12
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)


class TestMolecularForward:
    def test_shapes_and_branch_count(self):
        p = init_molecular(np.random.default_rng(8), 4)
        feats = Tensor(np.random.default_rng(9).normal(size=(6, 4)))
        states = molecular_forward(feats, np.eye(3), p, alpha=0.5)
        assert len(states) == 3
        for state in states:
            assert isinstance(state, BranchState)
            assert state.feats.data.shape == (6, 4)
            assert state.pooled.data.shape == (1, 4) and state.logits.data.shape == (1, 2)

    def test_branches_consume_each_other_in_sequence(self):
        """Later branches run on earlier refinements, so corrupting the first
        branch's blocks must change the later branches' features too."""
        rng = np.random.default_rng(10)
        p = init_molecular(rng, 4)
        feats = Tensor(rng.normal(size=(5, 4)))
        before = molecular_forward(feats, np.eye(3), p, alpha=0.5, use_graph=False)
        p.idh.blocks[0].wo.data += 1.0
        after = molecular_forward(feats, np.eye(3), p, alpha=0.5, use_graph=False)
        for i in range(3):
            assert not np.allclose(before[i].feats.data, after[i].feats.data)

    def refined(self, feats, p):
        """The three marker branches' refined rows, before any graph."""
        out, h = [], feats
        for branch in (p.idh, p.codel, p.cdkn):
            h = refine(h, branch)
            out.append(h)
        return out

    def test_no_graph_passes_features_through(self):
        rng = np.random.default_rng(11)
        p = init_molecular(rng, 4)
        feats = Tensor(rng.normal(size=(5, 4)))
        states = molecular_forward(feats, np.eye(3), p, alpha=0.5, use_graph=False)
        for state, rows in zip(states, self.refined(feats, p)):
            np.testing.assert_array_equal(state.feats.data, rows.data)

    def test_graph_reads_out_the_blended_rows(self):
        rng = np.random.default_rng(18)
        p = init_molecular(rng, 4)
        feats = Tensor(rng.normal(size=(5, 4)))
        a = np.full((3, 3), 0.4) + 0.6 * np.eye(3)
        states = molecular_forward(feats, a, p, alpha=0.5)
        blended = graph_mix(self.refined(feats, p), a, p.graph_w, 0.5)
        for state, rows in zip(states, blended):
            np.testing.assert_array_equal(state.feats.data, rows.data)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        p = init_molecular(rng, 3)
        feats = Tensor(rng.uniform(-1, 1, size=(4, 3)))
        a = np.full((3, 3), 0.4) + 0.6 * np.eye(3)
        params = {}
        _walk(p, "p", params)

        def f():
            states = molecular_forward(feats, a, p, alpha=0.5)
            loss = correlation_loss([s.feats for s in states], a)
            for i, s in enumerate(states):
                loss = ad.add(loss, ad.softmax_cross_entropy(s.logits, i % 2))
            return loss

        lines = grad_check(f, params)
        assert all(line.passed for line in lines), format_lines(lines)


class TestHistologyAndFusion:
    def test_histology_shapes(self):
        p = init_branch(np.random.default_rng(13), 4, HISTOLOGY.blocks)
        state = histology_forward(Tensor(np.random.default_rng(14).normal(size=(7, 4))), p)
        assert state.feats.data.shape == (7, 4)
        assert state.pooled.data.shape == (1, 4)
        assert state.logits.data.shape == (1, 2)

    def test_histology_permutation_invariant_summary(self):
        rng = np.random.default_rng(15)
        p = init_branch(rng, 4, HISTOLOGY.blocks)
        x = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        a = histology_forward(Tensor(x), p)
        b = histology_forward(Tensor(x[perm]), p)
        assert np.allclose(a.pooled.data, b.pooled.data, atol=1e-10)
        assert np.allclose(a.logits.data, b.logits.data, atol=1e-10)

    def test_fusion_zero_weights_give_uniform(self):
        rng = np.random.default_rng(16)
        pooled_his = Tensor(rng.normal(size=(1, 4)))
        pooled_mol = tuple(Tensor(rng.normal(size=(1, 4))) for _ in range(3))
        logits = fusion_classify(pooled_his, pooled_mol, Tensor(np.zeros((8, 4))),
                                 Tensor(np.zeros((1, 4))))
        probs = ad.softmax(logits, axis=1).data.ravel()
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_fusion_uses_mean_of_marker_summaries(self):
        rng = np.random.default_rng(17)
        w = Tensor(rng.normal(size=(8, 4)))
        b = Tensor(np.zeros((1, 4)))
        pooled_his = Tensor(rng.normal(size=(1, 4)))
        pooled_mol = tuple(Tensor(rng.normal(size=(1, 4))) for _ in range(3))
        out = fusion_classify(pooled_his, pooled_mol, w, b)
        mol_mean = np.mean([z.data for z in pooled_mol], axis=0)
        joint = np.concatenate([pooled_his.data, mol_mean], axis=1)
        assert np.allclose(out.data, joint @ w.data, atol=1e-12)
