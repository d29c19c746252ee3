import weakref

import numpy as np
import pytest

from gliomil import autodiff as ad
from gliomil.autodiff import Tensor, backward, no_grad


def t(arr, rg=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


def grads_of(loss, *tensors):
    for x in tensors:
        x.grad = None
    backward(loss)
    return [x.grad if x.grad is not None else np.zeros_like(x.data) for x in tensors]


class TestForwardValues:
    def test_softmax_uniform_on_equal_logits(self):
        y = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(y.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_softmax_sums_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = Tensor(rng.uniform(-30, 30, size=(4, 7)))
            y = ad.softmax(x, axis=1)
            assert np.all(y.data > 0)
            assert np.max(np.abs(y.data.sum(axis=1) - 1.0)) < 1e-12

    def test_softmax_max_shift_stable(self):
        y = ad.softmax(Tensor([1000.0, 1000.0]), axis=0)
        assert np.allclose(y.data, [0.5, 0.5])

    def test_layer_norm_zero_mean_unit_var(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(5, 8)))
        y = ad.layer_norm(x)
        assert np.max(np.abs(y.data.mean(axis=-1))) < 1e-12
        # variance slightly under 1 because of the eps in the denominator
        assert np.max(np.abs(y.data.var(axis=-1) - 1.0)) < 1e-4

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        assert np.array_equal(ad.matmul(Tensor(a), Tensor(b)).data, a @ b)

    def test_concat_narrow_roundtrip(self):
        a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])
        cat = ad.concat([a, b], axis=0)
        assert np.array_equal(cat.data, [[1, 2], [3, 4]])
        back = ad.narrow(cat, 0, 1, 1)
        assert np.array_equal(back.data, [[3, 4]])

    def test_cosine_parallel_and_orthogonal(self):
        assert ad.cosine(Tensor([1.0, 2.0]), Tensor([2.0, 4.0])).item() == pytest.approx(1.0)
        assert ad.cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == pytest.approx(0.0)

    def test_cosine_zero_norm_is_zero(self):
        assert ad.cosine(Tensor([0.0, 0.0]), Tensor([1.0, 2.0])).item() == 0.0

    def test_cross_entropy_matches_log_softmax(self):
        logits = np.array([0.3, -1.2, 2.0, 0.0])
        loss = ad.softmax_cross_entropy(Tensor(logits), 2)
        probs = np.exp(logits) / np.exp(logits).sum()
        assert loss.item() == pytest.approx(-np.log(probs[2]), abs=1e-12)


class TestShapeRules:
    def test_elementwise_mismatch_raises(self):
        with pytest.raises(ad.ShapeError, match="add"):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_no_row_broadcast(self):
        with pytest.raises(ad.ShapeError):
            ad.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3))))

    def test_scalar_tensor_mixing_allowed(self):
        y = ad.mul(Tensor(2.0), Tensor(np.ones((2, 2))))
        assert np.array_equal(y.data, 2 * np.ones((2, 2)))

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_repeat_rows_needs_row_vector(self):
        with pytest.raises(ad.ShapeError):
            ad.repeat_rows(Tensor(np.zeros((2, 3))), 4)

    def test_backward_rejects_nonscalar(self):
        x = t(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            backward(ad.add(x, x))


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = t(np.arange(6, dtype=float).reshape(2, 3))
        (g,) = grads_of(ad.sum_all(x), x)
        assert np.array_equal(g, np.ones((2, 3)))

    def test_dot_gradient_is_two_x(self):
        x = t([1.0, -2.0, 3.0])
        (g,) = grads_of(ad.sum_all(ad.mul(x, x)), x)
        assert np.allclose(g, 2 * x.data, atol=1e-15)

    def test_nonparticipating_leaf_gets_zero(self):
        x, y = t([1.0, 2.0]), t([3.0, 4.0])
        gx, gy = grads_of(ad.sum_all(x), x, y)
        assert np.array_equal(gx, np.ones(2))
        assert np.array_equal(gy, np.zeros(2))

    def test_backward_linearity(self):
        rng = np.random.default_rng(7)
        x = t(rng.normal(size=(3, 3)))

        def loss_a():
            return ad.sum_all(ad.tanh(x))

        def loss_b():
            return ad.mse(x, Tensor(np.ones((3, 3))))

        (ga,) = grads_of(loss_a(), x)
        (gb,) = grads_of(loss_b(), x)
        (gab,) = grads_of(ad.add(loss_a(), loss_b()), x)
        assert np.max(np.abs(gab - (ga + gb))) < 1e-10

    def test_shared_subexpression_accumulates(self):
        x = t([2.0])
        y = ad.mul(x, x)
        loss = ad.sum_all(ad.add(y, y))
        (g,) = grads_of(loss, x)
        assert g[0] == pytest.approx(8.0)

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(4, 4))

        def run():
            x = t(data.copy())
            w = t(np.eye(4))
            loss = ad.mean_all(ad.relu(ad.matmul(x, w)))
            backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        la, xa, wa = run()
        lb, xb, wb = run()
        assert np.array_equal(la, lb) and np.array_equal(xa, xb) and np.array_equal(wa, wb)

    def test_no_grad_blocks_recording(self):
        x = t([1.0, 2.0])
        with no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad and y._parents == ()


class TestGraphRelease:
    def test_only_leaves_keep_grads(self):
        x = t([[1.0, -2.0], [0.5, 3.0]])
        h = ad.tanh(x)
        y = ad.mul(h, h)
        loss = ad.sum_all(y)
        backward(loss)
        assert np.allclose(x.grad, 2.0 * np.tanh(x.data) * (1.0 - np.tanh(x.data) ** 2))
        for node in (h, y, loss):
            assert node.grad is None and node._parents == ()

    def test_interior_array_dies_with_the_loss(self):
        x = t(np.arange(6.0).reshape(2, 3))
        h = ad.tanh(x)
        interior = weakref.ref(h.data)
        y = ad.mul(h, h)          # kept, as a caller keeps a forward's outputs
        loss = ad.sum_all(y)
        del h
        backward(loss)
        del loss
        assert interior() is None
        assert y.data.shape == (2, 3) and x.grad is not None

    def test_second_backward_raises(self):
        x = t([1.0, 2.0])
        loss = ad.sum_all(ad.mul(x, x))
        backward(loss)
        with pytest.raises(ad.GraphConsumedError, match="already consumed"):
            backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_new_graph_on_a_consumed_node_raises(self):
        x = t([1.0, 2.0])
        y = ad.mul(x, x)
        backward(ad.sum_all(y))
        with pytest.raises(ad.GraphConsumedError):
            backward(ad.sum_all(ad.tanh(y)))


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


def _assert_bitwise(fused, composed):
    for f, c in zip(fused, composed, strict=True):
        assert _bits(f) == _bits(c)


def _linear_by_ops(x, w, b, relu=False):
    out = ad.add(ad.matmul(x, w), ad.repeat_rows(b, x.data.shape[0]))
    return ad.relu(out) if relu else out


def _mlp_by_ops(x, w1, b1, w2, b2):
    """The chain a disentangler head's ``mlp`` replaces."""
    return _linear_by_ops(_linear_by_ops(x, w1, b1, relu=True), w2, b2)


def _affine_norm_by_ops(x, gain, bias):
    n = x.data.shape[0]
    return ad.add(ad.mul(ad.layer_norm(x), ad.repeat_rows(gain, n)), ad.repeat_rows(bias, n))


def _attention_by_five_ops(q, k, v, c):
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), c)
    return ad.matmul(ad.softmax(scores, axis=1), v)


def _attention_sublayer_by_ops(x, gain, bias, wq, wk, wv, wo, c):
    """The 11-node chain of a transformer block's attention sub-layer."""
    h = _affine_norm_by_ops(x, gain, bias)
    attn = _attention_by_five_ops(ad.matmul(h, wq), ad.matmul(h, wk), ad.matmul(h, wv), c)
    return ad.add(x, ad.matmul(attn, wo))


def _ffn_sublayer_by_ops(x, gain, bias, w1, b1, w2, b2):
    """The chain of a transformer block's feed-forward sub-layer."""
    f = _linear_by_ops(_affine_norm_by_ops(x, gain, bias), w1, b1, relu=True)
    return ad.add(x, _linear_by_ops(f, w2, b2))


def _block_by_ops(x, gain1, bias1, wq, wk, wv, wo, gain2, bias2, w1, b1, w2, b2, c):
    """The chain a ``transformer_block`` replaces: attention, then the feed-forward."""
    mid = _attention_sublayer_by_ops(x, gain1, bias1, wq, wk, wv, wo, c)
    return _ffn_sublayer_by_ops(mid, gain2, bias2, w1, b1, w2, b2)


def _attention_pool_by_ops(x, v, w):
    """The seven-node chain an ``attention_pool`` replaces."""
    scores = ad.matmul(ad.tanh(ad.matmul(x, ad.transpose(v))), w)
    return ad.matmul(ad.transpose(ad.softmax(scores, axis=0)), x)


BLOCK_PARAM_SHAPES = [(1, 6), (1, 6), (6, 6), (6, 6), (6, 6), (6, 6),     # attention half
                      (1, 6), (1, 6), (6, 12), (1, 12), (12, 6), (1, 6)]  # feed-forward half


def _block_arrays(rng, n):
    """Input rows and parameters for one ``transformer_block``, at width 6 (hidden width 12)."""
    return [rng.normal(size=(n, 6))] + [rng.normal(scale=0.5, size=s) for s in BLOCK_PARAM_SHAPES]


def _run_op(op, arrays, weight, *extra):
    """Forward value and every input's gradient of ``sum(op(...) * weight)``."""
    ts = [t(a.copy()) for a in arrays]
    out = op(*ts, *extra)
    value = out.data.copy()
    backward(ad.sum_all(ad.mul(out, weight)))
    return [value] + [x.grad for x in ts]


SUBLAYER_ROWS = [1, 2, 3, 7, 17, 64]


class TestFusedAttention:
    """``transformer_block`` equals its chain (five-op attention inside, then the
    feed-forward), bit for bit."""

    @pytest.mark.parametrize("n", SUBLAYER_ROWS)
    def test_bitwise_equal_to_the_five_op_composition(self, n):
        rng = np.random.default_rng(n)
        arrays = _block_arrays(rng, n)
        weight = Tensor(rng.normal(size=(n, 6)))
        c = 1.0 / np.sqrt(6)
        _assert_bitwise(_run_op(ad.transformer_block, arrays, weight, c),
                        _run_op(_block_by_ops, arrays, weight, c))

    def test_shared_input_accumulates_in_the_same_order(self):
        # the model's layout: a block's input also feeds other layers (here a
        # tanh term whose gradient reaches it first, so the order of the
        # block's two contributions shows), two blocks run in sequence, and
        # every bag of a batch shares the parameters
        rng = np.random.default_rng(4)
        xs_data = [rng.normal(size=(n, 6)) for n in (17, 3, 1)]
        rows = [_block_arrays(rng, 1)[1:] for _ in range(2)]

        def run(block):
            xs = [t(x.copy()) for x in xs_data]
            params = [[t(a.copy()) for a in layer] for layer in rows]
            loss = None
            for x in xs:
                h = block(block(x, *params[0], 0.4), *params[1], 0.4)
                term = ad.add(ad.sum_all(ad.tanh(x)), ad.sum_all(ad.tanh(h)))
                loss = term if loss is None else ad.add(loss, term)
            backward(loss)
            return [x.grad for x in xs] + [p.grad for layer in params for p in layer]

        _assert_bitwise(run(ad.transformer_block), run(_block_by_ops))

    def test_shape_mismatch_raises(self):
        x, row, w = Tensor(np.zeros((3, 4))), Tensor(np.ones((1, 4))), Tensor(np.eye(4))
        ffn = (row, row, Tensor(np.zeros((4, 8))), Tensor(np.zeros((1, 8))),
               Tensor(np.zeros((8, 4))), row)
        with pytest.raises(ad.ShapeError, match="transformer_block: expects a 2-d input"):
            ad.transformer_block(Tensor(np.zeros(4)), row, row, w, w, w, w, *ffn, 1.0)
        with pytest.raises(ad.ShapeError, match="transformer_block: wk"):
            ad.transformer_block(x, row, row, w, Tensor(np.zeros((4, 3))), w, w, *ffn, 1.0)
        with pytest.raises(ad.ShapeError, match="transformer_block: wo"):
            ad.transformer_block(x, row, row, w, w, Tensor(np.zeros((4, 2))), w, *ffn, 1.0)
        with pytest.raises(ad.ShapeError, match="transformer_block: wq must be 2-d"):
            ad.transformer_block(x, row, row, Tensor(np.zeros(4)), w, w, w, *ffn, 1.0)
        with pytest.raises(ad.ShapeError, match="transformer_block: w2"):
            ad.transformer_block(x, row, row, w, w, w, w, *ffn[:4], Tensor(np.zeros((4, 4))),
                                 row, 1.0)


def _graph_mix_row_by_ops(projected, coeffs, residual, alpha):
    acc = ad.scale(projected[0], float(coeffs[0]))
    for p, c in zip(projected[1:], coeffs[1:]):
        acc = ad.add(acc, ad.scale(p, float(c)))
    return ad.add(ad.scale(ad.relu(acc), alpha), residual)


class TestFusedRowOps:
    """Each fused row-wise op equals the chain of ops it replaces, bit for bit."""

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_linear_bitwise_equal_to_its_composition(self, n, relu):
        # with ``relu``, the ReLU linear as the model runs it: the first layer of an ``mlp``
        rng = np.random.default_rng(n)
        arrays = rng.normal(size=(n, 5)), rng.normal(size=(5, 4)), rng.normal(size=(1, 4))
        if relu:
            arrays += rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
        weight = Tensor(rng.normal(size=(n, 3 if relu else 4)))
        fused, chain = (ad.mlp, _mlp_by_ops) if relu else (ad.linear, _linear_by_ops)
        _assert_bitwise(_run_op(fused, arrays, weight), _run_op(chain, arrays, weight))

    @pytest.mark.parametrize("n", SUBLAYER_ROWS)
    def test_affine_norm_bitwise_equal_to_its_composition(self, n):
        # the affine norms run inside the block; here on rows far from zero
        # mean and unit deviation, so the normalisation does real work
        rng = np.random.default_rng(n + 100)
        arrays = _block_arrays(rng, n)
        arrays[0] = 40.0 + 9.0 * arrays[0]
        weight = Tensor(rng.normal(size=(n, 6)))
        _assert_bitwise(_run_op(ad.transformer_block, arrays, weight, 0.3),
                        _run_op(_block_by_ops, arrays, weight, 0.3))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_attention_pool_bitwise_equal_to_its_composition(self, n):
        rng = np.random.default_rng(n + 300)
        arrays = rng.normal(size=(n, 6)), rng.normal(size=(6, 6)), rng.normal(size=(6, 1))
        weight = Tensor(rng.normal(size=(1, 6)))
        _assert_bitwise(_run_op(ad.attention_pool, arrays, weight),
                        _run_op(_attention_pool_by_ops, arrays, weight))

    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_graph_mix_row_bitwise_equal_to_its_composition(self, n):
        rng = np.random.default_rng(n + 200)
        arrays = [rng.normal(size=(n, 4)) for _ in range(4)]
        coeffs = rng.uniform(0.0, 1.0, size=3)
        weight = Tensor(rng.normal(size=(n, 4)))

        def run(mix):
            p0, p1, p2, r = (t(a.copy()) for a in arrays)
            out = mix([p0, p1, p2], coeffs, r, 0.3)
            value = out.data.copy()
            backward(ad.sum_all(ad.mul(out, weight)))
            return value, p0.grad, p1.grad, p2.grad, r.grad

        _assert_bitwise(run(ad.graph_mix_row), run(_graph_mix_row_by_ops))

    def test_linear_shared_weights_accumulate_in_the_same_order(self):
        # the model's layout: every bag of a batch runs through the same two
        # layers, and here one weight matrix also serves both layers of the mlp
        rng = np.random.default_rng(5)
        xs_data = [rng.normal(size=(n, 6)) for n in (17, 3, 1)]
        ws_data = rng.normal(size=(6, 6)), rng.normal(size=(1, 6)), rng.normal(size=(1, 6))

        def run(mlp):
            xs = [t(x.copy()) for x in xs_data]
            w, b1, b2 = (t(a.copy()) for a in ws_data)
            loss = None
            for x in xs:
                term = ad.sum_all(ad.tanh(mlp(x, w, b1, w, b2)))
                loss = term if loss is None else ad.add(loss, term)
            backward(loss)
            return [x.grad for x in xs] + [w.grad, b1.grad, b2.grad]

        _assert_bitwise(run(ad.mlp), run(_mlp_by_ops))

    def test_affine_norm_shared_gain_accumulates_in_the_same_order(self):
        # a transformer block's pattern for each bag of a batch: each half's
        # input feeds both its norm and its residual sum, and every bag shares
        # the gain and bias rows and the weights
        rng = np.random.default_rng(6)
        xs_data = [rng.normal(size=(n, 6)) for n in (17, 3, 1)]
        rows = _block_arrays(rng, 1)[1:]

        def run(block):
            xs = [t(x.copy()) for x in xs_data]
            params = [t(a.copy()) for a in rows]
            loss = None
            for x in xs:
                term = ad.sum_all(ad.tanh(block(x, *params, 0.4)))
                loss = term if loss is None else ad.add(loss, term)
            backward(loss)
            return [x.grad for x in xs] + [p.grad for p in params]

        _assert_bitwise(run(ad.transformer_block), run(_block_by_ops))

    def test_attention_pool_shared_input_accumulates_in_the_same_order(self):
        # the model's layout: a branch's pooled rows also feed its patch
        # confidences (through the summary) and a tanh term, and every bag of
        # a batch shares the scoring basis and weights
        rng = np.random.default_rng(10)
        xs_data = [rng.normal(size=(n, 6)) for n in (17, 3, 1)]
        vw_data = rng.normal(size=(6, 6)), rng.normal(size=(6, 1))
        col = Tensor(rng.normal(size=(6, 1)))

        def run(pool):
            xs = [t(x.copy()) for x in xs_data]
            v, w = (t(a.copy()) for a in vw_data)
            loss = None
            for x in xs:
                z = pool(x, v, w)
                conf = ad.matmul(ad.mul(x, ad.repeat_rows(z, x.data.shape[0])), col)
                term = ad.add(ad.sum_all(ad.tanh(x)),
                              ad.add(ad.sum_all(ad.tanh(z)), ad.sum_all(ad.tanh(conf))))
                loss = term if loss is None else ad.add(loss, term)
            backward(loss)
            return [x.grad for x in xs] + [v.grad, w.grad]

        _assert_bitwise(run(ad.attention_pool), run(_attention_pool_by_ops))

    def test_graph_mix_shared_projection_accumulates_in_the_same_order(self):
        # the layout of heads.graph_mix: three rows read one shared weight
        # through three projections, and each row's residual is its own input
        rng = np.random.default_rng(7)
        feats_data = [rng.normal(size=(17, 4)) for _ in range(3)]
        w_data = rng.normal(size=(4, 4))
        a = rng.uniform(0.0, 1.0, size=(3, 3))

        def run(mix):
            feats = [t(f.copy()) for f in feats_data]
            w = t(w_data.copy())
            projected = [ad.matmul(f, w) for f in feats]
            outs = [mix(projected, a[i], ad.scale(f, 0.4), 0.6) for i, f in enumerate(feats)]
            loss = ad.sum_all(ad.tanh(outs[0]))
            for o in outs[1:]:
                loss = ad.add(loss, ad.sum_all(ad.tanh(o)))
            backward(loss)
            return [o.data for o in outs] + [f.grad for f in feats] + [w.grad]

        _assert_bitwise(run(ad.graph_mix_row), run(_graph_mix_row_by_ops))

    def test_fused_ops_leave_their_inputs_unchanged(self):
        # each overwrites its own scratch in place (the attention's (N, N)
        # scores, the ReLU rows), never an input
        rng = np.random.default_rng(12)
        mlp_shapes = (9, 5), (5, 8), (1, 8), (8, 4), (1, 4)
        pool_shapes = (9, 5), (3, 5), (3, 1)
        for op, arrays, extra in (
                (ad.transformer_block, _block_arrays(rng, 17), (0.4,)),
                (ad.mlp, [rng.normal(size=s) for s in mlp_shapes], ()),
                (ad.attention_pool, [rng.normal(size=s) for s in pool_shapes], ())):
            ts = [t(a.copy()) for a in arrays]
            backward(ad.sum_all(op(*ts, *extra)))
            assert all(_bits(x.data) == _bits(a) for x, a in zip(ts, arrays))

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (1, 3), (1, 4, 1)])
    def test_linear_bias_must_be_a_row(self, shape):
        with pytest.raises(ad.ShapeError, match="linear: bias"):
            ad.linear(Tensor(np.zeros((3, 5))), Tensor(np.zeros((5, 4))), Tensor(np.zeros(shape)))

    def test_linear_inner_mismatch(self):
        with pytest.raises(ad.ShapeError, match="linear"):
            ad.linear(Tensor(np.zeros((3, 5))), Tensor(np.zeros((4, 4))),
                      Tensor(np.zeros((1, 4))))

    def test_mlp_and_pool_shape_errors(self):
        x, row = Tensor(np.zeros((3, 5))), Tensor(np.zeros((1, 4)))
        with pytest.raises(ad.ShapeError, match="mlp: w1"):
            ad.mlp(x, Tensor(np.zeros((4, 4))), row, Tensor(np.zeros((4, 2))), row)
        with pytest.raises(ad.ShapeError, match="mlp: b2"):
            ad.mlp(x, Tensor(np.zeros((5, 4))), row, Tensor(np.zeros((4, 2))), row)
        with pytest.raises(ad.ShapeError, match="attention_pool: expects a 2-d input"):
            ad.attention_pool(Tensor(np.zeros(5)), Tensor(np.zeros((3, 5))),
                              Tensor(np.zeros((3, 1))))
        with pytest.raises(ad.ShapeError, match="attention_pool: v"):
            ad.attention_pool(x, Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 1))))
        with pytest.raises(ad.ShapeError, match="attention_pool: w"):
            ad.attention_pool(x, Tensor(np.zeros((3, 5))), Tensor(np.zeros((2, 1))))

    @pytest.mark.parametrize("shape", [(6,), (2, 6), (1, 5), (6, 1)])
    def test_affine_norm_gain_and_bias_must_be_rows(self, shape):
        rng = np.random.default_rng(8)
        x, *params = [Tensor(a) for a in _block_arrays(rng, 3)]
        for i, name in ((0, "gain1"), (1, "bias1"), (6, "gain2"), (7, "bias2")):
            bad = params[:i] + [Tensor(np.ones(shape))] + params[i + 1:]
            with pytest.raises(ad.ShapeError, match=f"transformer_block: {name}"):
                ad.transformer_block(x, *bad, 1.0)

    def test_graph_mix_row_shape_errors(self):
        p = [Tensor(np.zeros((3, 4))) for _ in range(3)]
        with pytest.raises(ad.ShapeError, match="graph_mix_row"):
            ad.graph_mix_row(p, [1.0, 1.0], Tensor(np.zeros((3, 4))), 0.5)
        with pytest.raises(ad.ShapeError, match="graph_mix_row"):
            ad.graph_mix_row(p, [1.0, 1.0, 1.0], Tensor(np.zeros((1, 4))), 0.5)


class TestCosineGram:
    def test_entries_match_pairwise_cosine(self):
        rng = np.random.default_rng(30)
        blocks = [Tensor(rng.normal(size=(4, 3))) for _ in range(3)]
        gram = ad.cosine_gram(blocks).data
        assert gram.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                cos = ad.cosine(blocks[i], blocks[j]).item()
                assert gram[i, j] == pytest.approx(cos, abs=1e-15)

    def test_zero_block_gives_zero_entries_and_no_gradient(self):
        rng = np.random.default_rng(31)
        arrays = [np.zeros((2, 3)), rng.normal(size=(2, 3)), rng.normal(size=(2, 3))]
        weight = rng.normal(size=(3, 3))
        blocks = [t(a) for a in arrays]
        gram = ad.cosine_gram(blocks)
        assert not np.any(gram.data[0]) and not np.any(gram.data[:, 0])
        backward(ad.sum_all(ad.mul(gram, Tensor(weight))))
        assert not np.any(blocks[0].grad)
        # the other blocks get what the gram of the nonzero blocks alone gives them
        rest = [t(a) for a in arrays[1:]]
        backward(ad.sum_all(ad.mul(ad.cosine_gram(rest), Tensor(weight[1:, 1:]))))
        for b, r in zip(blocks[1:], rest):
            np.testing.assert_allclose(b.grad, r.grad, rtol=0, atol=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ad.ShapeError, match="cosine_gram"):
            ad.cosine_gram([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))])


def test_first_gradient_turns_negative_zero_into_zero():
    # a leaf's first gradient is g + 0.0, so a -0.0 in g lands as +0.0
    x = t([1.0, 2.0])
    backward(ad.sum_all(ad.mul(x, Tensor([-0.0, -0.0]))))
    assert np.array_equal(x.grad, [0.0, 0.0]) and not np.any(np.signbit(x.grad))
