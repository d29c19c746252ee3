"""The flat parameter layout, where every parameter is a view of ``Model.theta``,
and what one bag's recorded graph holds."""
import collections
import dataclasses
import hashlib
import tracemalloc
import types

import numpy as np
import pytest

from gliomil.autodiff import Tensor, backward, no_grad
from gliomil.config import GenConfig, TrainConfig
from gliomil.dataio import read_checkpoint, write_checkpoint
from gliomil.model import Model, ModelConfig
from gliomil.optim import AdamW
from gliomil.synth import estimate_cooccurrence, generate_dataset, marker_table
from gliomil.trainer import batch_loss, train_epoch


def build(feat_dim=6, seed=0):
    return Model(ModelConfig(feat_dim=feat_dim, graph_alpha=0.5, use_graph=True),
                 np.random.default_rng(seed))


def offset_in_theta(model, arr):
    """Index of ``arr``'s first element inside ``model.theta``."""
    start = arr.__array_interface__["data"][0] - model.theta.__array_interface__["data"][0]
    return start // model.theta.itemsize


def assert_views_of_theta(model):
    for name, t in model.params.items():
        assert np.shares_memory(t.data, model.theta), name
        assert t.data.flags.c_contiguous, name


def test_every_parameter_is_a_view_of_theta():
    model = build()
    assert model.theta.dtype == np.float64 and model.theta.ndim == 1
    assert model.theta.flags.c_contiguous
    assert_views_of_theta(model)


# sha256 of theta at init on the stream train_model draws it from; guards the draw order
THETA_AT_INIT = {
    4: "bbcbec1e35f6a6c468eb16924e85e79249e78279fafd85ee94eedff36c14f9eb",
    16: "060468a740742b81732c7a8027e41bf19765331ef4212b2e2d500f1d545e5c07",
    32: "5c6f21d050b240185628d34932e3c5ecf41551ced4d402716c3c6ceccf8b2cd4",
}


@pytest.mark.parametrize("k", sorted(THETA_AT_INIT))
def test_theta_at_init_is_pinned(k):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(11,)))
    theta = Model(ModelConfig(feat_dim=k, graph_alpha=0.5, use_graph=True), rng).theta
    assert hashlib.sha256(theta.tobytes()).hexdigest() == THETA_AT_INIT[k]


def test_parameter_table_is_pinned():
    """Names, shapes and order of the registry, i.e. of a checkpoint's params.

    The theta pins miss two same-shaped parameters trading places (say
    ``wq`` and ``wk``): their draws and registry slots swap together, so
    theta keeps its bytes while attention and the checkpoint names change.
    """
    params = build(feat_dim=4).params
    table = "".join(f"{name} {t.data.shape}\n" for name, t in params.items())
    assert len(params) == 163
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "b9253e62f353e946a005a0565146065ff97f9998d55e1de82934f1549465f8ab")


def test_views_tile_theta_in_registry_order():
    model = build()
    names = list(model.params)
    assert len({id(t) for t in model.params.values()}) == len(names)
    prefixes = [n.split(".", 1)[0] for n in names]
    assert prefixes == sorted(prefixes, key=["his", "mol", "disent", "fusion"].index)
    offset = 0
    for name in names:
        data = model.params[name].data
        assert offset_in_theta(model, data) == offset, name
        offset += data.size
    assert offset == model.theta.size


def test_groups_are_the_spans_of_the_branch_parameters():
    model = build()

    def span(prefix):
        views = [t.data for n, t in model.params.items() if n.startswith(prefix)]
        start = offset_in_theta(model, views[0])
        return slice(start, start + sum(v.size for v in views))

    assert model.groups == {"histology": span("his."), "molecular": span("mol.")}
    assert model.groups["histology"].start == 0
    assert model.groups["histology"].stop == model.groups["molecular"].start
    theta = model.theta.copy()
    model.params["mol.idh.clf_b"].data[...] = 123.0
    changed = np.flatnonzero(model.theta != theta)
    assert changed.size and all(
        model.groups["molecular"].start <= i < model.groups["molecular"].stop for i in changed
    )


def test_gradient_set_is_flat_in_theta_layout():
    model = build()
    model.grad[...] = -1.0
    model.zero_grads()
    for i, t in enumerate(model.params.values()):
        assert np.shares_memory(t.grad, model.grad) and t.grad.shape == t.data.shape
        if i % 3:
            t.grad += float(i)
    grad = model.gradient_set()
    assert grad is model.grad and grad.shape == model.theta.shape
    for i, t in enumerate(model.params.values()):
        at = offset_in_theta(model, t.data)
        np.testing.assert_array_equal(grad[at: at + t.data.size], float(i) if i % 3 else 0.0)


def test_zero_grads_rebinds_views_a_caller_reset():
    model = build()
    first = next(iter(model.params.values()))
    model.zero_grads()
    first.grad = None  # as grad_check leaves it
    model.zero_grads()
    assert np.shares_memory(first.grad, model.grad)


def test_load_state_writes_through_to_theta_and_keeps_identity():
    model = build(seed=0)
    tensors = dict(model.params)
    theta = model.theta
    source = build(seed=1)
    model.load_state({n: t.data.copy() for n, t in source.params.items()})
    assert model.theta is theta
    np.testing.assert_array_equal(model.theta, source.theta)
    for name, t in model.params.items():
        assert t is tensors[name]
    assert_views_of_theta(model)


def test_load_state_copies_read_only_checkpoint_views(tmp_path):
    source = build(seed=1)
    write_checkpoint(tmp_path, source.params, 6, estimate_cooccurrence(np.eye(3, dtype=int)),
                     TrainConfig())
    state, *_ = read_checkpoint(tmp_path)
    assert not any(arr.flags.writeable for arr in state.values())
    model = build(seed=0)
    model.load_state(state)
    np.testing.assert_array_equal(model.theta, source.theta)
    assert not any(np.shares_memory(arr, model.theta) for arr in state.values())
    model.theta += 1.0  # theta stays the model's own, writable buffer
    assert_views_of_theta(model)


def test_train_epoch_moves_parameters_only_through_theta():
    bags = generate_dataset(GenConfig(n_cases=12, n_patches=4, feat_dim=4, seed=2))
    adjacency = estimate_cooccurrence(marker_table(bags)).a
    cfg = TrainConfig(epochs=1, batch_size=6, seed=0)
    model = build(feat_dim=4)
    theta, before = model.theta, model.theta.copy()
    data_ids = {n: id(t.data) for n, t in model.params.items()}
    optimizer = AdamW(model.theta, lr=cfg.lr, weight_decay=cfg.weight_decay)
    train_epoch(model, bags, adjacency, cfg, optimizer, 0, np.random.default_rng(0))
    assert model.theta is theta and optimizer.theta is theta
    assert not np.array_equal(model.theta, before)
    assert {n: id(t.data) for n, t in model.params.items()} == data_ids
    assert_views_of_theta(model)


def test_forward_widens_float32_bags_exactly():
    bags = generate_dataset(GenConfig(n_cases=4, n_patches=5, feat_dim=4, seed=1))
    adjacency = estimate_cooccurrence(marker_table(bags)).a
    model = build(feat_dim=4)
    for bag in bags:
        assert bag.feats_high.dtype == bag.feats_low.dtype == np.float32
        wide = dataclasses.replace(bag, feats_high=bag.feats_high.astype(np.float64),
                                   feats_low=bag.feats_low.astype(np.float64))
        with no_grad():
            got, want = model.forward(bag, adjacency), model.forward(wide, adjacency)
        for a, b in zip([got.glioma_logits] + [s.logits for s in got.branches],
                        [want.glioma_logits] + [s.logits for s in want.branches]):
            assert a.data.tobytes() == b.data.tobytes()
        assert got.conf_wt.data.tobytes() == want.conf_wt.data.tobytes()


def _bag_graph_nodes(n, k):
    """The recorded nodes of one (n, k) bag's training loss, before its backward."""
    bags = generate_dataset(GenConfig(n_cases=4, n_patches=n, feat_dim=k, seed=0))
    adjacency = estimate_cooccurrence(marker_table(bags)).a
    cfg = TrainConfig(seed=0)
    model = Model(ModelConfig.of(k, cfg), np.random.default_rng(0))
    loss, _ = batch_loss(model.forward(bags[0], adjacency), bags[0], adjacency, cfg, 8)
    seen, stack, nodes = set(), [loss], []
    while stack:
        node = stack.pop()
        if node._backward is None or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def _closure_arrays(fn):
    """Every ndarray a backward closure holds, directly, in a list or tuple, as a
    tensor's data, or in the closure of a function it holds (its gradient rule and
    the helpers that rule calls)."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, Tensor):
            found.append(obj.data)
        elif isinstance(obj, types.FunctionType) and id(obj) not in seen:
            seen.add(id(obj))
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
    return found


def _rule(node):
    """The gradient rule a recorded node's backward closure runs."""
    (cell,) = node._backward.__closure__
    return cell.cell_contents


def test_a_bag_graph_keeps_no_attention_probabilities_or_norm_rows():
    # each transformer block, disentangler head and attention pool is one node
    # that keeps only its inputs: the gradient rule recomputes the norm rows,
    # projections, (N, N) probabilities, mid rows, ReLU rows and tanh rows from them
    n = 64
    nodes = _bag_graph_nodes(n, 8)
    counts = {"transformer_block.<locals>.grads": 10, "mlp.<locals>.grads": 4,
              "attention_pool.<locals>.grads": 4}
    fused = [node for node in nodes if _rule(node).__qualname__ in counts]
    assert collections.Counter(_rule(node).__qualname__ for node in fused) == counts
    for node in fused:
        assert not any(isinstance(c.cell_contents, np.ndarray)
                       for c in _rule(node).__closure__)
        inputs = {id(p.data) for p in node._parents}
        assert all(id(arr) in inputs for arr in _closure_arrays(node._backward))
    for node in nodes:
        for arr in [node.data, *_closure_arrays(node._backward)]:
            assert arr.shape != (n, n), _rule(node).__qualname__


def test_a_bag_records_at_most_100_nodes():
    # one node per transformer block, disentangler head and attention pool,
    # and a five-node label-correlation loss
    assert len(_bag_graph_nodes(32, 16)) <= 100


def test_a_wide_bag_graph_holds_at_most_2_1_mib():
    # what a 190 x 32 bag's graph owns: its nodes' outputs and the arrays their
    # closures keep, but not the leaves (parameters and the bag's features)
    nodes = _bag_graph_nodes(190, 32)
    leaves = {id(p.data) for node in nodes for p in node._parents if p._backward is None}
    owned = {id(node.data): node.data for node in nodes}
    for node in nodes:
        owned.update((id(arr), arr) for arr in _closure_arrays(node._backward)
                     if id(arr) not in leaves)
    assert sum(arr.nbytes for arr in owned.values()) <= 2.1 * 2**20


def test_a_wide_bag_step_traces_at_most_4_2_mb():
    # the largest bag's forward, loss and backward, as a training step runs
    # them, with the model and its gradient buffer allocated before tracing
    bags = generate_dataset(GenConfig(n_cases=2, n_patches=192, feat_dim=32, seed=0))
    adjacency = estimate_cooccurrence(marker_table(bags)).a
    cfg = TrainConfig(seed=0)
    model = Model(ModelConfig.of(32, cfg), np.random.default_rng(0))
    tracemalloc.start()
    try:
        loss, _ = batch_loss(model.forward(bags[0], adjacency), bags[0], adjacency, cfg, 6)
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.2e6
