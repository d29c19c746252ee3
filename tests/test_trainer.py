"""Training-loop behavior: splits, loss assembly, the bag-by-bag step, the
optimizer step, gradient modulation wiring, determinism, and the ablation
harness."""
import functools
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gliomil
from gliomil import autodiff as ad
from gliomil import trainer
from gliomil.config import (
    ABLATION_FLAGS,
    FINDINGS,
    GLIOMA,
    LOSS_TERMS,
    ConfigError,
    GenConfig,
    TrainConfig,
    loss_weights,
)
from gliomil.interaction import curriculum_m
from gliomil.metrics import TASKS, compute_metrics, report_text
from gliomil.model import Model, ModelConfig
from gliomil.optim import AdamW
from gliomil.synth import (
    MarkerTuple,
    estimate_cooccurrence,
    generate_bag,
    generate_dataset,
    marker_table,
    rng_for_case,
    sample_case,
)
from gliomil.trainer import (
    LossError,
    ablation_csv,
    batch_loss,
    epochs_csv,
    evaluate,
    run_ablation,
    split_dataset,
    term_values,
    train_epoch,
    train_model,
)


def small_bags(n_cases=30, seed=0):
    return generate_dataset(GenConfig(n_cases=n_cases, n_patches=8, feat_dim=6, seed=seed))


def adjacency_of(bags):
    return estimate_cooccurrence(marker_table(bags)).a


def fresh_model(bags, seed=0, cfg=TrainConfig()):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11,)))
    return Model(ModelConfig.of(bags[0].feats_high.shape[1], cfg), rng)


# ---------------------------------------------------------------------------
# split


def test_split_is_disjoint_and_complete():
    bags = small_bags(40)
    train, val = split_dataset(bags, 0.3, seed=5)
    train_ids = {b.case_id for b in train}
    val_ids = {b.case_id for b in val}
    assert not train_ids & val_ids
    assert train_ids | val_ids == {b.case_id for b in bags}


def test_split_stratifies_every_class():
    bags = small_bags(80)
    train, val = split_dataset(bags, 0.3, seed=1)
    for cls in {b.glioma_class for b in bags}:
        n_total = sum(b.glioma_class == cls for b in bags)
        n_val = sum(b.glioma_class == cls for b in val)
        assert n_val == int(round(0.3 * n_total)) or (n_total == 1 and n_val == 0)
    assert {b.glioma_class for b in train} == {b.glioma_class for b in bags}


def test_split_deterministic_and_seed_sensitive():
    bags = small_bags(40)
    a1 = [b.case_id for b in split_dataset(bags, 0.3, seed=2)[1]]
    a2 = [b.case_id for b in split_dataset(bags, 0.3, seed=2)[1]]
    b1 = [b.case_id for b in split_dataset(bags, 0.3, seed=3)[1]]
    assert a1 == a2
    assert a1 != b1


# ---------------------------------------------------------------------------
# loss assembly


def bag_losses(bags, cfg, top_m):
    """``batch_loss`` of every bag: [(loss, values), ...]."""
    adj = adjacency_of(bags)
    model = fresh_model(bags, cfg=cfg)
    return [batch_loss(model.forward(b, adj), b, adj, cfg, top_m) for b in bags]


def test_total_is_weighted_sum_of_terms():
    cfg = TrainConfig(w_molecular=0.5, w_disent=2.0, w_dcc=0.25)
    for loss, values in bag_losses(small_bags(6), cfg, top_m=3):
        assert tuple(values) == LOSS_TERMS
        expect = (
            values["glioma"]
            + 0.5 * (values["idh"] + values["codel"] + values["cdkn"])
            + values["nmp"]
            + 2.0 * values["disent"]
            + values["lc"]
            + 0.25 * values["dcc"]
        )
        assert float(loss.data) == pytest.approx(expect, rel=1e-12)


def finding_branch(model, finding):
    """The parameters of ``finding``'s branch: ``mol.<short>``, or the one ``his``."""
    return getattr(model.mol, finding.short) if finding.group == "molecular" else model.his


def test_glioma_term_is_plain_cross_entropy():
    """Every cross-entropy term, the glioma one and each finding's, is its
    logits' plain cross-entropy against the label of the same name."""
    bags = small_bags(4)
    adj = adjacency_of(bags)
    model = fresh_model(bags)
    for bag in bags:
        fwd = model.forward(bag, adj)
        _, values = batch_loss(fwd, bag, adj, TrainConfig(), top_m=2)
        expect = float(ad.softmax_cross_entropy(fwd.glioma_logits, bag.glioma_class).data)
        assert values[GLIOMA] == expect
        for finding, state in zip(FINDINGS, fwd.branches, strict=True):
            ce = ad.softmax_cross_entropy(state.logits, getattr(bag.markers, finding.name))
            assert values[finding.short] == float(ce.data)


def test_each_finding_row_reaches_every_layer():
    """Row i of ``FINDINGS`` is field i of ``MarkerTuple``, a loss term weighted by its
    group, branch i of the forward, a report task, an acc_* column of that task's
    accuracy, and the checkpoint names of a branch with its block count."""
    bags = small_bags(6)
    adj = adjacency_of(bags)
    model = fresh_model(bags)
    fwd = model.forward(bags[0], adj)
    report = compute_metrics(evaluate(model, bags, adj)[0])
    weights = loss_weights(TrainConfig(w_molecular=0.5, w_histology=0.25))
    row = trainer.EpochRow(epoch=0, losses=dict.fromkeys((*LOSS_TERMS, "total"), 0.0),
                           dcc_overlap=0.0, report=report)
    header, cells = (line.split(",")[-len(TASKS):] for line in epochs_csv([row]).splitlines())
    assert MarkerTuple._fields == TASKS[:-1] == tuple(f.name for f in FINDINGS)
    assert len(fwd.branches) == len(FINDINGS)
    for i, finding in enumerate(FINDINGS):
        assert finding.short in LOSS_TERMS
        assert weights[finding.short] == {"molecular": 0.5, "histology": 0.25}[finding.group]
        branch, state = finding_branch(model, finding), fwd.branches[i]
        logits = ad.linear(state.pooled, branch.clf_w, branch.clf_b)
        np.testing.assert_array_equal(state.logits.data, logits.data)
        assert getattr(report, finding.name) is report.task(TASKS[i])
        assert header[i] == f"acc_{finding.short}"
        assert cells[i] == f"{report.task(finding.name).accuracy:.6f}"
        prefix = f"mol.{finding.short}." if finding.group == "molecular" else "his."
        assert model.params[prefix + "clf_w"] is branch.clf_w
        blocks = {name[len(prefix):].split(".")[1] for name in model.params
                  if name.startswith(prefix + "blocks.")}
        assert len(blocks) == len(branch.blocks) == finding.blocks


def test_ablation_flags_drop_terms_from_total():
    cfg = TrainConfig(ablations=("no_disent", "no_lc", "no_dcc"))
    for loss, values in bag_losses(small_bags(5), cfg, top_m=2):
        expect = sum(values[k] for k in ("glioma", "idh", "codel", "cdkn", "nmp"))
        assert float(loss.data) == pytest.approx(expect, rel=1e-12)
        assert all(np.isfinite(values[k]) for k in ("disent", "lc", "dcc"))


def test_train_epoch_total_is_weighted_sum_of_term_means():
    bags = small_bags(6)
    cfg = TrainConfig(batch_size=3, w_molecular=0.5, w_disent=2.0, w_dcc=0.25)
    model = fresh_model(bags)
    optimizer = AdamW(model.theta, lr=0.0, weight_decay=0.0)
    means, _ = train_epoch(model, bags, adjacency_of(bags), cfg, optimizer, 0,
                           np.random.default_rng(0))
    expect = sum(means[k] * w for k, w in loss_weights(cfg).items())
    assert means["total"] == pytest.approx(expect, rel=1e-12)


def test_nan_loss_raises_named_error():
    bags = small_bags(3)
    model = fresh_model(bags)
    model.params["fusion.w"].data[:] = np.nan
    optimizer = AdamW(model.theta, lr=0.0, weight_decay=0.0)
    with pytest.raises(LossError, match="glioma"):
        train_epoch(model, bags, adjacency_of(bags), TrainConfig(), optimizer, 0,
                    np.random.default_rng(0))


def test_all_terms_disabled_raises():
    with pytest.raises(ConfigError, match="loss weight"):
        TrainConfig(w_glioma=0.0, w_molecular=0.0, w_histology=0.0,
                    ablations=("no_disent", "no_lc", "no_dcc"))


# ---------------------------------------------------------------------------
# the bag-by-bag step


def sized_bags(sizes, feat_dim=6, seed=0):
    """One bag per entry of ``sizes``, with that many patches."""
    bags = []
    for i, n in enumerate(sizes):
        cfg = GenConfig(n_patches=n, feat_dim=feat_dim, seed=seed)
        rng = rng_for_case(seed, f"case{i:04d}")
        bags.append(generate_bag(sample_case(rng, cfg), cfg, rng, case_id=f"case{i:04d}"))
    return bags


@pytest.mark.parametrize("ablations", [(), ("no_dcc",), ("no_graph",), ("no_disent",)])
def test_train_epoch_gradient_equals_one_backward_over_the_batch(ablations, monkeypatch):
    # modulation rewrites its input in place; hand it a copy so the model's
    # buffer keeps the raw gradient
    modulate = trainer.cmg_modulate
    monkeypatch.setattr(trainer, "cmg_modulate",
                        lambda grad, *a, **kw: modulate(grad.copy(), *a, **kw))
    bags = sized_bags([5, 11, 3, 8, 6])
    adj = adjacency_of(bags)
    cfg = TrainConfig(batch_size=len(bags), ablations=ablations)
    model = fresh_model(bags, cfg=cfg)
    assert model.cfg.use_graph == ("no_graph" not in ablations)
    optimizer = AdamW(model.theta, lr=0.0, weight_decay=0.0)
    term_means, _ = train_epoch(model, bags, adj, cfg, optimizer, 0, np.random.default_rng(3))

    twin = fresh_model(bags, cfg=cfg)
    batch = [bags[i] for i in np.random.default_rng(3).permutation(len(bags))]
    top_m = curriculum_m(0, cfg)
    inv_n = 1.0 / len(batch)
    shares, sums = [], dict.fromkeys(LOSS_TERMS, 0.0)
    for b in batch:
        loss, values = batch_loss(twin.forward(b, adj), b, adj, cfg, top_m)
        shares.append(ad.scale(loss, inv_n))
        for name, v in values.items():
            sums[name] += v
    ad.backward(functools.reduce(ad.add, shares))  # one backward over every bag's graph

    np.testing.assert_array_equal(model.theta, twin.theta)
    np.testing.assert_allclose(model.gradient_set(), twin.gradient_set(), rtol=1e-12, atol=1e-15)
    assert term_means == term_values({name: v * inv_n for name, v in sums.items()}, cfg)


def _step_peak_bytes(bags, adj, cfg) -> int:
    """tracemalloc peak above the starting level over one train_epoch step."""
    model = fresh_model(bags)
    optimizer = AdamW(model.theta, lr=cfg.lr, weight_decay=cfg.weight_decay)
    order_rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train_epoch(model, bags, adj, cfg, optimizer, 0, order_rng)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_step_keeps_one_bag_graph_alive():
    bags = sized_bags([64] * 6, feat_dim=16)
    adj = adjacency_of(bags)
    cfg = TrainConfig(batch_size=6)
    _step_peak_bytes(bags[:1], adj, cfg)  # warm-up: one-time allocations
    one = _step_peak_bytes(bags[:1], adj, cfg)
    six = _step_peak_bytes(bags, adj, cfg)
    assert six <= 1.5 * one, (six, one)


def test_a_step_frees_its_gradient_copies_before_the_next_step():
    # the modulation record and AdamW's scratch are gone by the next step's
    # first forward; the gradient itself lives in the model's one buffer
    bags = sized_bags([8] * 4, feat_dim=8)
    adj = adjacency_of(bags)
    cfg = TrainConfig(batch_size=2)
    warm = fresh_model(bags, cfg=cfg)  # one-time allocations (lazy imports) happen here
    train_epoch(warm, bags, adj, cfg, AdamW(warm.theta, lr=cfg.lr, weight_decay=cfg.weight_decay),
                0, np.random.default_rng(0))
    model = fresh_model(bags, cfg=cfg)
    optimizer = AdamW(model.theta, lr=cfg.lr, weight_decay=cfg.weight_decay)
    live, forward = [], model.forward

    def traced_forward(bag, adjacency):
        live.append(tracemalloc.get_traced_memory()[0])
        return forward(bag, adjacency)

    model.forward = traced_forward
    tracemalloc.start()
    try:
        train_epoch(model, bags, adj, cfg, optimizer, 0, np.random.default_rng(0))
    finally:
        tracemalloc.stop()
    first, second = live[0], live[cfg.batch_size]
    assert second - first <= model.theta.nbytes, (second - first, model.theta.nbytes)


@pytest.mark.parametrize("nmp", [0, 1])
def test_update_peak_is_at_most_three_thetas(nmp):
    # gradient, modulation and AdamW work in the model's buffer in place: what
    # _update allocates at its peak is AdamW's two scratch arrays plus a slack
    bags = [b for b in generate_dataset(GenConfig(n_cases=16, n_patches=6, feat_dim=32, seed=1))
            if b.markers.nmp == nmp][:2]
    adj = adjacency_of(bags)
    cfg = TrainConfig(batch_size=2)
    model = fresh_model(bags, cfg=cfg)
    optimizer = AdamW(model.theta, lr=cfg.lr, weight_decay=cfg.weight_decay)
    for _ in range(2):  # the first pass warms up one-time allocations
        model.zero_grads()
        for bag in bags:
            loss, _ = batch_loss(model.forward(bag, adj), bag, adj, cfg, top_m=4)
            ad.backward(loss)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trainer._update(model, bags, cfg, optimizer, None, epoch=0, step=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak <= 3 * model.theta.nbytes, (peak / model.theta.nbytes)


def test_training_does_not_load_numpy_ma():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from gliomil.config import GenConfig, TrainConfig\n"
        "from gliomil.model import Model, ModelConfig\n"
        "from gliomil.optim import AdamW\n"
        "from gliomil.synth import estimate_cooccurrence, generate_dataset, marker_table\n"
        "from gliomil.trainer import train_epoch\n"
        "bags = generate_dataset(GenConfig(n_cases=4, n_patches=4, feat_dim=4, seed=0))\n"
        "cfg = TrainConfig(batch_size=4)\n"
        "model = Model(ModelConfig.of(4, cfg), np.random.default_rng(0))\n"
        "train_epoch(model, bags, estimate_cooccurrence(marker_table(bags)).a, cfg,\n"
        "            AdamW(model.theta, lr=cfg.lr, weight_decay=cfg.weight_decay), 0,\n"
        "            np.random.default_rng(0))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(gliomil.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_trained_theta_does_not_depend_on_blas_threads():
    # the molecular group at K = 16 is long enough for a threaded BLAS dot to
    # split its sum; modulation's fixed-order sums keep θ's bits the same
    script = (
        "import hashlib\n"
        "from gliomil.config import GenConfig, TrainConfig\n"
        "from gliomil.synth import generate_dataset\n"
        "from gliomil.trainer import train_model\n"
        "bags = generate_dataset(GenConfig(n_cases=12, n_patches=4, feat_dim=16, seed=3))\n"
        "model = train_model(bags, TrainConfig(epochs=1, seed=3)).model\n"
        "print(hashlib.sha256(model.theta.tobytes()).hexdigest())\n"
    )
    src = str(Path(gliomil.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1], digests


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_first_step_is_signed_unit_scaled():
    theta = np.array([2.0, -3.0])
    opt = AdamW(theta, lr=0.1, weight_decay=0.0)
    opt.step(np.array([0.5, -0.25]))
    # first Adam step moves each coordinate by ~lr * sign(grad)
    expect = np.array([2.0, -3.0]) - 0.1 * np.array([1.0, -1.0]) * (
        1.0 / (1.0 + 1e-8 / np.sqrt(1 - 0.999))
    )
    np.testing.assert_allclose(theta, expect, rtol=1e-6)


def test_adamw_zero_lr_is_identity():
    bags = small_bags(12)
    before = {name: p.data.copy() for name, p in fresh_model(bags).params.items()}
    result = train_model(bags, TrainConfig(epochs=1, lr=0.0, weight_decay=0.0, seed=0))
    for name, p in result.model.params.items():
        np.testing.assert_array_equal(p.data, before[name])


def test_weight_decay_is_decoupled_from_gradient():
    # with the graph mix ablated its weight receives zero gradient, so the
    # only movement is the decoupled decay: theta <- theta * (1 - lr*wd)^steps
    bags = small_bags(12)
    cfg = TrainConfig(epochs=1, batch_size=4, lr=0.01, weight_decay=0.5,
                      ablations=("no_graph",), seed=0)
    init = fresh_model(bags, seed=0, cfg=cfg).params["mol.graph_w"].data.copy()
    result = train_model(bags, cfg)
    n_steps = int(np.ceil(len(result.train_ids) / cfg.batch_size)) * cfg.epochs
    expect = init * (1.0 - cfg.lr * cfg.weight_decay) ** n_steps
    np.testing.assert_allclose(result.model.params["mol.graph_w"].data, expect, rtol=1e-12)


# ---------------------------------------------------------------------------
# modulation wiring


def test_modulation_follows_batch_majority():
    bags = generate_dataset(
        GenConfig(n_cases=16, n_patches=6, feat_dim=6,
                  nmp_given_idhwt=1.0, nmp_given_idhmut=1.0, seed=2)
    )
    assert all(b.markers.nmp == 1 for b in bags)
    seen = []
    train_model(
        bags,
        TrainConfig(epochs=1, batch_size=4, seed=0),
        modulation_hook=lambda **kw: seen.append(kw["record"].modulated_group),
    )
    assert seen and set(seen) == {"molecular"}

    bags = generate_dataset(
        GenConfig(n_cases=16, n_patches=6, feat_dim=6,
                  nmp_given_idhwt=0.0, nmp_given_idhmut=0.0, seed=2)
    )
    assert all(b.markers.nmp == 0 for b in bags)
    seen = []
    train_model(
        bags,
        TrainConfig(epochs=1, batch_size=4, seed=0),
        modulation_hook=lambda **kw: seen.append(kw["record"].modulated_group),
    )
    assert seen and set(seen) == {"histology"}


def test_no_cmg_skips_modulation_entirely():
    bags = small_bags(12)
    seen = []
    train_model(
        bags,
        TrainConfig(epochs=1, batch_size=4, seed=0, ablations=("no_cmg",)),
        modulation_hook=lambda **kw: seen.append(kw),
    )
    assert seen == []


def test_no_guide_always_modulates_molecular():
    bags = generate_dataset(
        GenConfig(n_cases=12, n_patches=6, feat_dim=6,
                  nmp_given_idhwt=0.0, nmp_given_idhmut=0.0, seed=4)
    )
    seen = []
    train_model(
        bags,
        TrainConfig(epochs=1, batch_size=4, seed=0, ablations=("no_guide",)),
        modulation_hook=lambda **kw: seen.append(kw["record"].modulated_group),
    )
    assert seen and set(seen) == {"molecular"}


# ---------------------------------------------------------------------------
# determinism and artifacts


def test_training_is_bitwise_deterministic():
    bags = small_bags(20)
    cfg = TrainConfig(epochs=2, seed=9)
    r1 = train_model(bags, cfg)
    r2 = train_model(bags, cfg)
    assert epochs_csv(r1.rows) == epochs_csv(r2.rows)
    for name in r1.model.params:
        np.testing.assert_array_equal(r1.model.params[name].data,
                                      r2.model.params[name].data)
    assert r1.val_ids == r2.val_ids
    assert r1.confidences == r2.confidences


def test_seed_changes_the_run():
    bags = small_bags(20)
    r1 = train_model(bags, TrainConfig(epochs=1, seed=0))
    r2 = train_model(bags, TrainConfig(epochs=1, seed=1))
    assert epochs_csv(r1.rows) != epochs_csv(r2.rows)


def test_epochs_csv_shape():
    bags = small_bags(12)
    result = train_model(bags, TrainConfig(epochs=3, seed=0))
    lines = epochs_csv(result.rows).strip().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "epoch" and "loss_dcc" in header and "acc_glioma" in header
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)


EPOCHS_HEADER = ("epoch,loss_total,loss_glioma,loss_idh,loss_codel,loss_cdkn,loss_nmp,"
                 "loss_disent,loss_lc,loss_dcc,dcc_overlap,"
                 "acc_idh,acc_codel,acc_cdkn,acc_nmp,acc_glioma")
ABLATION_HEADER = ("variant,acc_idh,acc_codel,acc_cdkn,acc_nmp,acc_glioma,"
                   "f1_glioma,auc_glioma")
CONFIDENCES_HEADER = "case_id,patch_index,conf_wt,conf_nmp"
REPORT_TASKS = ["idh_mut", "codel_1p19q", "cdkn_homdel", "nmp", "glioma"]


def test_run_file_layout_is_pinned():
    """Every run file's header, and the report's task column, written out in full."""
    result = train_model(small_bags(12), TrainConfig(epochs=1, seed=0))
    assert epochs_csv(result.rows).splitlines()[0] == EPOCHS_HEADER
    assert ablation_csv([("full", result)]).splitlines()[0] == ABLATION_HEADER
    assert trainer.confidences_csv(result.confidences).splitlines()[0] == CONFIDENCES_HEADER
    table = report_text(result.report).splitlines()
    assert table[0].split()[0] == "task"
    assert [line.split()[0] for line in table[1:]] == REPORT_TASKS


# sha256 of (theta, epochs_csv, confidences_csv) after two epochs at seed 3 on
# 60 default-shaped cases, per ablation set: pins a trained run bit for bit
TRAINED_RUN = {
    (): ("5880c0f779145e80f5ab5888d150945af5ca3eeb10cae55e65adc6a91eed1998",
         "5c94f850529c6f27e8e2edf9a21cc9a9489008191be53692866a27c38d417e76",
         "d8e2da0511dfecb051093102d8d7c44789c55b4687cf898ea4587e5550964bba"),
    ("no_graph",): ("eb5d0839e346597b5735529aa52bfb76b11e64b87d15b340cb1b76a2f36d31c6",
                    "8b2d98fe0359981c11ebeaa81fe1ed6291895646903febd8d1ceddd114d21078",
                    "f9a31a742b00578d348d49cf1da32284874dd7b1f4d5c061a7bcd23900b704a6"),
    ("no_cmg",): ("dee9802f6b8d4cfaf8b57adb960f2614913193af57a5b60889315a04605d2ff4",
                  "998d4626b29965c45e5134c07b0420b67a511ba6f096e06d6f369863ad1fb254",
                  "92dfc80da212b73cc30774e36d88abcfdf7490e22df9f99a5e8c65031ef32153"),
}


@pytest.fixture(scope="module")
def pinned_bags():
    return generate_dataset(GenConfig(n_cases=60, seed=3))


@pytest.mark.parametrize("ablations", sorted(TRAINED_RUN))
def test_trained_run_is_pinned(pinned_bags, ablations):
    result = train_model(pinned_bags, TrainConfig(epochs=2, seed=3, ablations=ablations))
    digests = tuple(hashlib.sha256(blob).hexdigest() for blob in (
        result.model.theta.tobytes(), epochs_csv(result.rows).encode(),
        trainer.confidences_csv(result.confidences).encode()))
    assert digests == TRAINED_RUN[ablations]


def test_loss_decreases_over_training():
    bags = small_bags(30, seed=1)
    result = train_model(bags, TrainConfig(epochs=8, seed=0))
    first = result.rows[0].losses["total"]
    last = result.rows[-1].losses["total"]
    assert last < 0.7 * first


def test_confidences_cover_every_patch_of_every_case():
    bags = small_bags(10)
    result = train_model(bags, TrainConfig(epochs=1, seed=0))
    assert len(result.confidences) == sum(b.feats_high.shape[0] for b in bags)
    ids = {c[0] for c in result.confidences}
    assert ids == {b.case_id for b in bags}


def test_final_scoring_matches_separate_held_out_and_all_bag_passes():
    bags = small_bags(16)
    result = train_model(bags, TrainConfig(epochs=2, seed=0))
    val_bags = [b for b in bags if b.case_id in set(result.val_ids)]
    val_preds, _ = evaluate(result.model, val_bags, result.cooc.a)
    _, confidences = evaluate(result.model, bags, result.cooc.a)
    assert report_text(result.report) == report_text(compute_metrics(val_preds))
    assert result.confidences == confidences


def test_train_time_does_not_go_back_with_the_wall_clock(monkeypatch):
    wall = time.time
    calls = []

    def stepped_back():  # the wall clock steps back an hour after its first reading
        calls.append(None)
        return wall() - 3600.0 * (len(calls) > 1)

    monkeypatch.setattr(time, "time", stepped_back)
    result = train_model(small_bags(6), TrainConfig(epochs=1))
    assert result.seconds >= 0


def test_train_model_rejects_zero_epochs():
    with pytest.raises(ConfigError, match="epochs"):
        train_model(small_bags(6), TrainConfig(epochs=0))


def test_run_ablation_structure():
    bags = small_bags(14)
    results = run_ablation(bags, TrainConfig(epochs=1, seed=0))
    assert [name for name, _ in results] == ["full"] + list(ABLATION_FLAGS)
    text = ablation_csv(results)
    lines = text.strip().splitlines()
    assert len(lines) == 1 + 1 + len(ABLATION_FLAGS)
    assert lines[0].startswith("variant,acc_idh")
    assert lines[1].startswith("full,")
