"""Acceptance gate: one check per shipping criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the full scoreboard.
Every criterion is asserted at its stated tolerance; the printed line
carries the measured margin so regressions are visible before they fail.
"""
import io
import math
import time
from contextlib import redirect_stdout

import numpy as np

from gliomil.autodiff import Tensor
from gliomil.cli import main
from gliomil.config import ABLATION_FLAGS, GenConfig, TrainConfig
from gliomil.heads import correlation_loss, graph_mix
from gliomil.interaction import (
    ConfidenceVector,
    curriculum_m,
    dcc_overlap,
    project_perp,
    rescale,
)
from gliomil.metrics import micro_multiclass_metrics, rank_auc
from gliomil.model import Model, ModelConfig
from gliomil.optim import AdamW
from gliomil.synth import (
    MarkerTuple,
    derive_glioma_class,
    estimate_cooccurrence,
    generate_dataset,
    marker_table,
)
from gliomil import trainer
from gliomil.trainer import split_dataset, train_epoch, train_model
from gliomil.verify import run_suite


def _check(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def _confidence(values: np.ndarray) -> ConfidenceVector:
    values = np.asarray(values, dtype=np.float64)
    return ConfidenceVector(
        values=values,
        order=np.argsort(-values, kind="stable"),
        column=Tensor(values.reshape(-1, 1)),
    )


# ---------------------------------------------------------------------------


def test_c1_gradient_suite():
    ok, lines, secs = run_suite(trials=100, model_seeds=3, seed=0)
    worst = max(line.max_rel_err for line in lines)
    fails = [line.name for line in lines if not line.passed]
    _check(
        "gradient suite (all ops + full model, 100 seeds, tol 1e-4)",
        ok and secs < 120.0,
        f"max rel err {worst:.2e}, {secs:.1f}s, failures {fails}",
    )


def fixed_order_norm(x):
    """||x|| summed in numpy's fixed pairwise order, as modulation sums it."""
    return math.sqrt(np.add.reduce(x * x))


def padded_or_truncated(ref, length):
    """``ref`` zero-padded or truncated to ``length``, as projection over the common head sees it."""
    out = np.zeros(length)
    out[:min(ref.size, length)] = ref[:length]
    return out


def modulated(raw_slice, ref):
    """``raw_slice`` projected orthogonal to ``ref`` and rescaled to its length, on a copy."""
    vec = raw_slice.copy()
    project_perp(vec, ref)
    rescale(vec, fixed_order_norm(raw_slice))
    return vec


def test_c2_modulation_invariants_over_five_epochs(monkeypatch):
    bags = generate_dataset(GenConfig(n_cases=60, n_patches=8, feat_dim=8, seed=1))
    cfg = TrainConfig(epochs=5, batch_size=6, seed=0)
    train_bags, _ = split_dataset(bags, cfg.val_fraction, cfg.seed)
    cooc = estimate_cooccurrence(marker_table(train_bags))
    model = Model(
        ModelConfig.of(8, cfg),
        np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(11,))),
    )
    optimizer = AdamW(model.theta, lr=cfg.lr, weight_decay=cfg.weight_decay)
    order_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(12,)))

    worst_dot, worst_norm = 0.0, 0.0
    partition_ok = [True]
    n_steps = [0]
    # modulation rewrites the model's buffer in place; snapshot the raw
    # gradient first, so training follows its real trajectory
    modulate, snapshot = trainer.cmg_modulate, [None]

    def snapshot_then_modulate(grad, *args, **kwargs):
        snapshot[0] = grad.copy()
        return modulate(grad, *args, **kwargs)

    monkeypatch.setattr(trainer, "cmg_modulate", snapshot_then_modulate)

    def hook(epoch, step, record, grads):
        nonlocal worst_dot, worst_norm
        n_steps[0] += 1
        assert grads is model.gradient_set()
        span = model.groups[record.modulated_group]
        other = model.groups["histology" if record.modulated_group == "molecular" else "molecular"]
        after = grads[span]
        ref = padded_or_truncated(grads[other], after.size)
        raw = snapshot[0]
        dot = abs(float(after @ ref))
        bound = np.linalg.norm(after) * np.linalg.norm(ref)
        worst_dot = max(worst_dot, dot / bound if bound > 0 else 0.0)
        worst_norm = max(
            worst_norm,
            abs(np.linalg.norm(after) - np.linalg.norm(raw[span])),
        )
        untouched = np.ones(raw.size, dtype=bool)
        untouched[span] = False
        if not (record.norm_before == fixed_order_norm(raw[span])
                and np.array_equal(grads[span], modulated(raw[span], grads[other]))
                and np.array_equal(grads[untouched], raw[untouched])):
            partition_ok[0] = False

    for epoch in range(cfg.epochs):
        train_epoch(model, train_bags, cooc.a, cfg, optimizer, epoch, order_rng, hook)

    expected_steps = cfg.epochs * -(-len(train_bags) // cfg.batch_size)
    _check(
        "gradient modulation invariants on every step of a 5-epoch run",
        n_steps[0] == expected_steps
        and worst_dot <= 1e-8
        and worst_norm <= 1e-8
        and partition_ok[0],
        f"{n_steps[0]} steps, worst |cos| {worst_dot:.2e}, "
        f"worst norm drift {worst_norm:.2e}, single-partition {partition_ok[0]}",
    )


def test_c3_cooccurrence_and_residual_limits():
    rng = np.random.default_rng(33)
    tables_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 40))
        rows = rng.integers(0, 2, size=(n, 3))
        cooc = estimate_cooccurrence(rows)
        counts = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                counts[i, j] = int(np.sum(rows[:, i] * rows[:, j]))
        cond = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                cond[i, j] = counts[i, j] / counts[j, j] if counts[j, j] > 0 else 0.0
        brute = 0.5 * (cond + cond.T)
        if not (np.array_equal(cooc.a, brute) and np.array_equal(cooc.a, cooc.a.T)):
            tables_ok = False

    feats = tuple(Tensor(rng.standard_normal((5, 6))) for _ in range(3))
    w = Tensor(rng.standard_normal((6, 6)))
    a = estimate_cooccurrence(rng.integers(0, 2, size=(20, 3))).a
    out0 = graph_mix(feats, a, w, 0.0)
    zero_ok = all(np.array_equal(o.data, f.data) for o, f in zip(out0, feats))
    projected = [f.data @ w.data for f in feats]
    one_ok = True
    for i, o in enumerate(graph_mix(feats, a, w, 1.0)):
        acc = a[i, 0] * projected[0]
        acc = acc + a[i, 1] * projected[1]
        acc = acc + a[i, 2] * projected[2]
        if not np.array_equal(o.data, np.maximum(acc, 0.0)):
            one_ok = False
    _check(
        "co-occurrence matrix vs brute force (50 tables) and residual limits",
        tables_ok and zero_ok and one_ok,
        f"tables exact {tables_ok}, alpha=0 exact {zero_ok}, alpha=1 exact {one_ok}",
    )


def test_c4_correlation_loss_overlap_and_curriculum():
    rng = np.random.default_rng(4)
    # feature blocks whose pairwise cosines are computed into the target
    blocks = tuple(Tensor(rng.standard_normal((4, 5))) for _ in range(3))

    def cos(x, y):
        return float(np.sum(x * y) / (np.linalg.norm(x) * np.linalg.norm(y)))

    target = np.array([[cos(blocks[i].data, blocks[j].data) for j in range(3)]
                       for i in range(3)])
    lc = float(correlation_loss(blocks, target).data)
    lc_ok = lc <= 1e-12

    overlap_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, n + 1))
        ca = _confidence(rng.standard_normal(n))
        cb = _confidence(rng.standard_normal(n))
        expect = len(set(ca.top(m).tolist()) & set(cb.top(m).tolist())) / m
        if dcc_overlap(ca, cb, m) != expect:
            overlap_ok = False

    schedule = TrainConfig(dcc_top_m=8, dcc_decay=0.5, dcc_decay_every=10)
    table = [curriculum_m(e, schedule) for e in range(30)]
    curriculum_ok = table == [8] * 10 + [4] * 10 + [2] * 10
    _check(
        "correlation loss zero case, overlap oracle x1000, curriculum 8/4/2",
        lc_ok and overlap_ok and curriculum_ok,
        f"lc {lc:.1e}, overlap exact {overlap_ok}, schedule {table[0]}/{table[10]}/{table[20]}",
    )


def test_c5_class_derivation_truth_table():
    bad = []
    for idh in (0, 1):
        for codel in (0, 1):
            for cdkn in (0, 1):
                for nmp in (0, 1):
                    if idh == 0:
                        expect = 0
                    elif codel == 1:
                        expect = 3
                    elif cdkn == 1 or nmp == 1:
                        expect = 1
                    else:
                        expect = 2
                    got = derive_glioma_class(
                        MarkerTuple(idh_mut=idh, codel_1p19q=codel,
                                    cdkn_homdel=cdkn, nmp=nmp)
                    )
                    if got != expect:
                        bad.append((idh, codel, cdkn, nmp, got, expect))
    _check(
        "glioma class truth table (16 combinations)",
        not bad,
        "all 16 exact" if not bad else f"mismatches {bad}",
    )


def test_c6_micro_identity_and_auc_oracle():
    rng = np.random.default_rng(6)
    identity_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        labels = rng.integers(0, 4, size=n)
        preds = rng.integers(0, 4, size=n)
        probs = rng.random((n, 4))
        m = micro_multiclass_metrics(labels, preds, probs)
        if not (m.accuracy == m.sensitivity == m.f1):
            identity_ok = False

    auc_ok = True
    for _ in range(400):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        scores = rng.integers(0, 8, size=n) / 7.0  # coarse grid so ties occur
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        if pos.size == 0 or neg.size == 0:
            if rank_auc(labels, scores) is not None:
                auc_ok = False
            continue
        wins = sum(1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg)
        if rank_auc(labels, scores) != wins / (pos.size * neg.size):
            auc_ok = False
    _check(
        "micro-average identity x1000 and pairwise AUC oracle",
        identity_ok and auc_ok,
        f"acc=sens=f1 {identity_ok}, auc exact {auc_ok}",
    )


def test_c7_end_to_end_synthetic_sanity():
    bags = generate_dataset(GenConfig())          # 300 cases, N=32, K=16
    t0 = time.time()
    result = train_model(bags, TrainConfig())     # 50 epochs, 70/30, seed 0
    secs = time.time() - t0
    glioma = result.report.glioma.accuracy
    idh = result.report.idh_mut.accuracy
    _check(
        "end-to-end: >=90% glioma and >=90% IDH accuracy held out, <5 min",
        glioma >= 0.90 and idh >= 0.90 and secs < 300.0,
        f"glioma {glioma:.3f}, idh {idh:.3f}, {secs:.0f}s for 50 epochs",
    )


def test_c8_ablation_harness_structure(tmp_path):
    gen_cfg = tmp_path / "g.cfg"
    gen_cfg.write_text("n_cases = 14\nn_patches = 4\nfeat_dim = 5\nseed = 2\n")
    train_cfg = tmp_path / "t.cfg"
    train_cfg.write_text("epochs = 1\nbatch_size = 4\nseed = 0\n")
    data, out = tmp_path / "d", tmp_path / "abl"
    assert main(["gen", "--config", str(gen_cfg), "--out", str(data)]) == 0
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["ablate", "--data", str(data), "--config", str(train_cfg),
                   "--out", str(out)])
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    names = [ln.split(",")[0] for ln in lines[1:]]
    structure_ok = (
        rc == 0
        and names == ["full"] + list(ABLATION_FLAGS)
        and lines[0].split(",")[0] == "variant"
        and all((out / v / "report.txt").exists() for v in names)
        and all((out / v / "checkpoint.blob").exists() for v in names)
    )
    _check(
        "ablation harness covers full + 7 variants with per-variant artifacts",
        structure_ok,
        f"variants {names}",
    )


def test_c9_command_determinism(tmp_path):
    gen_cfg = tmp_path / "g.cfg"
    gen_cfg.write_text("n_cases = 18\nn_patches = 5\nfeat_dim = 6\nseed = 9\n")
    train_cfg = tmp_path / "t.cfg"
    train_cfg.write_text("epochs = 2\nbatch_size = 5\nseed = 4\n")

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(argv)
        assert rc == 0, argv
        return buf.getvalue()

    mismatches = []
    for rep in ("x", "y"):
        run(["gen", "--config", str(gen_cfg), "--out", str(tmp_path / f"d{rep}")])
        run(["train", "--data", str(tmp_path / f"d{rep}"),
             "--config", str(train_cfg), "--out", str(tmp_path / f"r{rep}")])
    for name in ("dataset.manifest", "dataset.blob"):
        if (tmp_path / "dx" / name).read_bytes() != (tmp_path / "dy" / name).read_bytes():
            mismatches.append(f"gen:{name}")
    for name in ("epochs.csv", "report.txt", "confidences.csv",
                 "checkpoint.manifest", "checkpoint.blob"):
        if (tmp_path / "rx" / name).read_bytes() != (tmp_path / "ry" / name).read_bytes():
            mismatches.append(f"train:{name}")

    pairs = {}
    for cmd, argv in (
        ("eval", ["eval", "--data", str(tmp_path / "dx"), "--checkpoint", str(tmp_path / "rx")]),
        ("report", ["report", "--run", str(tmp_path / "rx")]),
        ("gradcheck", ["gradcheck", "--trials", "2", "--model-seeds", "1"]),
    ):
        pairs[cmd] = (run(argv), run(argv))
    mismatches += [f"{cmd}:stdout" for cmd, (a, b) in pairs.items() if a != b]
    _check(
        "repeated commands with one seed are byte-identical",
        not mismatches,
        "gen/train files + eval/report/gradcheck stdout all match"
        if not mismatches else f"mismatches {mismatches}",
    )
