"""Training loop: multi-term loss, modulated optimization, evaluation.

``batch_loss`` builds one bag's objective: eight loss terms and their
weighted sum. Each finding of ``config.FINDINGS`` has one branch in
``BagForward.branches``, in the table's order, so the loss, ``evaluate``
and the run files' per-finding columns take them in one loop; the model
itself says whether the marker graph runs (``ModelConfig.use_graph``), so
neither takes the ablations. A step owns the batch mean: it runs forward, loss and
backward for one bag at a time, each bag's loss scaled by 1/batch, so
the leaves' ``.grad``, views of ``Model.grad``, add up to the gradient of
the batch mean while only one bag's graph is alive. Then (unless ablated)
it modulates one parameter group's slice of that buffer against the other
in place, according to the batch's majority histology finding, and
finally applies an AdamW update that reads it.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import (
    ABLATION_FLAGS,
    FINDING_TERMS,
    GLIOMA,
    HISTOLOGY,
    LOSS_TERMS,
    MOLECULAR,
    TrainConfig,
    loss_weights,
    with_ablations,
)
from .dataio import DatasetError
from .disentangle import disentangle_loss
from .heads import correlation_loss
from .interaction import (
    cmg_modulate,
    curriculum_m,
    dcc_overlap,
    dcc_surrogate,
    majority_vote,
)
from .metrics import TASKS, CasePrediction, MetricReport, compute_metrics
from .model import Model, ModelConfig
from .optim import AdamW
from .synth import CooccurrenceMatrix, estimate_cooccurrence, marker_table


class LossError(RuntimeError):
    """A loss term stopped being finite; training must not continue."""


@dataclass
class EpochRow:
    epoch: int
    losses: dict           # term name -> batch-averaged value, plus "total"
    dcc_overlap: float     # mean top-M agreement across training bags
    report: MetricReport   # the held-out metrics; the acc_* columns read its accuracies


@dataclass
class TrainResult:
    cfg: TrainConfig
    model: Model
    cooc: CooccurrenceMatrix
    rows: list
    report: MetricReport
    train_ids: list
    val_ids: list
    confidences: tuple     # the final pass's (case_ids, sizes, values), as evaluate returns them
    seconds: float


def split_dataset(bags, val_fraction: float, seed: int):
    """Stratified case split; every class contributes ~val_fraction to eval."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    by_class: dict = {}
    for i, bag in enumerate(bags):
        by_class.setdefault(bag.glioma_class, []).append(i)
    train_idx, val_idx = [], []
    for cls in sorted(by_class):
        idxs = np.array(by_class[cls])
        rng.shuffle(idxs)
        n_val = int(round(val_fraction * idxs.size))
        n_val = min(n_val, idxs.size - 1) if idxs.size > 1 else 0
        val_idx.extend(idxs[:n_val].tolist())
        train_idx.extend(idxs[n_val:].tolist())
    if not val_idx and len(train_idx) > 1:
        val_idx.append(train_idx.pop())
    train_idx.sort()
    val_idx.sort()
    return [bags[i] for i in train_idx], [bags[i] for i in val_idx]


def term_values(means: dict, cfg: TrainConfig) -> dict:
    """Per-term batch means, checked finite, plus their weighted ``total``."""
    for name, value in means.items():
        if not np.isfinite(value):
            raise LossError(f"loss term {name!r} is not finite ({value})")
    weights = loss_weights(cfg)
    total = sum(means[name] * w for name, w in weights.items() if w != 0.0)
    if not np.isfinite(total):
        raise LossError("loss term 'total' is not finite")
    return {**means, "total": total}


def batch_loss(fwd, bag, adjacency, cfg: TrainConfig, top_m: int):
    """One bag's share of the batch loss, before the step's 1/batch scale.

    Builds the bag's eight ``LOSS_TERMS`` and returns the weighted sum of
    those whose weight is non-zero (no ``TrainConfig`` has none), plus every
    term's float value. The four finding terms are each branch's
    cross-entropy against its label.
    """
    terms = {
        GLIOMA: ad.softmax_cross_entropy(fwd.glioma_logits, bag.glioma_class),
        **{name: ad.softmax_cross_entropy(state.logits, label)
           for name, state, label in zip(FINDING_TERMS, fwd.branches, bag.markers.as_array())},
        "disent": disentangle_loss(fwd.disent),
        "lc": correlation_loss([s.feats for s in fwd.branches[:len(MOLECULAR)]], adjacency),
        "dcc": dcc_surrogate(fwd.conf_wt, fwd.conf_nmp, top_m, cfg.dcc_temperature),
    }
    weighted = [ad.scale(terms[name], w) for name, w in loss_weights(cfg).items() if w != 0.0]
    return functools.reduce(ad.add, weighted), {name: float(t.data) for name, t in terms.items()}


def evaluate(model: Model, bags, adjacency):
    """Forward every bag without recording; returns predictions + confidences.

    The confidences are ``(case_ids, sizes, values)``: per bag an id and a patch
    count (int64), and ``values`` stacks each bag's (N, 2) rows -- its
    ``conf_wt`` and ``conf_nmp`` columns side by side -- in ``bags``' order.
    """
    predictions = []
    blocks = []
    with ad.no_grad():
        for bag in bags:
            fwd = model.forward(bag, adjacency)
            marker_probs = np.array([ad.softmax(state.logits, axis=1).data.ravel()[1]
                                     for state in fwd.branches])
            glioma_probs = ad.softmax(fwd.glioma_logits, axis=1).data.ravel()
            predictions.append(
                CasePrediction(
                    case_id=bag.case_id,
                    marker_truth=bag.markers.as_array(),
                    glioma_truth=bag.glioma_class,
                    marker_probs=marker_probs,
                    glioma_probs=glioma_probs.copy(),
                )
            )
            blocks.append(np.concatenate([fwd.conf_wt.data, fwd.conf_nmp.data], axis=1))
    sizes = np.array([b.shape[0] for b in blocks], dtype=np.int64)
    values = np.concatenate(blocks) if blocks else np.empty((0, 2))
    return predictions, ([bag.case_id for bag in bags], sizes, values)


def _update(model, batch, cfg: TrainConfig, optimizer, modulation_hook, epoch, step) -> None:
    """Modulate the batch's summed gradient (unless ablated), then take the AdamW step.

    Both act on the model's gradient buffer in place; the hook sees that
    buffer after modulation.
    """
    grads = model.gradient_set()
    if "no_cmg" not in cfg.ablations:
        vote = majority_vote([getattr(bag.markers, HISTOLOGY.name) for bag in batch])
        record = cmg_modulate(
            grads,
            model.groups,
            vote,
            guide="no_guide" not in cfg.ablations,
            apply_rescale="no_rescale" not in cfg.ablations,
        )
        if modulation_hook is not None:
            modulation_hook(epoch=epoch, step=step, record=record, grads=grads)
    optimizer.step(grads)


def train_epoch(model, train_bags, adjacency, cfg: TrainConfig, optimizer, epoch,
                order_rng, modulation_hook=None):
    """One pass over the training bags; returns (term means, mean overlap)."""
    top_m = curriculum_m(epoch, cfg)
    order = order_rng.permutation(len(train_bags))
    term_sums = {name: 0.0 for name in LOSS_TERMS + ("total",)}
    overlap_sum = 0.0
    n_batches = 0
    for start in range(0, len(order), cfg.batch_size):
        batch = [train_bags[i] for i in order[start: start + cfg.batch_size]]
        model.zero_grads()
        inv_n = 1.0 / len(batch)
        sums = dict.fromkeys(LOSS_TERMS, 0.0)
        for bag in batch:
            fwd = model.forward(bag, adjacency)
            loss, bag_values = batch_loss(fwd, bag, adjacency, cfg, top_m)
            ad.backward(ad.scale(loss, inv_n))
            overlap_sum += dcc_overlap(fwd.conf_wt, fwd.conf_nmp, top_m)
            for name, v in bag_values.items():
                sums[name] += v
            del fwd, loss  # the bag's activations go before the next bag's forward
        values = term_values({name: v * inv_n for name, v in sums.items()}, cfg)
        _update(model, batch, cfg, optimizer, modulation_hook, epoch=epoch, step=n_batches)
        for name, v in values.items():
            term_sums[name] += v
        n_batches += 1
    term_means = {name: v / n_batches for name, v in term_sums.items()}
    mean_overlap = overlap_sum / len(order)
    return term_means, mean_overlap


def training_split(bags, cfg: TrainConfig):
    """``cfg``'s (train, held-out) split of ``bags``; a split with no held-out case is refused."""
    train_bags, val_bags = split_dataset(bags, cfg.val_fraction, cfg.seed)
    if not val_bags:
        raise DatasetError("a dataset of one case leaves none to hold out; training needs 2")
    return train_bags, val_bags


def train_model(bags, cfg: TrainConfig, modulation_hook=None, log=None) -> TrainResult:
    t0 = time.perf_counter()
    train_bags, val_bags = training_split(bags, cfg)
    cooc = estimate_cooccurrence(marker_table(train_bags))
    model = Model(
        ModelConfig.of(bags[0].feats_high.shape[1], cfg),
        np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(11,))),
    )
    optimizer = AdamW(model.theta, lr=cfg.lr, weight_decay=cfg.weight_decay)
    order_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(12,)))
    if log and "no_cmg" in cfg.ablations:
        log("gradient modulation: skipped (no_cmg)")
    held_out = {id(b) for b in val_bags}
    rows = []
    for epoch in range(cfg.epochs):
        term_means, overlap = train_epoch(
            model, train_bags, cooc.a, cfg, optimizer, epoch, order_rng, modulation_hook
        )
        # the last epoch scores every bag once: its held-out subset gives the
        # epoch row and the final report, the whole pass the confidences
        scored = bags if epoch == cfg.epochs - 1 else val_bags
        preds, confidences = evaluate(model, scored, cooc.a)
        report = compute_metrics([p for b, p in zip(scored, preds) if id(b) in held_out])
        rows.append(EpochRow(epoch=epoch, losses=term_means, dcc_overlap=overlap, report=report))
        if log:
            log(
                f"epoch {epoch:3d}  loss {term_means['total']:.4f}  "
                f"overlap {overlap:.3f}  val glioma acc {report.task(GLIOMA).accuracy:.3f}"
            )
    return TrainResult(
        cfg=cfg,
        model=model,
        cooc=cooc,
        rows=rows,
        report=report,
        train_ids=[b.case_id for b in train_bags],
        val_ids=[b.case_id for b in val_bags],
        confidences=confidences,
        seconds=time.perf_counter() - t0,
    )


def run_ablation(bags, cfg: TrainConfig, log=None):
    """Train the full model plus one single-flag variant per ``ABLATION_FLAGS`` entry.

    Every variant shares the base config's seed (and therefore the same
    split and init stream). Every variant's config, and the split they
    share, is checked before the first one trains. Returns
    [(variant_name, TrainResult), ...]; each result carries the config its
    variant trained with.
    """
    variants = [("full", cfg)] + [(flag, with_ablations(cfg, (flag,))) for flag in ABLATION_FLAGS]
    training_split(bags, cfg)
    results = []
    for name, variant_cfg in variants:
        if log:
            log(f"variant: {name}")
        results.append((name, train_model(bags, variant_cfg)))
    return results


# ---------------------------------------------------------------------------
# run artifacts

# one per metrics.TASKS entry: each finding's short name, then the tumour class
ACCURACY_COLUMNS = [f"acc_{key}" for key in (*FINDING_TERMS, GLIOMA)]
EPOCH_COLUMNS = (
    ["epoch", "loss_total"]
    + [f"loss_{name}" for name in LOSS_TERMS]
    + ["dcc_overlap"]
    + ACCURACY_COLUMNS
)


def epochs_csv(rows) -> str:
    lines = [",".join(EPOCH_COLUMNS)]
    for row in rows:
        cells = [str(row.epoch), f"{row.losses['total']:.6f}"]
        cells += [f"{row.losses[name]:.6f}" for name in LOSS_TERMS]
        cells.append(f"{row.dcc_overlap:.6f}")
        cells += [f"{row.report.task(task).accuracy:.6f}" for task in TASKS]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def confidences_csv(confidences) -> str:
    blocks = ["case_id,patch_index,conf_wt,conf_nmp\n"]
    case_ids, sizes, values = confidences
    start = 0
    for case_id, n in zip(case_ids, sizes.tolist()):
        rows = values[start:start + n].tolist()
        blocks.append("".join(f"{case_id},{i},{wt:.6g},{nmp:.6g}\n"
                              for i, (wt, nmp) in enumerate(rows)))
        start += n
    return "".join(blocks)


def ablation_csv(results) -> str:
    header = ["variant", *ACCURACY_COLUMNS, f"f1_{GLIOMA}", f"auc_{GLIOMA}"]
    lines = [",".join(header)]
    for name, result in results:
        glioma = result.report.task(GLIOMA)
        auc = "NA" if glioma.auc is None else f"{glioma.auc:.6f}"
        accs = (f"{result.report.task(task).accuracy:.6f}" for task in TASKS)
        lines.append(",".join([name, *accs, f"{glioma.f1:.6f}", auc]))
    return "\n".join(lines) + "\n"
