"""Per-layer metrics computed from a traced run's spans.

On a training workload a *step-scoped* metric is the median over training
steps of that step's total; a step runs from one ``model.zero_grads`` call
inside ``trainer.train_epoch`` to the next (or to the end of the epoch).
*Run-scoped* metrics are totals over the traced set-up and job. On a
workload without training steps every metric is a total over the run.

``_ms`` metrics of modules are inclusive times; an autodiff op's ``fwd_ms``
is its self time, so composite ops (``cosine``) do not count the ops they
call twice.
"""
from __future__ import annotations

import gc
import time

import numpy as np

from tracer import OPS, Tracer

TRAIN_OPS = (
    "add", "sub", "mul", "div", "scale", "matmul", "transpose", "repeat_rows",
    "concat", "narrow", "tanh", "relu", "softmax", "layer_norm", "sum_all",
    "l2norm", "cosine", "softmax_cross_entropy",
)

# metric -> (span name, statistic); statistic is "calls", "ms" (inclusive),
# "self_ms" or "count" (the spans' summed count field)
_OP_SPANS = {}
for _op in TRAIN_OPS:
    _OP_SPANS[f"autodiff.{_op}.calls"] = (f"autodiff.{_op}", "calls")
    _OP_SPANS[f"autodiff.{_op}.fwd_ms"] = (f"autodiff.{_op}", "self_ms")
    _OP_SPANS[f"autodiff.{_op}.bwd_ms"] = (f"autodiff.{_op}.bwd", "ms")
_MODULE_SPANS = {
    "autodiff.backward_ms": ("autodiff.backward", "ms"),
    "blocks.transformer_block.calls": ("blocks.transformer_block", "calls"),
    "blocks.transformer_block_ms": ("blocks.transformer_block", "ms"),
    "blocks.attention_pool_ms": ("blocks.attention_pool", "ms"),
    "disentangle.disentangle_ms": ("disentangle.disentangle", "ms"),
    "disentangle.disentangle_loss_ms": ("disentangle.disentangle_loss", "ms"),
    "heads.molecular_forward_ms": ("heads.molecular_forward", "ms"),
    "heads.graph_mix_ms": ("heads.graph_mix", "ms"),
    "heads.histology_forward_ms": ("heads.histology_forward", "ms"),
    "heads.fusion_classify_ms": ("heads.fusion_classify", "ms"),
    "heads.correlation_loss_ms": ("heads.correlation_loss", "ms"),
    "interaction.confidence_weights_ms": ("interaction.confidence_weights", "ms"),
    "interaction.dcc_surrogate_ms": ("interaction.dcc_surrogate", "ms"),
    "interaction.dcc_overlap_ms": ("interaction.dcc_overlap", "ms"),
    "interaction.cmg_modulate_ms": ("interaction.cmg_modulate", "ms"),
    "model.forward_ms": ("model.forward", "ms"),
    "model.gradient_set_ms": ("model.gradient_set", "ms"),
    "model.zero_grads_ms": ("model.zero_grads", "ms"),
    "optim.step_ms": ("optim.step", "ms"),
}
_STEP_SPANS = {**_OP_SPANS, **_MODULE_SPANS}
_STEP_NODES = ("autodiff.nodes_per_step", "autodiff.bytes_per_step")
STEP_PHASES = ("forward", "loss", "backward", "modulation", "adamw")

_RUN_SPANS = {
    "trainer.evaluate_ms": ("trainer.evaluate", "ms"),
    "metrics.compute_metrics_ms": ("metrics.compute_metrics", "ms"),
    "synth.generate_dataset_ms": ("bench.generate", "ms"),
    "dataio.write_dataset_ms": ("dataio.write_dataset", "ms"),
    "dataio.read_dataset_ms": ("dataio.read_dataset", "ms"),
    "dataio.read_dataset_bytes": ("dataio.read_dataset", "count"),
    "dataio.write_checkpoint_ms": ("dataio.write_checkpoint", "ms"),
    "dataio.read_checkpoint_ms": ("dataio.read_checkpoint", "ms"),
    "gradcheck.grad_check.calls": ("gradcheck.grad_check", "calls"),
    "gradcheck.grad_check_ms": ("gradcheck.grad_check", "ms"),
    "gradcheck.loss_evals": ("gradcheck.loss_eval", "calls"),
    "verify.check_ops_ms": ("verify.check_ops", "ms"),
    "verify.check_model_ms": ("verify.check_model", "ms"),
}
GC_METRICS = ("python.gc.collections", "python.gc.pause_ms") + tuple(
    f"python.gc.gen{g}.{kind}" for g in range(3) for kind in ("collections", "pause_ms")
)
OVERHEAD = "trace.overhead_ratio"


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes") or name == "autodiff.bytes_per_step":
        return "bytes"
    if name == OVERHEAD:
        return "ratio"
    return "count"


METRICS = (
    tuple(_OP_SPANS) + _STEP_NODES + tuple(_MODULE_SPANS)
    + tuple(f"trainer.step.{p}_ms" for p in STEP_PHASES)
    + tuple(_RUN_SPANS) + GC_METRICS + (OVERHEAD,)
)
UNITS = {name: _unit(name) for name in METRICS}


def _step_of_spans(names: list, a: dict) -> tuple:
    """Label every span with the training step it ran in (-1 outside steps)."""
    ids = {n: i for i, n in enumerate(names)}
    step_of = np.full(a["start"].size, -1, dtype=np.int64)
    if "trainer.train_epoch" not in ids or "model.zero_grads" not in ids:
        return step_of, 0
    n_steps = 0
    for e in np.flatnonzero(a["name_id"] == ids["trainer.train_epoch"]):
        stop = int(np.searchsorted(a["start"], a["end"][e], side="left"))
        inside = np.arange(e + 1, stop)
        heads = inside[(a["name_id"][inside] == ids["model.zero_grads"])
                       & (a["parent"][inside] == e)]
        bounds = list(heads) + [stop]
        for k in range(len(heads)):
            step_of[bounds[k]:bounds[k + 1]] = n_steps
            n_steps += 1
    return step_of, n_steps


def _values(stat: str, a: dict, mask: np.ndarray) -> np.ndarray:
    if stat == "calls":
        return np.ones(int(mask.sum()))
    if stat == "count":
        return a["count"][mask].astype(np.float64)
    key = "self" if stat == "self_ms" else "dur"
    return a[key][mask] / 1e6


def _phases(names: list, a: dict, step_of: np.ndarray, n_steps: int) -> dict:
    """Step phases as the intervals between the step's boundary spans."""
    ids = {n: i for i, n in enumerate(names)}
    epoch_id = ids["trainer.train_epoch"]
    direct = (step_of >= 0) & (a["parent"] >= 0)
    direct[direct] = a["name_id"][a["parent"][direct]] == epoch_id

    def first(name, field):
        out = np.zeros(n_steps, dtype=np.int64)
        if name in ids:
            m = direct & (a["name_id"] == ids[name])
            out[step_of[m][::-1]] = a[field][m][::-1]  # first occurrence wins
        return out

    step_start = first("model.zero_grads", "start")
    loss_start, loss_end = first("trainer.batch_loss", "start"), first("trainer.batch_loss", "end")
    bwd_end = first("autodiff.backward", "end")
    opt_start, opt_end = first("optim.step", "start"), first("optim.step", "end")
    phases = {
        "forward": loss_start - step_start,
        "loss": loss_end - loss_start,
        "backward": bwd_end - loss_end,
        "modulation": opt_start - bwd_end,
        "adamw": opt_end - opt_start,
    }
    return {f"trainer.step.{p}_ms": float(np.median(v)) / 1e6 for p, v in phases.items()}


def span_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric the spans determine (all but GC and overhead)."""
    a = tracer.arrays()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    step_of, n_steps = _step_of_spans(names, a)
    out = {}

    def reduce(span: str, stat: str, per_step: bool) -> float:
        if span not in ids:
            return 0.0
        mask = a["name_id"] == ids[span]
        if per_step:
            mask &= step_of >= 0
            sums = np.bincount(step_of[mask], weights=_values(stat, a, mask), minlength=n_steps)
            return float(np.median(sums))
        return float(_values(stat, a, mask).sum())

    per_step = n_steps > 0
    for metric, (span, stat) in _STEP_SPANS.items():
        out[metric] = reduce(span, stat, per_step)
    op_ids = [ids[f"autodiff.{op}"] for op in OPS if f"autodiff.{op}" in ids]
    node = np.isin(a["name_id"], op_ids) & (a["count"] >= 0)
    if per_step:
        node &= step_of >= 0
        nodes = np.bincount(step_of[node], minlength=n_steps)
        nbytes = np.bincount(step_of[node], weights=a["count"][node], minlength=n_steps)
        out["autodiff.nodes_per_step"] = float(np.median(nodes))
        out["autodiff.bytes_per_step"] = float(np.median(nbytes))
        out.update(_phases(names, a, step_of, n_steps))
    else:
        out["autodiff.nodes_per_step"] = float(node.sum())
        out["autodiff.bytes_per_step"] = float(a["count"][node].sum())
        out.update({f"trainer.step.{p}_ms": 0.0 for p in STEP_PHASES})
    for metric, (span, stat) in _RUN_SPANS.items():
        out[metric] = reduce(span, stat, False)
    return out


class GcMeter:
    """Counts collections and their pause time per generation via ``gc.callbacks``."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.pause_ns = [0, 0, 0]
        self._t0 = 0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter_ns()
            return
        gen = info["generation"]
        self.collections[gen] += 1
        self.pause_ns[gen] += time.perf_counter_ns() - self._t0

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)

    def metrics(self) -> dict:
        out = {
            "python.gc.collections": float(sum(self.collections)),
            "python.gc.pause_ms": sum(self.pause_ns) / 1e6,
        }
        for g in range(3):
            out[f"python.gc.gen{g}.collections"] = float(self.collections[g])
            out[f"python.gc.gen{g}.pause_ms"] = self.pause_ns[g] / 1e6
        return out
