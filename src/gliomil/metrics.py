"""Classification metrics: per-marker binary panels and the micro-averaged
four-way tumour panel.

AUC is the rank statistic (probability a positive outscores a negative,
ties counting one half). A task whose evaluation labels are single-class
has no defined AUC and reports None; text renderings print ``NA``. Other
ratios fall back to 0 when their denominator is empty.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .config import FINDINGS, GLIOMA

TASKS = (*(f.name for f in FINDINGS), GLIOMA)


@dataclass
class TaskMetrics:
    accuracy: float
    sensitivity: float
    specificity: float
    auc: float | None
    f1: float


class MetricReport(SimpleNamespace):
    """One ``TaskMetrics`` attribute per ``TASKS`` name, in that order."""

    def task(self, name: str) -> TaskMetrics:
        return getattr(self, name)


@dataclass
class CasePrediction:
    """Per-case evaluation record: truth plus predicted scores."""

    case_id: str
    marker_truth: np.ndarray   # (F,) int: each finding's label, in ``config.FINDINGS`` order
    glioma_truth: int
    marker_probs: np.ndarray   # (F,) each finding's positive-class probability, in that order
    glioma_probs: np.ndarray   # (4,) class probabilities


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of finite scores, tied values sharing their average rank."""
    sx = x[np.argsort(x, kind="stable")]  # not np.sort, whose kernel adds ~0.25 MB of RSS
    left, right = np.searchsorted(sx, x, side="left"), np.searchsorted(sx, x, side="right")
    return 0.5 * (left + right - 1) + 1.0


def rank_auc(labels: np.ndarray, scores: np.ndarray):
    """Mann-Whitney AUC with half credit for ties; None if single-class."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den > 0 else 0.0


def binary_task_metrics(labels, preds, scores) -> TaskMetrics:
    labels = np.asarray(labels, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    tp = int(((preds == 1) & (labels == 1)).sum())
    tn = int(((preds == 0) & (labels == 0)).sum())
    fp = int(((preds == 1) & (labels == 0)).sum())
    fn = int(((preds == 0) & (labels == 1)).sum())
    return TaskMetrics(
        accuracy=_ratio(tp + tn, labels.size),
        sensitivity=_ratio(tp, tp + fn),
        specificity=_ratio(tn, tn + fp),
        auc=rank_auc(labels, scores),
        f1=_ratio(2 * tp, 2 * tp + fp + fn),
    )


def micro_multiclass_metrics(labels, preds, probs) -> TaskMetrics:
    """Micro-averaged one-vs-rest panel for single-label multiclass.

    The classes are the columns of ``probs``. The pooled one-vs-rest
    counts are the binary counts over the flattened one-hot label and
    prediction rows, so the panel is ``binary_task_metrics`` on those rows
    with the per-case accuracy. Pooling makes micro sensitivity and F1
    equal that accuracy; specificity pools the rest. The AUC pools every
    (one-vs-rest label, class probability) pair into one rank statistic.
    """
    labels = np.asarray(labels, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    classes = np.arange(probs.shape[1])
    pooled = binary_task_metrics((labels[:, None] == classes).ravel(),
                                 (preds[:, None] == classes).ravel(), probs.ravel())
    return replace(pooled, accuracy=_ratio(int((preds == labels).sum()), labels.size))


def compute_metrics(predictions) -> MetricReport:
    marker_truth = np.array([p.marker_truth for p in predictions], dtype=np.int64)
    marker_probs = np.array([p.marker_probs for p in predictions], dtype=np.float64)
    glioma_truth = np.array([p.glioma_truth for p in predictions], dtype=np.int64)
    glioma_probs = np.array([p.glioma_probs for p in predictions], dtype=np.float64)
    panels = {}
    for i, name in enumerate(TASKS[:-1]):  # the findings
        scores = marker_probs[:, i]
        panels[name] = binary_task_metrics(marker_truth[:, i], (scores > 0.5).astype(int), scores)
    glioma_pred = glioma_probs.argmax(axis=1)
    panels[GLIOMA] = micro_multiclass_metrics(glioma_truth, glioma_pred, glioma_probs)
    return MetricReport(**panels)


def _fmt(value) -> str:
    return "NA" if value is None else f"{value:.4f}"


def report_text(report: MetricReport, title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'task':14s} {'acc':>8s} {'sens':>8s} {'spec':>8s} {'auc':>8s} {'f1':>8s}")
    for name in TASKS:
        t = report.task(name)
        lines.append(
            f"{name:14s} {t.accuracy:8.4f} {t.sensitivity:8.4f} "
            f"{t.specificity:8.4f} {_fmt(t.auc):>8s} {t.f1:8.4f}"
        )
    return "\n".join(lines) + "\n"
