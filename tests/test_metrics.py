"""Metric oracles: rank AUC against the pairwise definition, the
micro-average identity, the micro panel against per-class pooled
counts, average ranks against scipy, and report assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from gliomil.metrics import (
    CasePrediction,
    TaskMetrics,
    _average_ranks,
    _ratio,
    binary_task_metrics,
    compute_metrics,
    micro_multiclass_metrics,
    rank_auc,
    report_text,
)


def pairwise_auc(labels, scores):
    """Direct definition: P(score_pos > score_neg), ties counted half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else (0.5 if p == n else 0.0)
    return wins / (pos.size * neg.size)


def test_auc_hand_value():
    labels = np.array([0, 0, 1, 1])
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    # pairs: (.35,.1) win, (.35,.4) loss, (.8,.1) win, (.8,.4) win -> 3/4
    assert rank_auc(labels, scores) == pytest.approx(0.75, abs=1e-12)


def test_auc_perfect_and_inverted():
    labels = np.array([0, 0, 1, 1])
    assert rank_auc(labels, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert rank_auc(labels, np.array([0.8, 0.9, 0.1, 0.2])) == 0.0


def test_auc_all_tied_scores():
    labels = np.array([0, 1, 0, 1])
    assert rank_auc(labels, np.full(4, 0.5)) == pytest.approx(0.5, abs=1e-12)


def test_auc_single_class_is_none():
    assert rank_auc(np.zeros(5, dtype=int), np.linspace(0, 1, 5)) is None
    assert rank_auc(np.ones(5, dtype=int), np.linspace(0, 1, 5)) is None


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(42)
    for trial in range(300):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        # quantized scores so ties actually occur
        scores = rng.integers(0, 6, size=n) / 5.0
        expect = pairwise_auc(labels, scores)
        got = rank_auc(labels, scores)
        if expect is None:
            assert got is None
        else:
            assert got == pytest.approx(expect, abs=1e-12)


def test_binary_metrics_hand_table():
    labels = np.array([1, 1, 0, 0, 1])
    preds = np.array([1, 0, 0, 1, 1])
    scores = np.array([0.9, 0.2, 0.1, 0.7, 0.8])
    m = binary_task_metrics(labels, preds, scores)
    assert m.accuracy == pytest.approx(3 / 5)
    assert m.sensitivity == pytest.approx(2 / 3)
    assert m.specificity == pytest.approx(1 / 2)
    # precision 2/3, recall 2/3 -> f1 = 2/3
    assert m.f1 == pytest.approx(2 / 3)
    assert m.auc == pytest.approx(pairwise_auc(labels, scores), abs=1e-12)


def test_binary_metrics_degenerate_labels():
    labels = np.zeros(4, dtype=int)
    preds = np.array([0, 1, 0, 0])
    m = binary_task_metrics(labels, preds, np.linspace(0, 1, 4))
    assert m.sensitivity == 0.0  # no positives to be sensitive to
    assert m.specificity == pytest.approx(3 / 4)
    assert m.auc is None
    assert m.f1 == 0.0


def test_micro_identity_random_sets():
    rng = np.random.default_rng(7)
    for trial in range(1000):
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, 4, size=n)
        preds = rng.integers(0, 4, size=n)
        probs = rng.random((n, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        m = micro_multiclass_metrics(labels, preds, probs)
        correct = float(np.mean(labels == preds))
        assert m.accuracy == m.sensitivity == m.f1 == correct


def pooled_count_panel(labels, preds, probs, n_classes=4):
    """The micro panel from the one-vs-rest confusion counts of each class, summed."""
    labels, preds = np.asarray(labels), np.asarray(preds)
    n = labels.size
    tp = fp = tn = fn = 0
    for c in range(n_classes):
        tp += int(((preds == c) & (labels == c)).sum())
        fp += int(((preds == c) & (labels != c)).sum())
        fn += int(((preds != c) & (labels == c)).sum())
        tn += int(((preds != c) & (labels != c)).sum())
    onehot = (labels[:, None] == np.arange(n_classes)[None, :]).astype(np.int64)
    return TaskMetrics(
        accuracy=_ratio(tp, n),
        sensitivity=_ratio(tp, tp + fn),
        specificity=_ratio(tn, tn + fp),
        auc=rank_auc(onehot.ravel(), np.asarray(probs).ravel()) if n else None,
        f1=_ratio(2 * tp, 2 * tp + fp + fn),
    )


def test_micro_panel_matches_per_class_pooled_counts():
    rng = np.random.default_rng(11)
    draws = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros((0, 4)))]
    for trial in range(500):
        n = int(rng.integers(1, 30))
        labels = rng.integers(0, 4, size=n)
        preds = labels.copy() if trial % 5 == 0 else rng.integers(0, 4, size=n)
        tied = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], size=(n, 4))
        probs = tied if trial % 2 else rng.random((n, 4))
        draws.append((labels, preds, probs))
    for labels, preds, probs in draws:
        got = micro_multiclass_metrics(labels, preds, probs)._asdict()
        assert got == pooled_count_panel(labels, preds, probs)._asdict()


# finite scores, with ties and -0.0 beside 0.0 drawn often
SCORES = st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.25]) | st.floats(allow_nan=False,
                                                                       allow_infinity=False),
                  max_size=40)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(SCORES)
def test_average_ranks_match_scipy_rankdata(scores):
    x = np.array(scores, dtype=np.float64)
    np.testing.assert_array_equal(_average_ranks(x), rankdata(x, method="average"))


def test_micro_perfect_predictions():
    labels = np.array([0, 1, 2, 3, 2, 1])
    probs = np.eye(4)[labels] * 0.97 + 0.0075
    m = micro_multiclass_metrics(labels, labels.copy(), probs)
    assert m.accuracy == 1.0 and m.sensitivity == 1.0 and m.f1 == 1.0
    assert m.specificity == 1.0
    assert m.auc == 1.0


def _fake_prediction(rng, case_id):
    marker_probs = rng.random(4)
    glioma_probs = rng.random(4)
    glioma_probs /= glioma_probs.sum()
    return CasePrediction(
        case_id=case_id,
        marker_truth=rng.integers(0, 2, size=4),
        glioma_truth=int(rng.integers(0, 4)),
        marker_probs=marker_probs,
        glioma_probs=glioma_probs,
    )


def test_compute_metrics_thresholds_at_half():
    rng = np.random.default_rng(3)
    preds = [_fake_prediction(rng, f"case{i:04d}") for i in range(40)]
    report = compute_metrics(preds)
    labels = np.array([p.marker_truth[0] for p in preds])
    hard = np.array([1 if p.marker_probs[0] > 0.5 else 0 for p in preds])
    assert report.idh_mut.accuracy == pytest.approx(float(np.mean(labels == hard)))
    glioma_hard = np.array([int(np.argmax(p.glioma_probs)) for p in preds])
    truths = np.array([p.glioma_truth for p in preds])
    assert report.glioma.accuracy == pytest.approx(float(np.mean(glioma_hard == truths)))


def test_report_text_layout():
    rng = np.random.default_rng(5)
    preds = [_fake_prediction(rng, f"case{i:04d}") for i in range(12)]
    text = report_text(compute_metrics(preds), title="check")
    lines = text.strip().splitlines()
    assert lines[0] == "check"
    assert lines[1].split() == ["task", "acc", "sens", "spec", "auc", "f1"]
    assert len(lines) == 7
    assert lines[2].startswith("idh_mut")


def test_report_text_prints_na_for_undefined_auc():
    preds = []
    rng = np.random.default_rng(9)
    for i in range(6):
        p = _fake_prediction(rng, f"case{i:04d}")
        p.marker_truth[0] = 1  # IDH single-class -> AUC undefined
        preds.append(p)
    text = report_text(compute_metrics(preds))
    idh_line = [ln for ln in text.splitlines() if ln.startswith("idh_mut")][0]
    assert "NA" in idh_line
