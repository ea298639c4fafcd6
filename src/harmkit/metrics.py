"""Precision/recall/F1 evaluation for the 4-class and 5-target tasks.

Conventions: 0/0 is scored as 0 for precision, recall, and F1; macro-F1 is
the unweighted mean over classes (degenerate classes included); weighted-F1
weights by gold support; micro-F1 pools TP/FP/FN, which for single-label
multi-class classification equals accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class ConfusionMatrix:
    """counts[g][p] = number of documents with gold class g predicted as p."""

    counts: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class MetricsReport:
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    support: tuple[int, ...]
    macro_f1: float
    micro_f1: float
    weighted_f1: float

    def to_dict(self) -> dict:
        return {
            "precision": list(self.precision),
            "recall": list(self.recall),
            "f1": list(self.f1),
            "support": list(self.support),
            "macro_f1": self.macro_f1,
            "micro_f1": self.micro_f1,
            "weighted_f1": self.weighted_f1,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def confusion(gold: Sequence[int], pred: Sequence[int], num_classes: int = 4) -> ConfusionMatrix:
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} labels, pred has {len(pred)}")
    if len(gold) == 0:
        raise ValueError("cannot build a confusion matrix from zero examples")
    g, p = np.asarray(gold), np.asarray(pred)
    in_range = (g >= 0) & (g < num_classes) & (p >= 0) & (p < num_classes)
    if not in_range.all():
        first = int(np.argmin(in_range))
        raise ValueError(f"label pair ({gold[first]}, {pred[first]}) outside 0..{num_classes - 1}")
    counts = np.bincount(g * num_classes + p, minlength=num_classes**2)
    return ConfusionMatrix(counts=counts.reshape(num_classes, num_classes))


def _report_from_counts(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray, support: np.ndarray) -> MetricsReport:
    precision = tuple(_safe_div(t, t + f) for t, f in zip(tp, fp))
    recall = tuple(_safe_div(t, t + f) for t, f in zip(tp, fn))
    f1 = tuple(_safe_div(2 * p * r, p + r) for p, r in zip(precision, recall))
    pooled_tp, pooled_fp, pooled_fn = tp.sum(), fp.sum(), fn.sum()
    micro = _safe_div(2 * pooled_tp, 2 * pooled_tp + pooled_fp + pooled_fn)
    total_support = support.sum()
    weighted = (
        float(sum(s * f for s, f in zip(support, f1)) / total_support)
        if total_support > 0
        else 0.0
    )
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=tuple(int(s) for s in support),
        macro_f1=float(np.mean(f1)),
        micro_f1=float(micro),
        weighted_f1=weighted,
    )


def classification_report(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class P/R/F1 with macro, micro, and support-weighted aggregates."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    counts = cm.counts
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    return _report_from_counts(tp, fp, fn, counts.sum(axis=1))


def check_eta(eta: float) -> None:
    """The targets threshold rule: ``sigma >= eta`` flags a target, for eta in (0, 1)."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")


def multilabel_report(
    gold: Sequence[tuple[int, ...]],
    sigmas: Sequence[np.ndarray] | np.ndarray,
    eta: float = 0.5,
) -> MetricsReport:
    """Threshold sigmas at eta, then score per-target and pooled decisions.

    micro_f1 pools TP/FP/FN over all num_targets * N decisions; macro_f1
    averages per-target F1; support counts gold positives per target.
    """
    sig = np.asarray(sigmas, dtype=np.float64)
    gold_mat = np.asarray(gold, dtype=np.int64)
    if sig.shape != gold_mat.shape:
        raise ValueError(f"gold shape {gold_mat.shape} != sigma shape {sig.shape}")
    if sig.ndim != 2:
        raise ValueError(f"expected (N, num_targets) arrays, got shape {sig.shape}")
    check_eta(eta)

    decisions = sig >= eta
    positives = gold_mat == 1
    tp = (decisions & positives).sum(axis=0).astype(np.float64)
    fp = (decisions & ~positives).sum(axis=0).astype(np.float64)
    fn = (~decisions & positives).sum(axis=0).astype(np.float64)
    return _report_from_counts(tp, fp, fn, positives.sum(axis=0))
