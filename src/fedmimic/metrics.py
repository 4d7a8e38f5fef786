"""Confusion matrix, per-class one-vs-rest metrics (accuracy, precision,
recall, false alarm rate, F-score, in percent), pseudo-label agreement."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import AttackClass

CLASS_NAMES = [c.name for c in AttackClass]


def confusion(preds: np.ndarray, truth: np.ndarray,
              num_classes: int = 5) -> np.ndarray:
    """counts[t][p]: rows are true classes, columns predicted."""
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.shape != truth.shape:
        raise ValueError(f"{preds.shape[0]} predictions vs {truth.shape[0]} labels")
    if preds.shape[0] == 0:
        raise ValueError("cannot build a confusion matrix from zero examples")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (truth, preds), 1)
    return cm


def _ratio(num: float, den: float) -> float:
    # zero denominators define to 0 (matches the all-miss minority-class rows)
    return 100.0 * num / den if den > 0 else 0.0


@dataclass
class ClassMetrics:
    accuracy: float
    precision: float
    recall: float
    false_alarm: float
    f_score: float


@dataclass
class EvalReport:
    cm: np.ndarray
    per_class: dict[str, ClassMetrics]
    overall_accuracy: float

    def to_text(self) -> str:
        lines = ["Label       Accuracy  Precision  Recall  FalseAlarm  F-Score"]
        for name, m in self.per_class.items():
            lines.append(f"{name:<11} {m.accuracy:>8.2f} {m.precision:>10.2f} "
                         f"{m.recall:>7.2f} {m.false_alarm:>11.2f} {m.f_score:>8.2f}")
        lines.append(f"Overall accuracy: {self.overall_accuracy:.2f}%")
        lines.append("")
        lines.append("Confusion matrix (rows = truth, columns = predicted):")
        header = " ".join(f"{n:>8}" for n in self.per_class)
        lines.append(f"{'':<11} {header}")
        for name, row in zip(self.per_class, self.cm):
            lines.append(f"{name:<11} " + " ".join(f"{v:>8d}" for v in row))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["Label,Accuracy,Precision,Recall,FalseAlarm,F-Score"]
        for name, m in self.per_class.items():
            lines.append(f"{name},{m.accuracy:.2f},{m.precision:.2f},"
                         f"{m.recall:.2f},{m.false_alarm:.2f},{m.f_score:.2f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "confusion_matrix": self.cm.tolist(),
            "per_class": {name: vars(m) for name, m in self.per_class.items()},
            "overall_accuracy": self.overall_accuracy,
        }
        return json.dumps(doc, indent=1, sort_keys=True)


def per_class_metrics(cm: np.ndarray) -> EvalReport:
    """One-vs-rest metrics per class plus the overall (micro) accuracy."""
    cm = np.asarray(cm)
    n = int(cm.sum())
    per_class = {}
    for c, name in enumerate(CLASS_NAMES[:cm.shape[0]]):
        tp = float(cm[c, c])
        fp = float(cm[:, c].sum() - tp)
        fn = float(cm[c, :].sum() - tp)
        tn = float(n - tp - fp - fn)
        precision = _ratio(tp, tp + fp)
        recall = _ratio(tp, tp + fn)
        per_class[name] = ClassMetrics(
            accuracy=_ratio(tp + tn, n),
            precision=precision,
            recall=recall,
            false_alarm=_ratio(fp, fp + tn),
            f_score=_ratio(2 * precision * recall / 100.0, precision + recall),
        )
    return EvalReport(cm=cm, per_class=per_class,
                      overall_accuracy=overall_accuracy(cm))


def overall_accuracy(cm: np.ndarray) -> float:
    cm = np.asarray(cm)
    return 100.0 * float(np.trace(cm)) / float(cm.sum())


def pseudo_label_agreement(pseudo: list[np.ndarray]) -> float:
    """Fraction of (client, sample) pseudo-labels that match the per-sample
    majority label across clients (ties go to the lowest label)."""
    stack = np.stack(pseudo)
    n = stack.shape[1]
    if n == 0:
        return 1.0
    classes = int(stack.max()) + 1
    # votes per (class, sample), counted in one bincount over class*n + sample
    counts = np.bincount((stack * n + np.arange(n)).ravel(),
                         minlength=classes * n).reshape(classes, n)
    majority = counts.argmax(axis=0)
    return float((stack == majority).mean())
