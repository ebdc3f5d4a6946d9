"""Binary classification metrics for the target class."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

TARGET = 1
NON_TARGET = 0


@dataclass
class MetricsReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    fpr: float
    auc: float | None = None
    # ratios whose denominator was zero, reported as 0
    degenerate: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"tp\t{self.tp}", f"fp\t{self.fp}", f"tn\t{self.tn}", f"fn\t{self.fn}"]
        for name in ("accuracy", "precision", "recall", "f1", "fpr"):
            lines.append(f"{name}\t{getattr(self, name):.6f}")
        if self.auc is not None:
            lines.append(f"auc\t{self.auc:.6f}")
        if self.degenerate:
            lines.append("degenerate\t" + ",".join(self.degenerate))
        return "\n".join(lines) + "\n"


def score(predictions, truth, scores=None) -> MetricsReport:
    """Confusion counts, derived ratios and, given ranking scores (higher
    is more target-like), the AUC; zero-denominator ratios, and the AUC of
    one class, come back as 0 with the ratio named in ``degenerate``."""
    preds = np.asarray(predictions, dtype=int)
    y = np.asarray(truth, dtype=int)
    if preds.shape != y.shape:
        raise NumericalError(f"{preds.shape[0]} predictions vs {y.shape[0]} labels")
    tp = int(np.sum((preds == TARGET) & (y == TARGET)))
    fp = int(np.sum((preds == TARGET) & (y == NON_TARGET)))
    tn = int(np.sum((preds == NON_TARGET) & (y == NON_TARGET)))
    fn = int(np.sum((preds == NON_TARGET) & (y == TARGET)))
    degenerate = []

    def ratio(num, den, name):
        if den == 0:
            degenerate.append(name)
            return 0.0
        return num / den

    accuracy = ratio(tp + tn, tp + fp + tn + fn, "accuracy")
    precision = ratio(tp, tp + fp, "precision")
    recall = ratio(tp, tp + fn, "recall")
    fpr = ratio(fp, fp + tn, "fpr")
    f1 = ratio(2 * precision * recall, precision + recall, "f1")
    auc = None
    if scores is not None:  # one class ranks no (target, non-target) pair: no denominator
        auc = roc_auc(scores, y) if (tp + fn) * (fp + tn) else ratio(0, 0, "auc")
    return MetricsReport(tp=tp, fp=fp, tn=tn, fn=fn, accuracy=accuracy,
                         precision=precision, recall=recall, f1=f1, fpr=fpr,
                         auc=auc, degenerate=degenerate)


def roc_auc(scores, truth) -> float:
    """P(random target outscores random non-target), ties counting 1/2.

    Exact sorted counts: each target score is located among the sorted
    non-target scores, so the numerator is a half-integer count of pairs
    (the Mann-Whitney U), in O(N log N).
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(truth, dtype=int)
    if s.shape != y.shape:
        raise NumericalError(f"{s.shape[0]} scores vs {y.shape[0]} labels")
    n_pos = int(np.sum(y == TARGET))
    n_neg = int(np.sum(y == NON_TARGET))
    if n_pos == 0 or n_neg == 0:
        raise NumericalError("both classes must be present")
    neg = np.sort(s[y == NON_TARGET])
    pos = s[y == TARGET]
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float(below.sum() + 0.5 * tied.sum()) / (n_pos * n_neg)
