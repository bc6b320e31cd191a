"""Accuracy and pseudo-labeling quality metrics.

Test-time classification reuses the training-time rule: softmax over
prototype cosines, argmax class. The softmax temperature cannot change the
argmax, so accuracy is temperature-invariant; the parameter is kept so the
reported probabilities match what the gate saw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .pseudo import (DecisionKind, EntropyGate, PrototypeBank,
                     assign_pseudo_labels, class_probabilities, kind_counts)

__all__ = [
    "EvalReport",
    "build_report",
    "evaluate",
    "format_report",
    "pseudo_metrics",
    "weight_histogram",
]

HISTOGRAM_BINS = 10


def evaluate(encoder, bank: PrototypeBank, features, labels, t_prime: float) -> float:
    """Fraction of rows whose argmax class probability matches the label.

    Ties in the argmax go to the lowest class index. Raises on an empty
    evaluation set.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty split")
    if labels.shape != (features.shape[0],):
        raise ValueError("labels must align with feature rows")
    z, _ = encoder.forward(features)
    predictions = np.argmax(class_probabilities(z, bank, t_prime), axis=1)
    return float(np.mean(predictions == labels))


def pseudo_metrics(decisions, hidden_labels):
    """(coverage, precision) of pseudo-label decisions against hidden truth.

    Coverage counts Confident and EntropySelected samples. Precision is
    computed over that same set and is None when it is empty (never 0 or 1
    by convention) or when `hidden_labels` is None (the truth is unknown).
    """
    if hidden_labels is not None:
        hidden = np.asarray(hidden_labels, dtype=np.int64)
        if len(decisions) != hidden.shape[0]:
            raise ValueError(
                f"{len(decisions)} decisions vs {hidden.shape[0]} labels")
    if len(decisions) == 0:
        raise ValueError("no decisions to score")
    selected = decisions["kind"] != DecisionKind.REJECTED
    coverage = float(np.mean(selected))
    if hidden_labels is None or not selected.any():
        return coverage, None
    correct = decisions["assigned_label"][selected] == hidden[selected]
    return coverage, float(np.mean(correct))


def weight_histogram(decisions) -> np.ndarray:
    """Counts of decision weights in HISTOGRAM_BINS uniform bins over [0, 1]."""
    counts, _ = np.histogram(decisions["weight"], bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return counts


@dataclass
class EvalReport:
    test_accuracy: float
    pseudo_coverage: float
    pseudo_precision: Optional[float]
    weight_histogram: np.ndarray
    confident: int
    entropy_selected: int
    rejected: int


def build_report(encoder, bank: PrototypeBank, dataset: Dataset, gate: EntropyGate,
                 entropy_gate_enabled: bool, t_prime: float) -> EvalReport:
    """Full report: test accuracy plus gate behavior over the un-augmented
    unlabeled split, scored against its hidden labels. When the dataset
    hides them, precision is None and coverage is still reported."""
    unlabeled = dataset.unlabeled_features()
    if unlabeled.shape[0] == 0:
        raise ValueError("dataset has no unlabeled rows to report on")
    z, _ = encoder.forward(unlabeled)
    probs = class_probabilities(z, bank, t_prime)
    decisions = assign_pseudo_labels(probs, gate, entropy_gate_enabled)
    try:
        truth = dataset.unlabeled_true_labels()
    except ValueError:  # hidden in this export
        truth = None
    coverage, precision = pseudo_metrics(decisions, truth)
    accuracy = evaluate(encoder, bank, dataset.test_features(),
                        dataset.test_labels(), t_prime)
    return EvalReport(accuracy, coverage, precision, weight_histogram(decisions),
                      *kind_counts(decisions))


def format_report(report: EvalReport) -> str:
    precision = ("n/a" if report.pseudo_precision is None
                 else f"{report.pseudo_precision:.4f}")
    lines = [
        f"test accuracy       {report.test_accuracy:.4f}",
        f"pseudo coverage     {report.pseudo_coverage:.4f}",
        f"pseudo precision    {precision}",
        f"confident           {report.confident}",
        f"entropy selected    {report.entropy_selected}",
        f"rejected            {report.rejected}",
        f"weight histogram    {report.weight_histogram.tolist()} "
        f"({len(report.weight_histogram)} bins over [0, 1])",
    ]
    return "\n".join(lines)
