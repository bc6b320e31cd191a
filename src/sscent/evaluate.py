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
                     assign_pseudo_labels, class_probabilities)

__all__ = [
    "EvalReport",
    "build_report",
    "evaluate",
    "format_report",
    "pseudo_metrics",
    "weight_histogram",
]


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
    by convention).
    """
    hidden = np.asarray(hidden_labels, dtype=np.int64)
    if len(decisions) != hidden.shape[0]:
        raise ValueError(
            f"{len(decisions)} decisions vs {hidden.shape[0]} labels")
    if not decisions:
        raise ValueError("no decisions to score")
    selected = [d for d in decisions if d.kind is not DecisionKind.REJECTED]
    coverage = len(selected) / len(decisions)
    if not selected:
        return coverage, None
    correct = sum(d.assigned_label == hidden[d.sample_index] for d in selected)
    return coverage, correct / len(selected)


def weight_histogram(decisions, bins: int = 10) -> np.ndarray:
    """Counts of decision weights binned uniformly over [0, 1]."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    weights = [d.weight for d in decisions]
    counts, _ = np.histogram(weights, bins=bins, range=(0.0, 1.0))
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


def build_report(encoder, bank: PrototypeBank, dataset: Dataset,
                 gate: EntropyGate, lambda_reject: float,
                 entropy_gate_enabled: bool, t_prime: float,
                 histogram_bins: int = 10) -> EvalReport:
    """Full report: test accuracy plus gate behavior over the un-augmented
    unlabeled split, scored against its hidden labels."""
    unlabeled = dataset.unlabeled_features()
    if unlabeled.shape[0] == 0:
        raise ValueError("dataset has no unlabeled rows to report on")
    z, _ = encoder.forward(unlabeled)
    probs = class_probabilities(z, bank, t_prime)
    decisions = assign_pseudo_labels(probs, gate, lambda_reject,
                                     entropy_gate_enabled)
    coverage, precision = pseudo_metrics(decisions, dataset.unlabeled_true_labels())
    kinds = [d.kind for d in decisions]
    accuracy = evaluate(encoder, bank, dataset.test_features(),
                        dataset.test_labels(), t_prime)
    return EvalReport(
        test_accuracy=accuracy,
        pseudo_coverage=coverage,
        pseudo_precision=precision,
        weight_histogram=weight_histogram(decisions, bins=histogram_bins),
        confident=sum(k is DecisionKind.CONFIDENT for k in kinds),
        entropy_selected=sum(k is DecisionKind.ENTROPY_SELECTED for k in kinds),
        rejected=sum(k is DecisionKind.REJECTED for k in kinds),
    )


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
