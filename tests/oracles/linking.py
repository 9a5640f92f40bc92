"""Pairwise linking quality by listing every pair of records.

``evaluate_linking_by_pairs`` is :func:`repro.construction.linking.evaluate_linking`
as it was before it counted pairs per group: it walks all O(n²) pairs of the
records both maps name and collects the true and predicted pairs as sets.
``tests/test_linking_evaluation_oracle.py`` asserts that both return the same
three numbers.
"""

from __future__ import annotations

from repro.construction.linking import LinkingResult


def evaluate_linking_by_pairs(
    result: LinkingResult, truth_map: dict[str, str]
) -> dict[str, float]:
    """Precision, recall and F1 over the listed true and predicted pairs."""
    ids = sorted(set(truth_map) & set(result.assignments))
    true_pairs = set()
    predicted_pairs = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            if truth_map[a] == truth_map[b]:
                true_pairs.add((a, b))
            if result.assignments[a] == result.assignments[b]:
                predicted_pairs.add((a, b))
    if not predicted_pairs and not true_pairs:
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    true_positive = len(true_pairs & predicted_pairs)
    precision = true_positive / len(predicted_pairs) if predicted_pairs else 0.0
    recall = true_positive / len(true_pairs) if true_pairs else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}
