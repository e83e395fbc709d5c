"""Vector and set similarity measures.

The Cluster summary type assigns each incoming annotation to the nearest
existing cluster when the cosine similarity to its centroid exceeds the
instance's threshold; representative election picks the member closest to
the centroid.  Jaccard similarity is used by tests and the quality
benchmarks as an independent check.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Set


def dot(left: Mapping[str, float], right: Mapping[str, float]) -> float:
    """Sparse dot product, iterating over the smaller vector."""
    if len(left) > len(right):
        left, right = right, left
    return sum(weight * right.get(token, 0.0) for token, weight in left.items())


def magnitude(vector: Mapping[str, float]) -> float:
    """Euclidean length of a sparse vector."""
    return math.sqrt(sum(weight * weight for weight in vector.values()))


def cosine_similarity(
    left: Mapping[str, float],
    right: Mapping[str, float],
    *,
    left_norm: float | None = None,
    right_norm: float | None = None,
) -> float:
    """Cosine similarity in [0, 1] for non-negative sparse vectors.

    Either vector being empty yields 0.0 — an empty annotation is similar
    to nothing, so it always starts its own cluster.

    ``left_norm`` / ``right_norm`` let a caller that compares one vector
    many times pass its :func:`magnitude` once; the denominator is then
    the same product of the same floats, so the result is unchanged.
    """
    if not left or not right:
        return 0.0
    if left_norm is None:
        left_norm = magnitude(left)
    if right_norm is None:
        right_norm = magnitude(right)
    denominator = left_norm * right_norm
    if denominator == 0.0:
        return 0.0
    return dot(left, right) / denominator


def jaccard_similarity(left: Set[str], right: Set[str]) -> float:
    """Jaccard similarity of two token sets; 1.0 when both are empty."""
    if not left and not right:
        return 1.0
    union = len(left | right)
    if union == 0:
        return 1.0
    return len(left & right) / union
