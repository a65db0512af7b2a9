"""Cluster separation of a representation: the silhouette score.

It quantifies what a representation carries (do the speaker condition
vectors of one voice cluster apart from other voices?) without training
anything.
"""

from __future__ import annotations

import numpy as np


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over all points (euclidean).

    s(i) = (b - a) / max(a, b) with a = mean distance to own cluster,
    b = smallest mean distance to another cluster. Needs >= 2 clusters;
    singleton clusters score 0 by convention.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    d = np.sqrt(np.maximum(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1), 0.0))
    scores = np.zeros(points.shape[0])
    for i in range(points.shape[0]):
        own = labels == labels[i]
        n_own = own.sum()
        if n_own <= 1:
            continue  # singleton: 0
        a = d[i][own].sum() / (n_own - 1)
        b = min(d[i][labels == c].mean() for c in uniq if c != labels[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())
