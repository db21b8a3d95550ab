"""Minimum Euclidean distance under permutation (Definitions 3 and 4).

The one-vector cover sequence model concatenates ``k`` 6-d cover vectors
in a fixed order; Definition 4 removes the order dependence by minimizing
the Euclidean distance over all ``k!`` block permutations.  Two
implementations are provided:

* :func:`permutation_distance_bruteforce` — literally enumerates the
  ``k!`` permutations (exponential; usable for small ``k`` and as the
  oracle in tests),
* :func:`permutation_distance_via_matching` — the paper's O(k^3)
  reduction (Section 4.2): run the minimal matching distance with the
  *squared* Euclidean element distance and the *squared* norm as weight
  function, then take the square root.

Both accept either padded ``6k`` vectors or ``(m, d)`` vector sets; sets
are padded with zero rows (dummy covers) to the common capacity first.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.core.min_matching import min_matching_distance
from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError


def _to_rows(obj: np.ndarray | VectorSet, d: int | None, k: int | None) -> np.ndarray:
    """Normalize input into an ``(m, d)`` row array."""
    if isinstance(obj, VectorSet):
        return np.asarray(obj.vectors)
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 2:
        return arr
    if arr.ndim == 1:
        if d is None:
            raise DistanceError("flat vectors need the block dimension d")
        if len(arr) % d != 0:
            raise DistanceError(f"flat vector of length {len(arr)} is not divisible by d={d}")
        return arr.reshape(-1, d)
    raise DistanceError(f"expected flat vector or (m, d) rows, got shape {arr.shape}")


def _pad(rows: np.ndarray, k: int) -> np.ndarray:
    if len(rows) > k:
        raise DistanceError(f"{len(rows)} blocks exceed capacity k={k}")
    padded = np.zeros((k, rows.shape[1]))
    padded[: len(rows)] = rows
    return padded


def permutation_distance_bruteforce(
    x: np.ndarray | VectorSet,
    y: np.ndarray | VectorSet,
    d: int = 6,
    k: int | None = None,
) -> float:
    """Definition 4 by exhaustive enumeration of all ``k!`` permutations.

    Runtime grows with the factorial of ``k`` — the very cost the paper's
    matching reduction avoids; kept for validation and for the
    crossover ablation benchmark.
    """
    rows_x = _to_rows(x, d, k)
    rows_y = _to_rows(y, d, k)
    if rows_x.shape[1] != rows_y.shape[1]:
        raise DistanceError("block dimension mismatch")
    capacity = k or max(len(rows_x), len(rows_y))
    rows_x = _pad(rows_x, capacity)
    rows_y = _pad(rows_y, capacity)
    best = np.inf
    for order in permutations(range(capacity)):
        value = float(np.linalg.norm(rows_x - rows_y[list(order)]))
        if value < best:
            best = value
    return best


def permutation_distance_via_matching(
    x: np.ndarray | VectorSet,
    y: np.ndarray | VectorSet,
    d: int = 6,
    k: int | None = None,
) -> float:
    """Definition 4 in O(k^3) via the minimal matching distance.

    Using the squared Euclidean distance between elements and the squared
    Euclidean norm as weight function, the minimal matching distance
    equals the *squared* minimum Euclidean distance under permutation
    (Section 4.2); the square root restores the metric.
    """
    rows_x = _to_rows(x, d, k)
    rows_y = _to_rows(y, d, k)
    if rows_x.shape[1] != rows_y.shape[1]:
        raise DistanceError("block dimension mismatch")
    squared = min_matching_distance(
        rows_x,
        rows_y,
        dist="sqeuclidean",
        weight=lambda arr: np.sum(arr * arr, axis=1),
    )
    return float(np.sqrt(squared))
