"""OPTICS: Ordering Points To Identify the Clustering Structure.

Re-implementation of Ankerst, Breunig, Kriegel & Sander (SIGMOD 1999) as
used by the paper's evaluation.  The algorithm produces a linear
ordering of the database in which density-based clusters of *any*
density appear as valleys of the *reachability distance*:

* ``core_distance(p)``: distance to the ``min_pts``-th neighbor of ``p``
  (undefined/infinite if ``p`` has fewer than ``min_pts`` neighbors
  within the generating distance ``eps``),
* ``reachability(o | p) = max(core_distance(p), dist(p, o))``.

Distances are obtained through a caller-supplied *row function* so that
feature-vector models can compute a whole distance row vectorized while
vector-set models evaluate the minimal matching distance per pair — and
so that experiment drivers can wrap the row function to collect
statistics (Table 1 counts the permutations that occur during exactly
such a run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ReproError
from repro.obs import counter, emit, span

#: Returns all distances from object *i* to the whole database.
DistanceRows = Callable[[int], np.ndarray]


@dataclass
class ClusterOrdering:
    """The output of OPTICS: a cluster ordering with annotations.

    Attributes
    ----------
    order:
        Permutation of object indices in visit order.
    reachability:
        ``reachability[j]`` is the reachability distance of the object
        at position ``j`` of the ordering (``inf`` for the first object
        of every new component).
    core_distances:
        ``core_distances[j]``: core distance of the object at position
        ``j`` (``inf`` for non-core objects).
    """

    order: np.ndarray
    reachability: np.ndarray
    core_distances: np.ndarray

    def __len__(self) -> int:
        return len(self.order)

    def reachability_of(self, object_index: int) -> float:
        """Reachability value of a specific object (by database index)."""
        position = int(np.nonzero(self.order == object_index)[0][0])
        return float(self.reachability[position])


def distance_rows_from_matrix(matrix: np.ndarray) -> DistanceRows:
    """Adapt a precomputed symmetric distance matrix to the row API."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ReproError(f"distance matrix must be square, got {arr.shape}")
    return lambda i: arr[i]


def distance_rows_from_function(
    objects: Sequence,
    distance: Callable[[object, object], float],
    max_cache_rows: int = 0,
) -> DistanceRows:
    """Adapt a pairwise distance function to the row API.

    With *max_cache_rows* > 0, up to that many most-recently-used rows
    are kept in memory — useful when a caller (or a wrapped statistics
    collector) revisits rows, without ever materializing the full
    O(n^2) matrix.  OPTICS itself requests each row exactly once, so the
    cache defaults to off.
    """

    def compute(i: int) -> np.ndarray:
        anchor = objects[i]
        return np.array([distance(anchor, other) for other in objects])

    if max_cache_rows <= 0:
        return compute

    from collections import OrderedDict

    cache: OrderedDict[int, np.ndarray] = OrderedDict()

    def rows(i: int) -> np.ndarray:
        if i in cache:
            cache.move_to_end(i)
            counter("optics.row_cache_hits").inc()
            return cache[i]
        counter("optics.row_cache_misses").inc()
        row = compute(i)
        cache[i] = row
        if len(cache) > max_cache_rows:
            cache.popitem(last=False)
        return row

    return rows


def distance_rows_from_sets(
    sets: Sequence,
    capacity: int | None = None,
    omega: np.ndarray | None = None,
    n_jobs: int | None = None,
) -> DistanceRows:
    """Row API over vector sets via the batched minimal-matching kernel.

    Computes the full symmetric matrix once through
    :func:`repro.core.batch.pairwise_matrix` (chunked batches, symmetric
    halving, optional process fan-out via *n_jobs*) and serves rows from
    it — for vector-set OPTICS runs this replaces n per-pair Python
    loops with a handful of vectorized kernel calls.
    """
    from repro.core.batch import pairwise_matrix

    with span("cluster.pairwise_matrix", n=len(sets), jobs=n_jobs):
        matrix = pairwise_matrix(sets, capacity=capacity, omega=omega, n_jobs=n_jobs)
    return distance_rows_from_matrix(matrix)


def optics(
    n_objects: int,
    distance_rows: DistanceRows,
    min_pts: int = 5,
    eps: float = np.inf,
) -> ClusterOrdering:
    """Compute the OPTICS cluster ordering.

    Parameters
    ----------
    n_objects:
        Database size.
    distance_rows:
        ``distance_rows(i)`` must return the distances from object ``i``
        to every object (including itself).  It is called exactly once
        per object, when the object is processed.
    min_pts:
        Core-point threshold; the paper's evaluation methodology
        ([20], DASFAA 2003) uses small values around 5.
    eps:
        Generating distance; ``inf`` (default) reproduces the full
        hierarchical structure.
    """
    if n_objects < 1:
        raise ReproError("need at least one object")
    if min_pts < 1:
        raise ReproError("min_pts must be >= 1")
    if eps < 0:
        raise ReproError("eps must be non-negative")

    processed = np.zeros(n_objects, dtype=bool)
    reachability = np.full(n_objects, np.inf)  # per object, by database index
    core_distance = np.full(n_objects, np.inf)
    order: list[int] = []
    order_reach: list[float] = []
    order_core: list[float] = []

    def process(index: int) -> None:
        """Mark *index* processed and update seeds from its neighborhood."""
        processed[index] = True
        order.append(index)
        order_reach.append(reachability[index])
        dists = np.asarray(distance_rows(index), dtype=float)
        if dists.shape != (n_objects,):
            raise ReproError("distance_rows returned a row of wrong length")
        within = dists <= eps
        n_neighbors = int(within.sum())  # includes the object itself
        if n_neighbors >= min_pts:
            core = float(np.partition(dists, min_pts - 1)[min_pts - 1])
            core_distance[index] = core
            new_reach = np.maximum(core, dists)
            update = within & ~processed & (new_reach < reachability)
            reachability[update] = new_reach[update]
        order_core.append(core_distance[index])

    # Progress events fire roughly every 10% of the expansion (always at
    # the end), so long cluster runs are visible in the trace.
    progress_step = max(1, n_objects // 10)
    with span("cluster.optics", n=n_objects, min_pts=min_pts):
        while len(order) < n_objects:
            pending = ~processed
            candidates = np.nonzero(pending)[0]
            finite = reachability[candidates] < np.inf
            if finite.any():
                # Expand the seed with the smallest reachability...
                best = candidates[np.argmin(reachability[candidates])]
            else:
                # ...or start a fresh component at the lowest unprocessed index.
                best = candidates[0]
            process(int(best))
            counter("optics.processed").inc()
            done = len(order)
            if done % progress_step == 0 or done == n_objects:
                emit("optics_progress", processed=done, total=n_objects)

    return ClusterOrdering(
        order=np.asarray(order),
        reachability=np.asarray(order_reach),
        core_distances=np.asarray(order_core),
    )
