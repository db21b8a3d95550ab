"""Filter-and-refine query processing on vector set data (Section 4.3).

The engine stores one extended centroid per database object.  Queries
first rank/filter on the centroids — whose Euclidean distance, scaled by
``k``, lower-bounds the minimal matching distance (Lemma 2) — and only
refine surviving candidates with the exact O(k^3) matching distance:

* ε-range queries prune every object whose centroid is farther than
  ``ε / k`` from the query centroid (the paper's filter step),
* k-nn queries use the optimal multi-step algorithm of Seidl & Kriegel:
  candidates are consumed in ascending lower-bound order and the search
  stops as soon as the next lower bound exceeds the current k-th exact
  distance, which provably refines the minimum number of candidates.

Refinement goes through the batched kernel of :mod:`repro.core.batch`
whenever the engine uses the default minimal matching distance: the
database is packed once into an omega-padded ``(n, k, d)`` tensor at
construction, and candidates are refined in blocks of *block_size* so
the cost-tensor assembly amortizes across the block.  k-nn queries stay
*optimal multi-step up to one block*: the stop condition is evaluated
against the radius as of the last completed block, which is
conservative (it can only stop where the sequential algorithm would
have stopped), and any candidates refined past the
sequential stopping point are counted in
:attr:`QueryStats.extra_refinements` — at most ``block_size - 1`` of
them, and exactly zero for ``block_size=1``.  Results are provably
identical to the strictly sequential order: an overshoot candidate's
exact distance is bounded below by its lower bound, which already
exceeded the pruning radius, so it can never displace a heap entry.

With a custom ``exact_distance`` the engine falls back to per-pair
refinement (the batch formulation is exact only for the Euclidean /
omega-norm-weight configuration of the paper).

The centroid ranking itself can be delegated to a spatial index (the
paper uses an X-tree, see :mod:`repro.index.xtree`) through the
``centroid_ranker`` hook; the default is an in-memory scan, which keeps
this module free of index dependencies.  A ranker that additionally
exposes ``.chunks(center)`` — yielding ``(oids, dists)`` array pairs in
the same ascending order — is consumed through a vectorized fast path
(the array-native index cores of :mod:`repro.index.arraycore` do);
results and stats are identical to the per-item protocol.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.batch import DEFAULT_CHUNK_SIZE, PackedSets
from repro.core.centroid import extended_centroid
from repro.core.vector_set import VectorSet
from repro.exceptions import QueryError
from repro.obs import registry, span
from repro.obs import querylog

#: A ranker yields (object id, centroid distance) in ascending centroid
#: distance; spatial indexes plug in here.
CentroidRanker = Callable[[np.ndarray], Iterator[tuple[int, float]]]
ExactDistance = Callable[[np.ndarray, np.ndarray], float]

#: Candidates refined per batched kernel call in blocked k-nn; see
#: FilterRefineEngine(block_size=...).
DEFAULT_BLOCK_SIZE = 16


@dataclass
class QueryStats:
    """Work accounting for one similarity query.

    Attributes
    ----------
    candidates_ranked:
        Candidates produced by the filter step (centroid comparisons).
    exact_computations:
        Minimal-matching distances actually evaluated (the expensive
        O(k^3) refinements).
    pruned:
        Objects never refined thanks to the lower bound.
    extra_refinements:
        Refinements performed at or past the point where the strictly
        sequential optimal multi-step algorithm would have stopped —
        the price of blocked refinement (bounded by ``block_size - 1``).
    """

    candidates_ranked: int = 0
    exact_computations: int = 0
    pruned: int = 0
    extra_refinements: int = 0

    def as_dict(self) -> dict[str, int]:
        """Flat numeric mapping (the shared stats protocol with
        :class:`repro.index.pages.IOCost`): feeds the metrics registry
        via ``registry().count_many(prefix, stats.as_dict())``."""
        return {
            "candidates_ranked": self.candidates_ranked,
            "exact_computations": self.exact_computations,
            "pruned": self.pruned,
            "extra_refinements": self.extra_refinements,
        }

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate another query's accounting in place."""
        self.candidates_ranked += other.candidates_ranked
        self.exact_computations += other.exact_computations
        self.pruned += other.pruned
        self.extra_refinements += other.extra_refinements
        return self

    def __str__(self) -> str:
        total = self.exact_computations + self.pruned
        return (
            f"ranked {self.candidates_ranked}, refined "
            f"{self.exact_computations}/{total} ({self.pruned} pruned, "
            f"{self.extra_refinements} overshoot)"
        )


@dataclass(frozen=True)
class QueryMatch:
    """One result of a similarity query."""

    object_id: int
    distance: float


class FilterRefineEngine:
    """Answer ε-range and k-nn queries over a collection of vector sets.

    Parameters
    ----------
    sets:
        The database: a sequence of ``(m_i, d)`` arrays or
        :class:`VectorSet` objects.
    capacity:
        The cardinality bound ``k`` shared by all sets.
    omega:
        Reference point of the extended centroids (default: origin).
    exact_distance:
        Exact set distance to refine with; defaults to the minimal
        matching distance with Euclidean element distance and the weight
        function ``w(x) = ||x - omega||`` — i.e. the *same* omega as the
        centroids, which is exactly the precondition of Lemma 2.  If you
        substitute another distance you must ensure the centroid bound
        still lower-bounds it; refinement then runs per pair instead of
        through the batched kernel.
    block_size:
        Candidates refined per batched kernel call in k-nn queries.
        Larger blocks amortize better but may refine up to
        ``block_size - 1`` candidates beyond the sequential optimum.
    oids:
        External object ids, one per set (default: positions
        ``0..n-1``).  Rankers yield these ids and results carry them, so
        a mutable database with sparse ids after deletions can plug its
        spatial index in as *centroid_ranker* without renumbering.  Ties
        in k-nn results resolve canonically by ascending oid, matching
        the index layer's convention.
    """

    def __init__(
        self,
        sets: Sequence[np.ndarray | VectorSet],
        capacity: int,
        omega: np.ndarray | None = None,
        exact_distance: ExactDistance | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        oids: Sequence[int] | None = None,
    ):
        if capacity < 1:
            raise QueryError("capacity must be >= 1")
        if not len(sets):
            raise QueryError("database must not be empty")
        if block_size < 1:
            raise QueryError("block_size must be >= 1")
        self.capacity = capacity
        self.block_size = block_size
        self._sets = [
            np.asarray(s.vectors if isinstance(s, VectorSet) else s, dtype=float)
            for s in sets
        ]
        self.dimension = self._sets[0].shape[1]
        for i, arr in enumerate(self._sets):
            if arr.ndim != 2 or arr.shape[1] != self.dimension:
                raise QueryError(f"set {i} has incompatible shape {arr.shape}")
            if len(arr) > capacity:
                raise QueryError(f"set {i} exceeds capacity {capacity}")
        if oids is None:
            self.oids = list(range(len(self._sets)))
        else:
            self.oids = [int(oid) for oid in oids]
            if len(self.oids) != len(self._sets):
                raise QueryError(
                    f"{len(self.oids)} oids for {len(self._sets)} sets"
                )
            if len(set(self.oids)) != len(self.oids):
                raise QueryError("object ids must be unique")
        self._position = {oid: pos for pos, oid in enumerate(self.oids)}
        self._oid_arr = np.asarray(self.oids, dtype=np.int64)
        self._oids_sorted = bool(
            len(self._oid_arr) < 2 or np.all(self._oid_arr[:-1] < self._oid_arr[1:])
        )
        self.omega = (
            np.zeros(self.dimension) if omega is None else np.asarray(omega, dtype=float)
        )
        self.centroids = np.vstack(
            [extended_centroid(arr, capacity, self.omega) for arr in self._sets]
        )
        # The omega-padded batch formulation realizes exactly the default
        # distance (Euclidean elements, w(x) = ||x - omega||); any custom
        # exact_distance falls back to the per-pair loop.
        self._batch_refine = exact_distance is None
        if self._batch_refine:
            from repro.core.centroid import norm_weight
            from repro.core.min_matching import min_matching_distance

            self._packed = PackedSets.pack(
                self._sets, capacity=capacity, omega=self.omega
            )
            weight = norm_weight(None if np.allclose(self.omega, 0.0) else self.omega)
            exact_distance = lambda a, b: min_matching_distance(  # noqa: E731
                a, b, weight=weight
            )
        else:
            self._packed = None
        self._exact = exact_distance

    # -- filter step -------------------------------------------------------

    def _scan_ranking(self, query_centroid: np.ndarray) -> Iterator[tuple[int, float]]:
        """Default centroid ranker: full scan, sorted ascending."""
        dists = np.linalg.norm(self.centroids - query_centroid, axis=1)
        for idx in np.argsort(dists, kind="stable"):
            yield self.oids[int(idx)], float(dists[idx])

    def _scan_chunks(self, query_centroid: np.ndarray):
        """Chunked form of the default ranker: a single ``(oids, dists)``
        chunk in exactly the order :meth:`_scan_ranking` yields."""
        dists = np.linalg.norm(self.centroids - query_centroid, axis=1)
        order = np.argsort(dists, kind="stable")
        yield self._oid_arr[order], dists[order]

    def _chunk_source(self, centroid_ranker: CentroidRanker | None):
        """The ``.chunks`` callable to use for this query, or None when
        the ranker only speaks the per-item protocol."""
        if centroid_ranker is None:
            return self._scan_chunks
        return getattr(centroid_ranker, "chunks", None)

    def _require_position(self, oid: int) -> int:
        try:
            return self._position[oid]
        except KeyError:
            raise QueryError(f"ranker yielded unknown object id {oid}") from None

    def _positions_for(self, oids: np.ndarray) -> list[int]:
        """Vectorized oid → internal-position lookup for chunked rankers."""
        arr = np.asarray(oids)
        if not len(arr):
            return []
        if self._oids_sorted:
            pos = np.searchsorted(self._oid_arr, arr)
            clipped = np.minimum(pos, len(self._oid_arr) - 1)
            bad = (pos >= len(self._oid_arr)) | (self._oid_arr[clipped] != arr)
            if bad.any():
                oid = int(arr[int(np.argmax(bad))])
                raise QueryError(f"ranker yielded unknown object id {oid}")
            return pos.tolist()
        return [self._require_position(int(o)) for o in arr]

    def _query_centroid(self, query: np.ndarray | VectorSet) -> np.ndarray:
        arr = np.asarray(
            query.vectors if isinstance(query, VectorSet) else query, dtype=float
        )
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise QueryError(f"query set has incompatible shape {arr.shape}")
        return extended_centroid(arr, self.capacity, self.omega)

    # -- refinement --------------------------------------------------------

    def _query_array(self, query: np.ndarray | VectorSet) -> np.ndarray:
        return np.asarray(
            query.vectors if isinstance(query, VectorSet) else query, dtype=float
        )

    def _prepare_query(self, query_arr: np.ndarray):
        """Pad the query once per query (reused across all its blocks)."""
        if self._batch_refine:
            return self._packed.pad_query(query_arr)
        return None

    def _refine_many(
        self, prepared, query_arr: np.ndarray, ids: Sequence[int]
    ) -> np.ndarray:
        """Exact distances from the query to the given database objects."""
        if self._batch_refine:
            # Looked up per call, so a wrapper installed on
            # repro.core.batch.match_many (the benchmark's tracer) sees it.
            from repro.core.batch import match_many

            return match_many(
                prepared, self._packed, indices=np.asarray(ids, dtype=np.intp)
            )
        return np.array([self._exact(query_arr, self._sets[oid]) for oid in ids])

    # -- telemetry ---------------------------------------------------------

    def _record_query(
        self,
        kind: str,
        stats: QueryStats,
        *,
        seconds: float = 0.0,
        refine_seconds: float = 0.0,
        blocks: int = 0,
        **extra,
    ) -> None:
        """Per-query telemetry: registry counters + one wide event.

        Delegates to :func:`repro.obs.querylog.record_query`, which
        always accounts the counters and — subject to sampling / the
        slow-query threshold — emits one ``query`` record carrying
        exactly the fields of ``stats.as_dict()`` (so trace consumers
        see the same numbers the caller gets back) plus phase timings
        and whatever context the database layer contributed.
        """
        querylog.record_query(
            kind,
            stats.as_dict(),
            len(self._sets),
            seconds=seconds,
            refine_seconds=refine_seconds,
            blocks=blocks,
            **extra,
        )

    # -- queries -----------------------------------------------------------

    def range_query(
        self,
        query: np.ndarray | VectorSet,
        epsilon: float,
        centroid_ranker: CentroidRanker | None = None,
    ) -> tuple[list[QueryMatch], QueryStats]:
        """All objects within minimal matching distance *epsilon*.

        Only candidates whose centroid lies within ``epsilon / k`` of the
        query centroid are refined (Lemma 2); the surviving prefix of the
        ranking is refined through the batched kernel in one pass.
        """
        if epsilon < 0:
            raise QueryError("epsilon must be non-negative")
        stats = QueryStats()
        refine_seconds = 0.0
        blocks = 0
        with span("query.range", epsilon=epsilon) as sp:
            query_arr = self._query_array(query)
            center = self._query_centroid(query)
            cutoff = epsilon / self.capacity
            candidates: list[int] = []  # internal positions
            chunk_source = self._chunk_source(centroid_ranker)
            if chunk_source is not None:
                for chunk_oids, chunk_dists in chunk_source(center):
                    dists_arr = np.asarray(chunk_dists, dtype=float)
                    over = dists_arr > cutoff
                    if over.any():
                        # Ranking is ascending: the first candidate past the
                        # cutoff is counted (it is the one the per-item loop
                        # pulls and breaks on) and everything after is pruned.
                        first = int(np.argmax(over))
                        stats.candidates_ranked += first + 1
                        candidates.extend(self._positions_for(chunk_oids[:first]))
                        break
                    stats.candidates_ranked += len(dists_arr)
                    candidates.extend(self._positions_for(chunk_oids))
            else:
                ranking = centroid_ranker(center)
                for object_id, centroid_dist in ranking:
                    stats.candidates_ranked += 1
                    if centroid_dist > cutoff:
                        break  # ascending ranking: everything after is pruned
                    candidates.append(self._require_position(object_id))
            prepared = self._prepare_query(query_arr)
            results: list[QueryMatch] = []
            for start in range(0, len(candidates), DEFAULT_CHUNK_SIZE):
                chunk = candidates[start : start + DEFAULT_CHUNK_SIZE]
                stats.exact_computations += len(chunk)
                registry().histogram("query.block_candidates").observe(len(chunk))
                with span("query.refine", candidates=len(chunk)) as rsp:
                    exacts = self._refine_many(prepared, query_arr, chunk)
                refine_seconds += rsp.seconds
                blocks += 1
                for pos, exact in zip(chunk, exacts):
                    if exact <= epsilon:
                        results.append(QueryMatch(self.oids[pos], float(exact)))
            stats.pruned = len(self._sets) - stats.exact_computations
            results.sort(key=lambda match: (match.distance, match.object_id))
            sp.set(results=len(results))
        self._record_query(
            "range",
            stats,
            seconds=sp.seconds,
            refine_seconds=refine_seconds,
            blocks=blocks,
            epsilon=epsilon,
            results=len(results),
        )
        return results, stats

    def knn_query(
        self,
        query: np.ndarray | VectorSet,
        n_neighbors: int,
        centroid_ranker: CentroidRanker | None = None,
    ) -> tuple[list[QueryMatch], QueryStats]:
        """The *n_neighbors* nearest objects by minimal matching distance.

        Optimal multi-step k-nn (Seidl & Kriegel 1998), blocked:
        candidates are consumed in ascending lower-bound order and
        refined *block_size* at a time through the batched kernel.  The
        stop condition uses the pruning radius as of the last completed
        block — conservative, so the result set is identical to the
        strictly sequential algorithm — and the walk over each refined
        block replays the sequential stop decision to count
        :attr:`QueryStats.extra_refinements` exactly.

        The search stops only when the next lower bound *strictly*
        exceeds the current k-th exact distance: candidates whose bound
        ties the radius are still refined, so ties at the k-th distance
        resolve canonically by ascending object id (a candidate with a
        strictly greater bound can never tie, since its exact distance
        is at least the bound).  Results are therefore independent of
        the candidate order the ranker produces.
        """
        if n_neighbors < 1:
            raise QueryError("n_neighbors must be >= 1")
        stats = QueryStats()
        refine_seconds = 0.0
        blocks = 0
        with span("query.knn", k=n_neighbors) as sp:
            query_arr = self._query_array(query)
            center = self._query_centroid(query)
            prepared = self._prepare_query(query_arr)
            # Max-heap over (distance, oid) via negation: heap[0] is the
            # current k-th candidate, the first to be displaced.
            heap: list[tuple[float, int]] = []
            pending: list[tuple[int, float]] = []  # (position, lower bound)
            stop = False

            def flush() -> None:
                """Refine the pending block and replay the sequential walk."""
                nonlocal stop, refine_seconds, blocks
                if not pending:
                    return
                ids = [pos for pos, _ in pending]
                stats.exact_computations += len(ids)
                registry().histogram("query.block_candidates").observe(len(ids))
                with span("query.refine", candidates=len(ids)) as rsp:
                    exacts = self._refine_many(prepared, query_arr, ids)
                refine_seconds += rsp.seconds
                blocks += 1
                for (pos, lower_bound), exact in zip(pending, exacts):
                    # The sequential algorithm would have stopped here; this
                    # and every later refinement of the block is overshoot.
                    # (Provably harmless: exact >= lower_bound > radius, so
                    # none of them can displace a heap entry.)
                    if stop or (
                        len(heap) == n_neighbors and lower_bound > -heap[0][0]
                    ):
                        stop = True
                        stats.extra_refinements += 1
                        continue
                    exact = float(exact)
                    oid = self.oids[pos]
                    if len(heap) < n_neighbors:
                        heapq.heappush(heap, (-exact, -oid))
                    elif (exact, oid) < (-heap[0][0], -heap[0][1]):
                        heapq.heapreplace(heap, (-exact, -oid))
                pending.clear()

            chunk_source = self._chunk_source(centroid_ranker)
            if chunk_source is not None:
                # Vectorized consumption.  Between flushes the heap (and so
                # the pruning radius) is frozen, and a flush can only occur
                # once ``pending`` fills, so candidates are examined in
                # windows of at most ``block_size - len(pending)`` against a
                # constant radius — exactly the per-item decisions, batched.
                done = False
                for chunk_oids, chunk_dists in chunk_source(center):
                    bounds = self.capacity * np.asarray(chunk_dists, dtype=float)
                    i = 0
                    while i < len(bounds):
                        window = bounds[i : i + self.block_size - len(pending)]
                        take = len(window)
                        if len(heap) == n_neighbors:
                            over = window > -heap[0][0]
                            if over.any():
                                take = int(np.argmax(over))
                                # The stopping candidate is pulled (counted)
                                # but never refined, like the per-item break.
                                stats.candidates_ranked += take + 1
                                done = True
                        if not done:
                            stats.candidates_ranked += take
                        for t in range(take):
                            pending.append(
                                (
                                    self._require_position(int(chunk_oids[i + t])),
                                    float(window[t]),
                                )
                            )
                        if done:
                            break
                        i += take
                        if len(pending) >= self.block_size:
                            flush()
                            if stop:
                                done = True
                                break
                    if done:
                        break
            else:
                for object_id, centroid_dist in centroid_ranker(center):
                    stats.candidates_ranked += 1
                    lower_bound = self.capacity * centroid_dist
                    # Radius is stale while a block is pending (it can only
                    # have shrunk since), so firing here means the sequential
                    # algorithm stopped at or before this candidate.
                    if len(heap) == n_neighbors and lower_bound > -heap[0][0]:
                        break
                    pending.append((self._require_position(object_id), lower_bound))
                    if len(pending) >= self.block_size:
                        flush()
                        if stop:
                            break
            flush()
            stats.pruned = len(self._sets) - stats.exact_computations
            results = [QueryMatch(-neg_oid, -neg_dist) for neg_dist, neg_oid in heap]
            results.sort(key=lambda match: (match.distance, match.object_id))
            sp.set(results=len(results))
        self._record_query(
            "knn",
            stats,
            seconds=sp.seconds,
            refine_seconds=refine_seconds,
            blocks=blocks,
            k=n_neighbors,
        )
        return results, stats

    def knn_sequential(
        self, query: np.ndarray | VectorSet, n_neighbors: int
    ) -> tuple[list[QueryMatch], QueryStats]:
        """Baseline without the filter: exact distance to every object
        (the "Vect. Set seq. scan" row of Table 2), evaluated through
        the batched kernel in database order."""
        if n_neighbors < 1:
            raise QueryError("n_neighbors must be >= 1")
        with span("query.scan", k=n_neighbors) as sp:
            query_arr = self._query_array(query)
            prepared = self._prepare_query(query_arr)
            n = len(self._sets)
            stats = QueryStats(candidates_ranked=n, exact_computations=n)
            all_ids = list(range(n))
            exacts = np.concatenate(
                [
                    np.atleast_1d(
                        self._refine_many(
                            prepared,
                            query_arr,
                            all_ids[start : start + DEFAULT_CHUNK_SIZE],
                        )
                    )
                    for start in range(0, n, DEFAULT_CHUNK_SIZE)
                ]
            )
            ext = np.asarray(self.oids)
            order = np.lexsort((ext, exacts))[:n_neighbors]
            results = [QueryMatch(int(ext[idx]), float(exacts[idx])) for idx in order]
        # No filter step: the whole scan is refinement.
        self._record_query(
            "scan",
            stats,
            seconds=sp.seconds,
            refine_seconds=sp.seconds,
            blocks=-(-n // DEFAULT_CHUNK_SIZE),
            k=n_neighbors,
        )
        return results, stats

    def knn_refine_subset(
        self,
        query: np.ndarray | VectorSet,
        n_neighbors: int,
        oids: Sequence[int] | np.ndarray,
    ) -> tuple[list[QueryMatch], QueryStats]:
        """Exact k-nn restricted to an explicit candidate subset.

        Refines *every* listed object through the batched kernel (no
        lower-bound pruning — the caller already did its own filtering,
        e.g. the Hamming shortlist of :mod:`repro.approx`) and returns
        the *n_neighbors* closest in the canonical ``(distance, oid)``
        order.  Unknown oids raise :class:`QueryError`; oids must be
        unique (the result carries one entry per listed object).
        """
        if n_neighbors < 1:
            raise QueryError("n_neighbors must be >= 1")
        query_arr = self._query_array(query)
        if query_arr.ndim != 2 or query_arr.shape[1] != self.dimension:
            raise QueryError(f"query set has incompatible shape {query_arr.shape}")
        positions = self._positions_for(np.asarray(oids, dtype=np.int64))
        stats = QueryStats(
            candidates_ranked=len(positions),
            exact_computations=len(positions),
            pruned=len(self._sets) - len(positions),
        )
        if not positions:
            self._record_query("knn_subset", stats, k=n_neighbors)
            return [], stats
        with span("query.knn_subset", k=n_neighbors, candidates=len(positions)) as sp:
            prepared = self._prepare_query(query_arr)
            exacts = np.concatenate(
                [
                    np.atleast_1d(
                        self._refine_many(
                            prepared,
                            query_arr,
                            positions[start : start + DEFAULT_CHUNK_SIZE],
                        )
                    )
                    for start in range(0, len(positions), DEFAULT_CHUNK_SIZE)
                ]
            )
            ext = self._oid_arr[np.asarray(positions, dtype=np.intp)]
            order = np.lexsort((ext, exacts))[:n_neighbors]
            results = [QueryMatch(int(ext[idx]), float(exacts[idx])) for idx in order]
        # The caller already filtered; the whole subset pass is refinement.
        self._record_query(
            "knn_subset",
            stats,
            seconds=sp.seconds,
            refine_seconds=sp.seconds,
            blocks=-(-len(positions) // DEFAULT_CHUNK_SIZE),
            k=n_neighbors,
        )
        return results, stats
