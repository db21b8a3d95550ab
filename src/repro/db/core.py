"""Mutable similarity database: add/remove/update without a rebuild.

The paper's architecture (Section 4.3) is static: extract features for
the whole collection, build an X-tree over the extended centroids, and
serve filter/refine queries.  :class:`SimilarityDatabase` makes the
same pipeline *mutable* — objects flow through extraction → feature
cache → centroid computation → **incremental** index maintenance
(``insert``/``delete`` on the live tree) → engine invalidation, so the
filter step never serves stale candidates and no O(n log n) rebuild is
ever required:

* **Mutations** (``add``/``add_grid``/``remove``/``update``) take the
  write side of a :class:`repro.concurrency.RWLock`, bump a version
  counter, and maintain the spatial index in place.
* **Queries** (``knn_query``/``range_query``) take the read side, so
  any number of threads can query concurrently while mutations wait;
  each query observes exactly one database version
  (:meth:`read_view` exposes that version for consistency testing).
* **The refinement engine** is version-tagged: the packed
  :class:`~repro.core.queries.FilterRefineEngine` is rebuilt lazily on
  the first query after a mutation, never serving candidates from a
  stale packing.  The spatial index itself is *not* rebuilt — it plugs
  into the engine as the ``centroid_ranker``.
* **Snapshots** (``save``/``load``) persist the object store *and* the
  exact index structure in one CRC-checked, atomically-written archive
  (the format-v2 discipline of :mod:`repro.io.database`), so a
  restarted process answers its first query with zero rebuild work —
  the reloaded tree is node-for-node identical
  (:func:`repro.index.snapshot.structure_digest` equality).
* **Durability** (``durable=True``): the database lives in a directory
  managed by :mod:`repro.wal` — every mutation is appended to a
  CRC32-per-record write-ahead log *before* it is applied (under the
  write lock), ``save()`` becomes a checkpoint that atomically
  publishes a new snapshot generation and rotates the WAL segment, and
  ``load()`` becomes a recovery ladder: newest snapshot + WAL-tail
  replay; on snapshot corruption, the previous generation with a longer
  replay; with no usable snapshot, a full WAL replay from empty; and as
  a last resort a rebuild from a configured
  :class:`~repro.io.database.ObjectDatabase` source.  Every rung emits
  ``repro.obs`` counters (``db.recovery.fallbacks``, ...) so degraded
  recoveries are visible, and :attr:`last_recovery` reports exactly
  which rung served.

Because every access method breaks distance ties canonically by
ascending object id, a k-nn query against the incrementally maintained
index returns *byte-identical* results to a freshly rebuilt index
(:meth:`compact` rebuilds in place for exactly that comparison, and to
re-pack a tree degraded by heavy churn).

Backends: ``"xtree"`` (the paper's choice), ``"rstar"``, ``"scan"``
index the extended centroids and rank candidates for the filter step;
``"mtree"`` indexes the vector sets directly under the minimal matching
distance (the "simplest approach" the paper mentions) and answers
queries without the centroid filter.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.approx import ApproxFilterRefineEngine, HammingIndex, SetSketcher
from repro.concurrency import RWLock
from repro.core.centroid import extended_centroid, norm_weight
from repro.core.min_matching import min_matching_distance
from repro.core.queries import (
    DEFAULT_BLOCK_SIZE,
    FilterRefineEngine,
    QueryMatch,
    QueryStats,
)
from repro.core.vector_set import VectorSet
from repro.exceptions import IndexError_, QueryError, StorageError
from repro.index import MTree, RStarTree, SequentialScan, XTree
from repro.index.snapshot import (
    read_archive,
    reconstruct_index,
    serialize_index,
    structure_digest,
    write_archive,
)
from repro.obs import emit, registry, span
from repro.obs import querylog
from repro.testing.faults import crash_point
from repro.wal import DurableLayout, WriteAheadLog, scan_segment

DB_FORMAT = "repro-similarity-db"
DB_VERSION = 1

BACKENDS = ("xtree", "rstar", "scan", "mtree")

#: Default number of snapshot generations (and their WAL segments) a
#: durable database keeps on disk for the recovery ladder's fallback.
DEFAULT_KEEP_GENERATIONS = 2


@dataclass
class RecoveryReport:
    """What the recovery ladder actually did for one ``load()``.

    ``fallbacks`` counts snapshot generations that failed integrity and
    were skipped; ``degraded`` is True whenever recovery used anything
    but the happy path (newest snapshot + clean tail replay).
    """

    requested_generation: int
    used_generation: int = -1
    fallbacks: int = 0
    replayed_records: int = 0
    torn_segments: list[str] = field(default_factory=list)
    missing_segments: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    source_rebuild: bool = False

    @property
    def degraded(self) -> bool:
        return bool(
            self.fallbacks
            or self.source_rebuild
            or self.torn_segments
            or self.missing_segments
        )


class DatabaseView:
    """A consistent read view: queries against one database version.

    Created by :meth:`SimilarityDatabase.read_view`; the read lock is
    held for the lifetime of the ``with`` block, so :attr:`version` and
    every query result belong to the same database state.
    """

    def __init__(self, db: "SimilarityDatabase"):
        self._db = db
        self.version = db._version
        self.size = len(db._sets)

    def knn_query(
        self,
        query,
        n_neighbors: int,
        *,
        mode: str = "exact",
        shortlist: int | None = None,
    ):
        if mode == "approx":
            return self._db._approx_knn_locked(query, n_neighbors, shortlist)
        return self._db._knn_locked(query, n_neighbors)

    def range_query(self, query, epsilon: float):
        return self._db._range_locked(query, epsilon)


class _ChunkedRanker:
    """Centroid ranker over an array core.

    Callable like any :data:`~repro.core.queries.CentroidRanker`, but
    also exposes :meth:`chunks` — the engine's vectorized filter loop
    consumes whole ``(oids, distances)`` arrays instead of one pair per
    generator step when a ranker provides it.
    """

    def __init__(self, core):
        self._core = core

    def __call__(self, center: np.ndarray):
        return self._core.incremental_nearest(center)

    def chunks(self, center: np.ndarray):
        return self._core.ranking_chunks(center)


class SimilarityDatabase:
    """A mutable collection of vector sets with incremental indexing.

    Parameters
    ----------
    capacity:
        The cardinality bound ``k`` shared by all sets (Definition 8).
    backend:
        ``"xtree"`` (default), ``"rstar"``, ``"scan"`` — centroid filter
        backed by that access method — or ``"mtree"`` for direct metric
        indexing of the sets.
    omega:
        Reference point for extended centroids and matching weights
        (default: origin).
    block_size:
        Refinement block size, forwarded to :class:`FilterRefineEngine`.
    index_capacity:
        Node capacity of the spatial index (default: derived from the
        page size, as in the paper's experiments).
    model / pipeline / cache:
        Feature model (e.g. :class:`VectorSetModel`), normalization
        pipeline and feature cache used by :meth:`add_grid`.  Optional —
        :meth:`add` with pre-extracted sets needs none of them.
    durable / path / fsync / keep_generations / source:
        ``durable=True`` creates a write-ahead-logged database in the
        directory *path* (which must not already hold one — recover an
        existing one with :meth:`load`).  *fsync* is the WAL flush
        policy (``"always"``, ``"none"``, ``"every-N"`` or an int);
        *keep_generations* controls how many snapshot generations stay
        on disk for the recovery ladder; *source* optionally names an
        :class:`~repro.io.database.ObjectDatabase` archive used as the
        ladder's last-resort rebuild input.
    lock_timeout:
        When set, every lock acquisition (both sides) raises
        :class:`~repro.exceptions.LockTimeout` after this many seconds
        instead of blocking forever.
    use_array_core:
        Serve queries from the struct-of-arrays index cores
        (:mod:`repro.index.arraycore`) instead of walking the pointer
        trees (default True).  Results are literally identical; the
        cores are densified lazily from the live tree and invalidated
        by any mutation.  ``False`` forces the pointer hot path (the
        pre-array baseline, kept for benchmarking and differential
        testing).  The ``"mtree"`` backend is the exception: its live
        tree always queries through the pointer walk (the core's
        scalar per-node metric evaluation is *slower* — see
        BENCH_PR7); mtree cores serve only zero-copy dense loads.
    sketch / sketch_params:
        ``sketch=True`` (default) maintains the approximate candidate
        tier of :mod:`repro.approx` alongside the spatial index: every
        object gets a packed binary sketch in an incrementally
        maintained :class:`~repro.approx.hamming.HammingIndex`, and
        ``knn_query(..., mode="approx", shortlist=m)`` answers from an
        exact refine over the Hamming shortlist.  *sketch_params*
        overrides :class:`~repro.approx.sketch.SetSketcher` parameters
        (``width``/``nnz``/``wta``/``seed``/``pool``).
    """

    def __init__(
        self,
        capacity: int,
        *,
        backend: str = "xtree",
        omega: np.ndarray | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        index_capacity: int | None = None,
        model=None,
        pipeline=None,
        cache=None,
        durable: bool = False,
        path: str | Path | None = None,
        fsync="always",
        keep_generations: int = DEFAULT_KEEP_GENERATIONS,
        source: str | Path | None = None,
        lock_timeout: float | None = None,
        use_array_core: bool = True,
        sketch: bool = True,
        sketch_params: dict | None = None,
    ):
        if capacity < 1:
            raise QueryError("capacity must be >= 1")
        if backend not in BACKENDS:
            raise QueryError(f"unknown backend {backend!r}; pick from {BACKENDS}")
        self.capacity = capacity
        self.backend = backend
        self.block_size = block_size
        self.index_capacity = index_capacity
        self.model = model
        self.pipeline = pipeline
        self.cache = cache
        self.dimension: int | None = None
        self._omega_arg = (
            None if omega is None else np.asarray(omega, dtype=float)
        )
        self.omega: np.ndarray | None = self._omega_arg
        self._sets: dict[int, np.ndarray] = {}
        self._centroids: dict[int, np.ndarray] = {}
        self._index = None
        self._version = 0
        self._engine: FilterRefineEngine | None = None
        self._engine_version = -1
        self._lock = RWLock()
        self._engine_lock = threading.Lock()
        self.lock_timeout = lock_timeout
        self.use_array_core = bool(use_array_core)
        self.sketch_enabled = bool(sketch)
        self._sketch_params = dict(sketch_params or {})
        if not self.sketch_enabled and sketch_params:
            raise QueryError("sketch_params is only meaningful with sketch=True")
        self._sketcher: SetSketcher | None = None
        self._hamming: HammingIndex | None = None
        self._snapshot_dense = False
        # -- durability state ---------------------------------------------
        self.durable = bool(durable)
        self.fsync = fsync
        self.keep_generations = int(keep_generations)
        self.source = None if source is None else str(source)
        self._layout: DurableLayout | None = None
        self._wal: WriteAheadLog | None = None
        self._generation = 0
        self._replaying = False
        self.last_recovery: RecoveryReport | None = None
        if self.durable:
            if path is None:
                raise QueryError("durable=True needs a directory path")
            if self.keep_generations < 1:
                raise QueryError("keep_generations must be >= 1")
            layout = DurableLayout(path)
            if layout.exists():
                raise StorageError(
                    f"{layout.root} already holds a durable database; "
                    "recover it with SimilarityDatabase.load()"
                )
            layout.write_config(self._durable_config())
            layout.publish(0)
            self._layout = layout
            self._wal = WriteAheadLog(
                layout.wal_path(0), generation=0, fsync=fsync, fresh=True
            )
        elif path is not None:
            raise QueryError("path is only meaningful with durable=True")

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._sets)

    def __contains__(self, oid: int) -> bool:
        return oid in self._sets

    @property
    def version(self) -> int:
        """Monotone counter, bumped once per successful mutation."""
        return self._version

    @property
    def generation(self) -> int:
        """The published snapshot generation (0 until the first
        checkpoint; always 0 for non-durable databases)."""
        return self._generation

    def object_ids(self) -> list[int]:
        with self._lock.read(timeout=self.lock_timeout):
            return sorted(self._sets)

    def get(self, oid: int) -> np.ndarray:
        with self._lock.read(timeout=self.lock_timeout):
            try:
                return self._sets[oid].copy()
            except KeyError:
                raise QueryError(f"no object with id {oid}") from None

    def index_digest(self) -> str:
        """Structure digest of the live index (see
        :func:`repro.index.snapshot.structure_digest`)."""
        with self._lock.read(timeout=self.lock_timeout):
            if self._index is None:
                return "empty"
            return structure_digest(self._index)

    def sketch_digest(self) -> str:
        """SHA-256 over the sketch tier's ``(oids, codes)`` rows.

        ``"disabled"`` when sketching is off, ``"empty"`` before the
        first add.  The differential harness compares this against a
        from-scratch rebuild to prove incremental maintenance exact.
        """
        with self._lock.read(timeout=self.lock_timeout):
            if not self.sketch_enabled:
                return "disabled"
            if self._hamming is None:
                return "empty"
            return self._hamming.digest()

    def close(self) -> None:
        """Flush and close the WAL segment (durable databases only).

        Safe to call twice; a closed database must not be mutated
        further.
        """
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "SimilarityDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _durable_config(self) -> dict:
        return {
            "capacity": self.capacity,
            "backend": self.backend,
            "omega": None if self._omega_arg is None else self._omega_arg.tolist(),
            "block_size": self.block_size,
            "index_capacity": self.index_capacity,
            "fsync": self.fsync if isinstance(self.fsync, (str, int)) else "always",
            "keep_generations": self.keep_generations,
            "source": self.source,
            "resolution": getattr(self.pipeline, "resolution", None),
            "sketch": self.sketch_enabled,
            "sketch_params": self._sketch_params or None,
        }

    def _as_set(self, vectors) -> np.ndarray:
        arr = np.asarray(
            vectors.vectors if isinstance(vectors, VectorSet) else vectors,
            dtype=float,
        )
        if arr.ndim != 2 or not len(arr):
            raise QueryError(f"expected a non-empty (m, d) array, got {arr.shape}")
        if len(arr) > self.capacity:
            raise QueryError(
                f"set holds {len(arr)} vectors, capacity is {self.capacity}"
            )
        if not np.all(np.isfinite(arr)):
            raise QueryError("vector sets must be finite")
        if self.dimension is not None and arr.shape[1] != self.dimension:
            raise QueryError(
                f"dimension mismatch: database holds {self.dimension}-d "
                f"elements, got {arr.shape[1]}-d"
            )
        return arr.copy()

    def _metric(self):
        """The exact set distance — identical to the engine's default,
        so every backend refines with the same floats."""
        omega = self.omega
        weight = norm_weight(
            None if omega is None or np.allclose(omega, 0.0) else omega
        )
        return lambda a, b: min_matching_distance(a, b, weight=weight)

    def _make_index(self, dimension: int):
        if self.backend == "mtree":
            return MTree(self._metric(), capacity=self.index_capacity or 16)
        if self.backend == "rstar":
            return RStarTree(dimension, capacity=self.index_capacity)
        if self.backend == "scan":
            return SequentialScan(dimension)
        return XTree(dimension, capacity=self.index_capacity)

    def _ensure_dimension(self, arr: np.ndarray) -> None:
        if self.dimension is None:
            self.dimension = int(arr.shape[1])
            if self.omega is None:
                self.omega = np.zeros(self.dimension)
            elif self.omega.shape != (self.dimension,):
                raise QueryError(
                    f"omega has shape {self.omega.shape}, data is "
                    f"{self.dimension}-d"
                )
        if self._index is None:
            self._index = self._make_index(self.dimension)
        else:
            self._ensure_mutable_index()
        self._ensure_sketcher()

    def _ensure_sketcher(self) -> None:
        """Materialize the sketch tier once the dimension is known."""
        if not self.sketch_enabled or self.dimension is None:
            return
        if self._sketcher is None:
            self._sketcher = SetSketcher(self.dimension, **self._sketch_params)
        if self._hamming is None:
            self._hamming = HammingIndex(self._sketcher.words)

    def _ensure_mutable_index(self) -> None:
        """Inflate a zero-copy loaded array core into the pointer tree.

        Mutations need the pointer structures; a database whose index
        came straight off an mmapped dense snapshot materializes them
        here, on the first mutation, never earlier.
        """
        if self._index is not None and hasattr(self._index, "inflate"):
            self._index = self._index.inflate(
                metric=self._metric() if self.backend == "mtree" else None
            )

    def _query_index(self):
        """The object queries rank with: the array core mirroring the
        live tree (densified lazily, invalidated by mutations), the
        zero-copy loaded core itself, or — with ``use_array_core=False``
        — the pointer tree."""
        index = self._index
        if index is None or not self.use_array_core:
            if index is not None and hasattr(index, "inflate"):
                # Pointer path requested but the index was loaded as a
                # zero-copy core: materialize the tree once.
                self._ensure_mutable_index()
                return self._index
            return index
        if hasattr(index, "serialized"):  # already an array core
            return index
        if self.backend == "mtree":
            # The mtree core evaluates the same per-pair metric as the
            # pointer walk, and its chunked ranking is *slower* than the
            # walk (BENCH_PR7: 0.93x).  Serve the live tree
            # directly; cores answer only for zero-copy dense loads,
            # where no pointer tree exists to fall back to.
            return index
        return index.dense_core()

    def _index_insert(self, oid: int, arr: np.ndarray, centroid: np.ndarray) -> None:
        self._ensure_mutable_index()
        if self.backend == "mtree":
            self._index.insert(arr, oid)
        else:
            self._index.insert(centroid, oid)

    def _index_delete(self, oid: int, arr: np.ndarray, centroid: np.ndarray) -> None:
        self._ensure_mutable_index()
        if self.backend == "mtree":
            removed = self._index.delete(arr, oid)
        else:
            removed = self._index.delete(centroid, oid)
        if not removed:
            raise IndexError_(
                f"index lost object {oid}: store and index disagree"
            )

    def _wal_log(self, op: str, *, oid: int | None = None, array=None) -> None:
        """Append one mutation record *before* it is applied.

        No-op for non-durable databases and during recovery replay.
        The record is on stable storage (per the fsync policy) when
        this returns, so the mutation it precedes is recoverable the
        instant the caller's method returns — the acknowledged-write
        contract of ``fsync='always'``.
        """
        if self._wal is None or self._replaying:
            return
        self._wal.append(op, oid=oid, array=array)

    # -- mutations ---------------------------------------------------------

    def add(self, oid: int, vectors) -> None:
        """Add one vector set under external id *oid*."""
        self._add(oid, vectors, op="add")

    def _add(self, oid: int, vectors, *, op: str) -> None:
        oid = int(oid)
        arr = self._as_set(vectors)
        with self._lock.write(timeout=self.lock_timeout):
            if oid in self._sets:
                raise QueryError(f"object id {oid} already present")
            self._ensure_dimension(arr)
            centroid = extended_centroid(arr, self.capacity, self.omega)
            self._wal_log(op, oid=oid, array=arr)
            with span("db.mutate", op=op):
                self._index_insert(oid, arr, centroid)
            self._sets[oid] = arr
            self._centroids[oid] = centroid
            if self._hamming is not None:
                self._hamming.add(oid, self._sketcher.sketch(arr))
            self._bump("add")

    def add_grid(self, oid: int, grid) -> np.ndarray:
        """Voxel-grid ingest: normalize, extract (through the feature
        cache), then :meth:`add`.  Returns the extracted set.

        Durable databases log the *extracted* set (an ``add_grid``
        record), so replay never needs the voxel grid or the feature
        model."""
        if self.model is None:
            raise QueryError("add_grid needs a database with a feature model")
        from repro.pipeline import Pipeline

        pipeline = self.pipeline or Pipeline()
        arr = pipeline.features_for_grid(grid, self.model, cache=self.cache)
        self._add(oid, arr, op="add_grid")
        return arr

    def remove(self, oid: int) -> bool:
        """Remove the object stored under *oid*; False if absent."""
        oid = int(oid)
        with self._lock.write(timeout=self.lock_timeout):
            arr = self._sets.get(oid)
            if arr is None:
                return False
            centroid = self._centroids[oid]
            self._wal_log("remove", oid=oid)
            with span("db.mutate", op="remove"):
                self._index_delete(oid, arr, centroid)
            del self._sets[oid]
            del self._centroids[oid]
            if self._hamming is not None:
                self._hamming.remove(oid)
            self._bump("remove")
            return True

    def update(self, oid: int, vectors) -> None:
        """Replace the set stored under *oid* in one atomic mutation."""
        oid = int(oid)
        arr = self._as_set(vectors)
        with self._lock.write(timeout=self.lock_timeout):
            old = self._sets.get(oid)
            if old is None:
                raise QueryError(f"no object with id {oid}")
            centroid = extended_centroid(arr, self.capacity, self.omega)
            self._wal_log("update", oid=oid, array=arr)
            with span("db.mutate", op="update"):
                self._index_delete(oid, old, self._centroids[oid])
                self._index_insert(oid, arr, centroid)
            self._sets[oid] = arr
            self._centroids[oid] = centroid
            if self._hamming is not None:
                self._hamming.update(oid, self._sketcher.sketch(arr))
            self._bump("update")

    def compact(self) -> None:
        """Rebuild the index from scratch (ascending oid insertion).

        Results are guaranteed unchanged — canonical tie-breaking makes
        query answers independent of the tree's internal structure —
        but a tree degraded by heavy churn gets re-packed, and tests
        use the rebuilt tree as the reference the incrementally
        maintained one must match byte-for-byte.
        """
        with self._lock.write(timeout=self.lock_timeout):
            if self.dimension is None:
                return
            self._wal_log("compact")
            crash_point("mid-compaction")
            self._compact_locked()
            self._bump("compact")

    def _compact_locked(self) -> None:
        with span("db.compact", objects=len(self._sets), force=True):
            index = self._make_index(self.dimension)
            for oid in sorted(self._sets):
                if self.backend == "mtree":
                    index.insert(self._sets[oid], oid)
                else:
                    index.insert(self._centroids[oid], oid)
            self._index = index
            if self._sketcher is not None:
                # Rebuild the sketch tier the same way — the result must
                # be byte-identical to the incrementally maintained one
                # (the differential harness compares digests).
                hamming = HammingIndex(self._sketcher.words)
                for oid in sorted(self._sets):
                    hamming.add(oid, self._sketcher.sketch(self._sets[oid]))
                self._hamming = hamming

    def _bump(self, op: str) -> None:
        self._version += 1
        reg = registry()
        if reg.enabled:
            reg.counter(f"db.mutations.{op}").inc()
            reg.gauge("db.size").set(len(self._sets))

    # -- queries -----------------------------------------------------------

    def _empty_result(self) -> tuple[list[QueryMatch], QueryStats]:
        return [], QueryStats()

    def _ranker(self):
        index = self._query_index()
        if hasattr(index, "ranking_chunks"):
            return _ChunkedRanker(index)

        def ranker(center: np.ndarray):
            return index.incremental_nearest(center)

        return ranker

    def _ensure_engine(self) -> FilterRefineEngine:
        """The version-tagged refinement engine (rebuilt after any
        mutation, so it can never serve stale candidates)."""
        with self._engine_lock:
            if self._engine is None or self._engine_version != self._version:
                oids = sorted(self._sets)
                self._engine = FilterRefineEngine(
                    [self._sets[oid] for oid in oids],
                    capacity=self.capacity,
                    omega=self.omega,
                    block_size=self.block_size,
                    oids=oids,
                )
                self._engine_version = self._version
                registry().counter("db.engine_rebuilds").inc()
            return self._engine

    def _query_context(self, mode: str):
        """Wide-event context for one query: backend, mode, database
        version, and the IO counter baselines that become per-query
        page/byte deltas.  A plain ``nullcontext`` while observability
        is disabled, so the disabled query path stays free."""
        if not registry().enabled:
            return nullcontext()
        return querylog.query_context(
            backend=self.backend,
            mode=mode,
            db_version=self._version,
            io_baseline=querylog.io_baseline(),
        )

    def _mtree_query(self, kind: str, query, arg):
        arr = self._as_set(query)
        index = self._query_index()
        before = index.distance_computations
        with span(f"query.mtree_{kind}") as sp:
            if kind == "knn":
                pairs = index.knn(arr, arg)
            else:
                pairs = index.range_search(arr, arg)
        stats = QueryStats(
            candidates_ranked=len(self._sets),
            exact_computations=index.distance_computations - before,
        )
        stats.pruned = max(0, len(self._sets) - stats.exact_computations)
        # The M-tree bypasses FilterRefineEngine, so it records its own
        # wide event; metric-tree traversal has no separable filter
        # phase — the whole search is exact distance work.
        querylog.record_query(
            f"mtree_{kind}",
            stats.as_dict(),
            len(self._sets),
            seconds=sp.seconds,
            refine_seconds=sp.seconds,
            results=len(pairs),
            **({"k": arg} if kind == "knn" else {"epsilon": arg}),
        )
        return [QueryMatch(oid, float(dist)) for oid, dist in pairs], stats

    def _knn_locked(self, query, n_neighbors: int):
        if not self._sets:
            return self._empty_result()
        with self._query_context("exact"):
            if self.backend == "mtree":
                return self._mtree_query("knn", query, n_neighbors)
            return self._ensure_engine().knn_query(
                query, n_neighbors, centroid_ranker=self._ranker()
            )

    def _range_locked(self, query, epsilon: float):
        if not self._sets:
            return self._empty_result()
        with self._query_context("exact"):
            if self.backend == "mtree":
                return self._mtree_query("range", query, epsilon)
            return self._ensure_engine().range_query(
                query, epsilon, centroid_ranker=self._ranker()
            )

    def _approx_knn_locked(self, query, n_neighbors: int, shortlist: int | None):
        if not self._sets:
            return self._empty_result()
        if self._hamming is None:
            raise QueryError(
                "approx queries need the sketch tier; this database was "
                "built with sketch=False"
            )
        engine = ApproxFilterRefineEngine(
            self._ensure_engine(), self._sketcher, self._hamming
        )
        with self._query_context("approx"):
            return engine.knn_query(
                self._as_set(query), n_neighbors, shortlist=shortlist
            )

    def knn_query(
        self,
        query,
        n_neighbors: int,
        *,
        mode: str = "exact",
        shortlist: int | None = None,
    ):
        """The *n_neighbors* nearest objects by minimal matching
        distance: ``(list[QueryMatch], QueryStats)``.

        ``mode="exact"`` (default) is the paper's filter-refine pipeline.
        ``mode="approx"`` Hamming-ranks the sketch tier and refines only
        the *shortlist* best candidates with the exact distance — the
        returned distances are still exact, but objects outside the
        shortlist are never considered, so recall is traded for
        throughput (with ``shortlist >= len(db)`` results equal exact).
        """
        if mode not in ("exact", "approx"):
            raise QueryError(f"unknown query mode {mode!r}")
        if mode == "exact" and shortlist is not None:
            raise QueryError("shortlist is only meaningful with mode='approx'")
        with self._lock.read(timeout=self.lock_timeout):
            if mode == "approx":
                return self._approx_knn_locked(query, n_neighbors, shortlist)
            return self._knn_locked(query, n_neighbors)

    def range_query(self, query, epsilon: float):
        """All objects within matching distance *epsilon*."""
        with self._lock.read(timeout=self.lock_timeout):
            return self._range_locked(query, epsilon)

    def knn_query_many(
        self,
        queries,
        n_neighbors: int,
        *,
        mode: str = "exact",
        shortlist: int | None = None,
    ):
        """Batch k-nn under one read-lock acquisition.

        Returns ``[(results, stats), ...]`` in query order, identical
        to calling :meth:`knn_query` per query — but the whole batch
        observes a single database version (no writer can interleave).
        """
        if mode not in ("exact", "approx"):
            raise QueryError(f"unknown query mode {mode!r}")
        if mode == "exact" and shortlist is not None:
            raise QueryError("shortlist is only meaningful with mode='approx'")
        with self._lock.read(timeout=self.lock_timeout):
            if mode == "approx":
                return [
                    self._approx_knn_locked(query, n_neighbors, shortlist)
                    for query in queries
                ]
            return [self._knn_locked(query, n_neighbors) for query in queries]

    @contextmanager
    def read_view(self):
        """Hold the read lock across several queries: everything inside
        the ``with`` block sees one frozen database version."""
        with self._lock.read(timeout=self.lock_timeout):
            yield DatabaseView(self)

    # -- snapshots ---------------------------------------------------------

    def _snapshot_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The (meta, arrays) archive form of the current state.

        Caller must hold either lock side.
        """
        oids = sorted(self._sets)
        dimension = self.dimension or 0
        row_counts = [len(self._sets[oid]) for oid in oids]
        offsets = np.zeros(len(oids) + 1, dtype=np.int64)
        np.cumsum(row_counts, out=offsets[1:])
        data = (
            np.concatenate([self._sets[oid] for oid in oids], axis=0)
            if oids
            else np.empty((0, dimension))
        )
        centroids = (
            np.vstack([self._centroids[oid] for oid in oids])
            if oids
            else np.empty((0, dimension))
        )
        arrays = {
            "set_oids": np.asarray(oids, dtype=np.int64),
            "set_row_offsets": offsets,
            "set_data": np.ascontiguousarray(data, dtype=np.float64),
            "centroids": np.ascontiguousarray(centroids, dtype=np.float64),
        }
        index_meta = None
        if self._index is not None:
            index_meta, index_arrays = serialize_index(self._index)
            arrays.update(
                {f"index__{name}": arr for name, arr in index_arrays.items()}
            )
        sketch_meta = None
        if self.sketch_enabled and self._sketcher is not None:
            # The projection matrix travels with the data, content-
            # addressed by its digest, so sketches stay bit-reproducible
            # in every process that loads this snapshot.
            sketch_meta = {
                **self._sketcher.params(),
                "digest": self._sketcher.digest(),
            }
            hamming = self._hamming.serialized()
            arrays["sketch__proj"] = np.ascontiguousarray(
                self._sketcher.projection, dtype=np.float64
            )
            arrays["sketch__oids"] = hamming["oids"]
            arrays["sketch__codes"] = hamming["codes"]
        meta = {
            "format": DB_FORMAT,
            "version": DB_VERSION,
            "capacity": self.capacity,
            "backend": self.backend,
            "dimension": self.dimension,
            "omega": None if self.omega is None else self.omega.tolist(),
            "block_size": self.block_size,
            "index_capacity": self.index_capacity,
            "db_version": self._version,
            "resolution": getattr(self.pipeline, "resolution", None),
            "index_meta": index_meta,
            "sketch_enabled": self.sketch_enabled,
            "sketch_meta": sketch_meta,
        }
        return meta, arrays

    def save(self, path: str | Path | None = None, *, dense: bool | None = None) -> Path:
        """Persist the database.

        Non-durable: write a CRC-checked snapshot archive atomically to
        *path* (required).  Durable: run a :meth:`checkpoint` (*path*,
        if given, must be the database directory; any other path writes
        a plain archive export instead).

        ``dense=True`` writes the flat mmap-able container of
        :mod:`repro.index.dense` instead of an ``.npz`` archive, so
        :meth:`load` maps the node tables and feature store zero-copy.
        Default: whatever format this database was loaded from (``.npz``
        for a fresh database).  Durable checkpoints always use ``.npz``.
        """
        if self.durable and (
            path is None or Path(path).resolve() == self._layout.root.resolve()
        ):
            return self.checkpoint()
        if path is None:
            raise QueryError("save() needs a path for a non-durable database")
        if dense is None:
            dense = self._snapshot_dense
        with span("db.snapshot.save", force=True) as sp, self._lock.read(
            timeout=self.lock_timeout
        ):
            meta, arrays = self._snapshot_state()
            if dense:
                from repro.index.dense import write_dense_archive

                result = write_dense_archive(path, meta, arrays)
            else:
                result = write_archive(path, meta, arrays)
            sp.set(objects=len(self._sets))
        emit("db.snapshot", op="save", objects=len(self._sets), path=str(path))
        return result

    def checkpoint(self) -> Path:
        """Publish a new snapshot generation and rotate the WAL.

        Under the write lock: write ``snapshot-(G+1)`` atomically, seal
        ``wal-G`` with a checkpoint record, open ``wal-(G+1)``, then
        atomically republish ``CURRENT``.  A crash at *any* point in
        that sequence leaves either generation G fully recoverable
        (snapshot + sealed-or-live WAL) or generation G+1 published;
        old generations are retired only after publication succeeds.
        """
        if not self.durable:
            raise QueryError("checkpoint() is only available with durable=True")
        with span("db.checkpoint", force=True) as sp, self._lock.write(
            timeout=self.lock_timeout
        ):
            next_generation = self._generation + 1
            snapshot_path = self._layout.snapshot_path(next_generation)
            meta, arrays = self._snapshot_state()
            write_archive(snapshot_path, meta, arrays)
            self._wal.append("checkpoint", next_generation=next_generation)
            self._wal.sync()
            self._wal.close()
            new_wal = WriteAheadLog(
                self._layout.wal_path(next_generation),
                generation=next_generation,
                fsync=self.fsync,
                fresh=True,
            )
            crash_point("mid-checkpoint-swap")
            self._layout.publish(next_generation)
            self._wal = new_wal
            self._generation = next_generation
            retired = self._layout.retire(
                published=next_generation,
                keep_generations=self.keep_generations,
            )
            registry().counter("db.checkpoints").inc()
            sp.set(objects=len(self._sets), generation=next_generation)
        emit(
            "db.checkpoint",
            generation=next_generation,
            objects=len(self._sets),
            retired=len(retired),
            path=str(snapshot_path),
        )
        return snapshot_path

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        model=None,
        pipeline=None,
        cache=None,
        lock_timeout: float | None = None,
    ) -> "SimilarityDatabase":
        """Reconstruct a database from :meth:`save` output.

        A snapshot *file* loads directly; the index comes back
        node-for-node identical to the saved one — no ``insert`` is
        ever called, so the first query runs against the exact
        structure the previous process built (asserted by the snapshot
        tests through ``structure_digest`` equality).

        A *dense* snapshot file (:meth:`save` with ``dense=True``) loads
        zero-copy: sets, centroids and the index node tables stay mmap
        views over the file, the index is served by an array core with
        no pointer tree materialized at all, and the first mutation
        inflates the tree lazily.

        A durable *directory* runs the recovery ladder (see the module
        docstring); the result's :attr:`last_recovery` reports which
        rung served and how degraded the recovery was.
        """
        path = Path(path)
        if path.is_dir():
            return cls._load_durable(
                path,
                model=model,
                pipeline=pipeline,
                cache=cache,
                lock_timeout=lock_timeout,
            )
        from repro.index.dense import is_dense_archive

        dense = is_dense_archive(path)
        with span("db.snapshot.load", force=True) as sp:
            if dense:
                from repro.index.dense import read_dense_archive

                meta, arrays = read_dense_archive(path, DB_FORMAT)
            else:
                meta, arrays = read_archive(path, DB_FORMAT)
            db = cls._from_archive(
                path,
                meta,
                arrays,
                model=model,
                pipeline=pipeline,
                cache=cache,
                zero_copy=dense,
            )
            db.lock_timeout = lock_timeout
            sp.set(objects=len(db._sets))
        emit("db.snapshot", op="load", objects=len(db._sets), path=str(path))
        return db

    @classmethod
    def _from_archive(
        cls, path, meta, arrays, *, model, pipeline, cache, zero_copy=False
    ) -> "SimilarityDatabase":
        """Build a database from one (meta, arrays) archive payload.

        With ``zero_copy=True`` (dense snapshots) the sets, centroids
        and index arrays are stored as read-only views over the caller's
        buffers — for an mmapped file nothing is copied, and the index
        becomes an array core instead of a reconstructed pointer tree.
        """
        if meta.get("version") != DB_VERSION:
            raise StorageError(
                f"{path}: unsupported database version {meta.get('version')!r}"
            )
        if pipeline is None and meta.get("resolution"):
            from repro.pipeline import Pipeline

            pipeline = Pipeline(resolution=meta["resolution"])
        db = cls(
            meta["capacity"],
            backend=meta["backend"],
            omega=None if meta["omega"] is None else np.asarray(meta["omega"]),
            block_size=meta["block_size"],
            index_capacity=meta["index_capacity"],
            model=model,
            pipeline=pipeline,
            cache=cache,
            sketch=bool(meta.get("sketch_enabled", True)),
        )
        try:
            oids = [int(oid) for oid in arrays["set_oids"]]
            offsets = arrays["set_row_offsets"]
            # Plain-ndarray views over the same buffers: slicing an
            # np.memmap subclass pays __array_finalize__ per slice, and
            # every downstream kernel would inherit the subclass.  The
            # .base chain still pins the mmap, so this stays zero-copy.
            data = arrays["set_data"].view(np.ndarray)
            centroids = arrays["centroids"].view(np.ndarray)
            for pos, oid in enumerate(oids):
                block = data[int(offsets[pos]) : int(offsets[pos + 1])]
                db._sets[oid] = block if zero_copy else block.copy()
                db._centroids[oid] = (
                    centroids[pos] if zero_copy else centroids[pos].copy()
                )
        except (KeyError, IndexError) as exc:
            raise StorageError(f"{path}: truncated snapshot: {exc}") from exc
        db.dimension = meta["dimension"]
        if db.dimension is not None and db.omega is None:
            db.omega = np.zeros(db.dimension)
        if meta["index_meta"] is not None:
            prefix = "index__"
            index_arrays = {
                name[len(prefix) :]: arr
                for name, arr in arrays.items()
                if name.startswith(prefix)
            }
            if zero_copy:
                from repro.index.arraycore import core_from_serialized

                is_mtree = meta["backend"] == "mtree"
                db._index = core_from_serialized(
                    meta["index_meta"],
                    index_arrays,
                    metric=db._metric() if is_mtree else None,
                )
            else:
                db._index = reconstruct_index(
                    meta["index_meta"],
                    index_arrays,
                    metric=db._metric() if meta["backend"] == "mtree" else None,
                )
        db._restore_sketches(meta, arrays, zero_copy=zero_copy)
        db._version = meta["db_version"]
        db._snapshot_dense = bool(zero_copy)
        return db

    def _restore_sketches(self, meta: dict, arrays: dict, *, zero_copy: bool) -> None:
        """Rehydrate the sketch tier from snapshot arrays.

        Snapshots written before the approx tier existed carry no
        ``sketch__*`` arrays; sketching is then rebuilt from the stored
        sets (same seed → same bits, so the rebuilt tier is identical to
        what the writing process *would* have persisted).  Zero-copy
        loads keep the code matrix as a read-only view: every Hamming
        mutation path reallocates, so mmapped buffers are never written.
        """
        if not self.sketch_enabled:
            return
        sketch_meta = meta.get("sketch_meta")
        if sketch_meta is not None and "sketch__codes" in arrays:
            self._sketcher = SetSketcher.from_snapshot(
                sketch_meta, np.ascontiguousarray(arrays["sketch__proj"])
            )
            self._hamming = HammingIndex.from_arrays(
                np.asarray(arrays["sketch__oids"], dtype=np.int64),
                arrays["sketch__codes"].view(np.ndarray),
                copy=not zero_copy,
            )
            stored = set(self._hamming.oids.tolist())
            if stored != set(self._sets):
                raise StorageError(
                    "snapshot sketch tier does not cover the stored objects"
                )
            return
        if self.dimension is None:
            return
        self._ensure_sketcher()
        for oid in sorted(self._sets):
            self._hamming.add(oid, self._sketcher.sketch(self._sets[oid]))

    # -- durable recovery --------------------------------------------------

    @classmethod
    def _bare_durable(
        cls, config: dict, *, model, pipeline, cache, lock_timeout
    ) -> "SimilarityDatabase":
        """An empty database matching a durable config, with no disk
        side effects (the recovery ladder attaches layout/WAL itself)."""
        if pipeline is None and config.get("resolution"):
            from repro.pipeline import Pipeline

            pipeline = Pipeline(resolution=config["resolution"])
        return cls(
            config["capacity"],
            backend=config["backend"],
            omega=None if config["omega"] is None else np.asarray(config["omega"]),
            block_size=config["block_size"],
            index_capacity=config["index_capacity"],
            model=model,
            pipeline=pipeline,
            cache=cache,
            lock_timeout=lock_timeout,
            sketch=bool(config.get("sketch", True)),
            sketch_params=config.get("sketch_params"),
        )

    def _apply_replay(self, record: dict) -> None:
        """Apply one WAL record idempotently (recovery only).

        Idempotency makes chained/partial replays safe: re-adding an
        identical set is a no-op, an ``add`` over a different survivor
        degrades to ``update``, removing an absent oid is a no-op.
        """
        op = record["op"]
        if op == "checkpoint":
            return
        if op == "compact":
            if self.dimension is not None:
                with self._lock.write(timeout=self.lock_timeout):
                    self._compact_locked()
                    self._bump("compact")
            return
        oid = int(record["oid"])
        if op == "remove":
            self.remove(oid)
            return
        arr = record["array"]
        if oid in self._sets:
            if np.array_equal(self._sets[oid], arr):
                return
            self.update(oid, arr)
        elif op == "update":
            self.add(oid, arr)
        else:
            self.add(oid, arr)

    @classmethod
    def _load_durable(
        cls, root: Path, *, model, pipeline, cache, lock_timeout
    ) -> "SimilarityDatabase":
        """The recovery ladder.

        Rung 1: newest published snapshot + its WAL tail.
        Rung 2..: previous generations, each with a longer chained
        replay (``wal-g`` holds exactly the mutations between snapshot
        *g* and snapshot *g+1*).
        Rung 0: an empty database + the full retained WAL chain.
        Last resort: rebuild from the configured ObjectDatabase source.
        """
        layout = DurableLayout(root)
        config = layout.read_config()
        try:
            published = layout.current_generation()
        except StorageError:
            on_disk = layout.generations_on_disk()
            published = max(on_disk) if on_disk else 0
        report = RecoveryReport(requested_generation=published)
        reg = registry()
        with span("db.recover", force=True) as sp:
            db: SimilarityDatabase | None = None
            wal_floor = min(layout.wal_generations_on_disk(), default=0)
            for generation in range(published, -1, -1):
                candidate = cls._bare_durable(
                    config,
                    model=model,
                    pipeline=pipeline,
                    cache=cache,
                    lock_timeout=lock_timeout,
                )
                if generation > 0:
                    snapshot_path = layout.snapshot_path(generation)
                    try:
                        meta, arrays = read_archive(snapshot_path, DB_FORMAT)
                        candidate = cls._from_archive(
                            snapshot_path,
                            meta,
                            arrays,
                            model=model,
                            pipeline=pipeline,
                            cache=cache,
                        )
                        candidate.lock_timeout = lock_timeout
                    except StorageError as exc:
                        report.fallbacks += 1
                        report.failures.append(str(exc))
                        reg.counter("db.recovery.fallbacks").inc()
                        emit(
                            "db.recovery.fallback",
                            generation=generation,
                            error=str(exc),
                        )
                        continue
                elif wal_floor > 0:
                    # The empty-base rung needs the full WAL chain;
                    # segment 0 was retired, so only the source rung
                    # remains.
                    report.failures.append(
                        f"wal floor is generation {wal_floor}: cannot "
                        "replay from empty"
                    )
                    break
                cls._replay_chain(
                    candidate, layout, generation, published, report
                )
                db = candidate
                report.used_generation = generation
                break
            if db is None:
                db = cls._rebuild_from_source(
                    config, layout, published, report,
                    model=model, pipeline=pipeline, cache=cache,
                    lock_timeout=lock_timeout,
                )
            db.durable = True
            db.fsync = config.get("fsync", "always")
            db.keep_generations = int(
                config.get("keep_generations", DEFAULT_KEEP_GENERATIONS)
            )
            db.source = config.get("source")
            db._layout = layout
            db._generation = published
            if db._wal is None:
                # Opening the live segment for append truncates any torn
                # tail left by the crash we are recovering from.
                db._wal = WriteAheadLog(
                    layout.wal_path(published),
                    generation=published,
                    fsync=db.fsync,
                )
            db.last_recovery = report
            if report.degraded:
                reg.counter("db.recovery.degraded").inc()
            reg.counter("db.recovery.replayed_records").inc(
                report.replayed_records
            )
            sp.set(
                objects=len(db._sets),
                generation=report.used_generation,
                fallbacks=report.fallbacks,
            )
        emit(
            "db.recovery",
            path=str(root),
            requested_generation=report.requested_generation,
            used_generation=report.used_generation,
            fallbacks=report.fallbacks,
            replayed_records=report.replayed_records,
            torn_segments=list(report.torn_segments),
            source_rebuild=report.source_rebuild,
            degraded=report.degraded,
        )
        return db

    @classmethod
    def _replay_chain(
        cls, db, layout, start: int, published: int, report: RecoveryReport
    ) -> None:
        """Replay WAL segments ``start..published`` onto *db* in order."""
        db._replaying = True
        try:
            for generation in range(start, published + 1):
                wal_path = layout.wal_path(generation)
                if not wal_path.exists():
                    report.missing_segments.append(wal_path.name)
                    continue
                scan = scan_segment(wal_path)
                if scan.torn:
                    report.torn_segments.append(wal_path.name)
                for record in scan.records:
                    db._apply_replay(record)
                    if record["op"] != "checkpoint":
                        report.replayed_records += 1
        finally:
            db._replaying = False

    @classmethod
    def _rebuild_from_source(
        cls, config, layout, published, report,
        *, model, pipeline, cache, lock_timeout,
    ) -> "SimilarityDatabase":
        """Last rung: every snapshot failed and the WAL chain is
        incomplete — rebuild from the configured ObjectDatabase.

        Acknowledged mutations made after the source ingest are lost
        (this rung exists so the service comes back *at all*); the
        rebuilt state is logged to a fresh live segment so the next
        checkpoint re-establishes a clean generation.
        """
        source = config.get("source")
        if not source:
            failures = "; ".join(report.failures) or "no usable snapshot"
            raise StorageError(
                f"{layout.root}: recovery impossible ({failures}) and no "
                "ObjectDatabase source is configured for a full rebuild"
            )
        source_path = Path(source)
        if not source_path.is_absolute():
            source_path = layout.root / source_path
        from repro.io.database import ObjectDatabase

        odb = ObjectDatabase.load(source_path)
        key = f"vector-set(k={config['capacity']})"
        if not odb.has_features(key):
            raise StorageError(
                f"{source_path}: source database has no {key} features; "
                "cannot rebuild"
            )
        db = cls._bare_durable(
            config, model=model, pipeline=pipeline, cache=cache,
            lock_timeout=lock_timeout,
        )
        # The rebuilt state must itself be durable: start a fresh live
        # segment and log every re-added object into it.
        db._wal = WriteAheadLog(
            layout.wal_path(published),
            generation=published,
            fsync=config.get("fsync", "always"),
            fresh=True,
        )
        for oid, vectors in enumerate(odb.get_features(key)):
            db.add(oid, vectors)
        report.source_rebuild = True
        report.used_generation = -1
        report.replayed_records += len(db)
        registry().counter("db.recovery.source_rebuilds").inc()
        emit(
            "db.recovery.source_rebuild",
            source=str(source_path),
            objects=len(db),
        )
        return db
