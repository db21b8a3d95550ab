"""Sharded similarity database: scatter-gather over K independent cores.

Horizontal scale-out for :class:`repro.db.core.SimilarityDatabase`.
Objects are partitioned across K *shards* — each a complete
``SimilarityDatabase`` with its own RWLock, spatial index, sketch tier,
and (when durable) WAL + snapshot generations — by a stable hash of the
object id (:func:`shard_of`).  Mutations route to exactly one shard;
queries scatter to every shard and merge the per-shard answers.

The merge is not approximate.  Every access method in this codebase
breaks distance ties canonically by ascending object id, so the global
k-nn of the union is exactly the (distance, oid)-merge of the per-shard
k-nns, truncated to k — a sharded database returns *byte-identical*
results to a single-shard build holding the same objects (the
differential machine in ``tests/test_sharded_differential.py`` holds
this equality through arbitrary mutation/reshard sequences, for all
four backends, exact and approx modes).

Approximate mode needs one extra step for that equality: the Hamming
shortlist of a single-shard build is the global top-``budget`` by
(hamming, oid), which is *not* the union of per-shard top-``budget``
shortlists restricted per shard.  The sharded path therefore merges the
per-shard ``(hamming, oid)`` rankings into the exact global shortlist
first, then hands each shard only the candidates it owns for the exact
subset refine.  Merged ``QueryStats`` equal the single-shard build's
field for field.

Observability: every scatter leg runs under a ``shard=i`` querylog
context frame (the shard's own wide events — ``knn``, ``mtree_knn``,
``knn_subset`` — carry it), and the sharded layer records one merged
wide event per query (``sharded_knn`` / ``sharded_range`` /
``sharded_approx_knn``) whose stats are the per-shard merge and whose
phase arithmetic keeps the PR 9 invariant: total == filter + refine,
with the scatter across shards as the filter phase and the merge as the
refine phase.

Consistency: a scatter-gather query pins *all* shard read locks (in
ascending shard order) for its duration, so every answer is exact with
respect to one consistent version vector — the tuple of per-shard
version counters (:meth:`ShardedSimilarityDatabase.version_vector`).
A ``LockTimeout`` on any shard releases the already-pinned shards and
propagates (counted under ``db.sharded.lock_timeouts``).

Persistence: ``save()`` writes a directory — a ``sharded.json``
manifest plus one snapshot archive per shard — fanning the per-shard
archive writes out over the shared process pool
(:func:`repro.parallel.pool_map`); ``load()`` reads them back the same
way.  ``durable=True`` gives every shard its own WAL-managed directory
under one root; ``checkpoint()`` walks the shards in order (the
``between-shard-checkpoints`` crash point sits in each gap — the crash
harness proves recovery restores a consistent version vector from any
interleaving of shard generations).
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path

import numpy as np

from repro.approx.engine import default_shortlist
from repro.core.queries import QueryMatch, QueryStats
from repro.db.core import DEFAULT_KEEP_GENERATIONS, SimilarityDatabase
from repro.exceptions import LockTimeout, QueryError, StorageError
from repro.obs import emit, querylog, registry, span
from repro.parallel import pool_map, resolve_n_jobs
from repro.testing.faults import crash_point

__all__ = [
    "SHARDED_FORMAT",
    "SHARDED_VERSION",
    "MANIFEST_NAME",
    "ShardedSimilarityDatabase",
    "open_database",
    "shard_of",
]

SHARDED_FORMAT = "repro-sharded-db"
SHARDED_VERSION = 1
MANIFEST_NAME = "sharded.json"


def shard_of(oid: int, shards: int) -> int:
    """The shard owning *oid*: CRC32 of the little-endian int64 id.

    Process- and platform-stable (unlike ``hash()``), uniform enough
    for dense and sparse id spaces, and independent of insertion order
    — the routing half of the byte-identity contract.
    """
    if shards < 1:
        raise QueryError("shards must be >= 1")
    return zlib.crc32(struct.pack("<q", int(oid))) % shards


def _shard_archive_name(position: int) -> str:
    return f"shard-{position:05d}.npz"


def _shard_dir_name(position: int) -> str:
    return f"shard-{position:05d}"


def _sort_key(match: QueryMatch):
    return (match.distance, match.object_id)


# -- process-pool tasks (module level so they pickle) ----------------------

_WORKER_DBS: dict[tuple, SimilarityDatabase] = {}


def _write_shard_task(payload):
    path, meta, arrays, dense = payload
    if dense:
        from repro.index.dense import write_dense_archive

        return str(write_dense_archive(path, meta, arrays))
    from repro.index.snapshot import write_archive

    return str(write_archive(path, meta, arrays))


def _read_shard_task(path):
    from repro.db.core import DB_FORMAT
    from repro.index.dense import is_dense_archive

    if is_dense_archive(path):
        from repro.index.dense import read_dense_archive

        return read_dense_archive(path, DB_FORMAT)
    from repro.index.snapshot import read_archive

    return read_archive(path, DB_FORMAT)


def _worker_db(path: str) -> SimilarityDatabase:
    """Per-worker shard cache: pool workers persist across batches, so
    each worker pays the snapshot load once per (path, mtime)."""
    key = (path, os.stat(path).st_mtime_ns)
    db = _WORKER_DBS.get(key)
    if db is None:
        db = SimilarityDatabase.load(path)
        _WORKER_DBS[key] = db
    return db


def _shard_knn_task(task):
    """One shard's leg of a parallel batch: answer every query against
    the shard snapshot at *path*, reporting worker-side service time."""
    path, queries, k = task
    db = _worker_db(path)
    pairs, stats = [], []
    start = time.perf_counter()
    with db.read_view() as view:
        for query in queries:
            results, st = view.knn_query(query, k)
            pairs.append([(int(m.object_id), float(m.distance)) for m in results])
            stats.append(st.as_dict())
    return pairs, stats, time.perf_counter() - start


class ShardedSimilarityDatabase:
    """K independent :class:`SimilarityDatabase` shards behind one API.

    Parameters mirror ``SimilarityDatabase`` (every ``**shard_kwargs``
    entry — ``omega``, ``block_size``, ``index_capacity``,
    ``use_array_core``, ``sketch``, ``sketch_params`` — is forwarded to
    each shard verbatim), plus:

    shards:
        Number of partitions K (>= 1).
    durable / path / fsync / keep_generations:
        ``durable=True`` creates a sharded WAL-managed layout under the
        directory *path*: a ``sharded.json`` manifest and one durable
        shard directory per partition.  Recover an existing layout with
        :meth:`load`.
    model / pipeline / cache:
        Feature extraction state lives at this layer — :meth:`add_grid`
        extracts once, then routes the feature set; shards never see
        voxel grids.
    """

    def __init__(
        self,
        capacity: int,
        *,
        shards: int = 4,
        backend: str = "xtree",
        durable: bool = False,
        path: str | Path | None = None,
        model=None,
        pipeline=None,
        cache=None,
        lock_timeout: float | None = None,
        fsync="always",
        keep_generations: int = DEFAULT_KEEP_GENERATIONS,
        **shard_kwargs,
    ):
        if shards < 1:
            raise QueryError("shards must be >= 1")
        self.capacity = capacity
        self.backend = backend
        self.n_shards = int(shards)
        self.model = model
        self.pipeline = pipeline
        self.cache = cache
        self.lock_timeout = lock_timeout
        self.durable = bool(durable)
        self.fsync = fsync
        self.keep_generations = int(keep_generations)
        self._shard_kwargs = dict(shard_kwargs)
        self._root: Path | None = None
        self._shard_paths: list[Path] | None = None
        self._saved_versions: list[int] | None = None
        self.last_recovery = None
        self.last_parallel_legs: list[float] | None = None
        if self.durable:
            if path is None:
                raise QueryError("durable=True needs a directory path")
            root = Path(path)
            if (root / MANIFEST_NAME).exists():
                raise StorageError(
                    f"{root} already holds a sharded database; recover it "
                    "with ShardedSimilarityDatabase.load()"
                )
            root.mkdir(parents=True, exist_ok=True)
            self._root = root
            self._write_manifest(root)
            self.shards = [
                SimilarityDatabase(
                    capacity,
                    backend=backend,
                    durable=True,
                    path=root / _shard_dir_name(i),
                    fsync=fsync,
                    keep_generations=keep_generations,
                    lock_timeout=lock_timeout,
                    **shard_kwargs,
                )
                for i in range(self.n_shards)
            ]
        else:
            if path is not None:
                raise QueryError("path is only meaningful with durable=True")
            self.shards = [
                SimilarityDatabase(
                    capacity,
                    backend=backend,
                    lock_timeout=lock_timeout,
                    **shard_kwargs,
                )
                for i in range(self.n_shards)
            ]

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, oid: int) -> bool:
        return oid in self._shard_for(oid)

    @property
    def version(self) -> int:
        """Total mutation count — the sum of the version vector."""
        return sum(shard.version for shard in self.shards)

    def version_vector(self) -> tuple[int, ...]:
        """Per-shard version counters; a scatter-gather query is exact
        with respect to exactly one value of this tuple.  Resharding
        replaces the vector (fresh shards start at their add counts)."""
        return tuple(shard.version for shard in self.shards)

    @property
    def dimension(self) -> int | None:
        for shard in self.shards:
            if shard.dimension is not None:
                return shard.dimension
        return None

    def object_ids(self) -> list[int]:
        out: list[int] = []
        for shard in self.shards:
            out.extend(shard.object_ids())
        return sorted(out)

    def get(self, oid: int) -> np.ndarray:
        return self._shard_for(oid).get(oid)

    def index_digests(self) -> list[str]:
        return [shard.index_digest() for shard in self.shards]

    def sketch_digests(self) -> list[str]:
        return [shard.sketch_digest() for shard in self.shards]

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedSimilarityDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- routing and mutations ---------------------------------------------

    def _shard_for(self, oid: int) -> SimilarityDatabase:
        return self.shards[shard_of(oid, self.n_shards)]

    def add(self, oid: int, vectors) -> None:
        self._shard_for(oid).add(oid, vectors)

    def add_grid(self, oid: int, grid) -> np.ndarray:
        if self.model is None:
            raise QueryError("add_grid needs a database with a feature model")
        from repro.pipeline import Pipeline

        pipeline = self.pipeline or Pipeline()
        arr = pipeline.features_for_grid(grid, self.model, cache=self.cache)
        self._shard_for(oid).add(oid, arr)
        return arr

    def remove(self, oid: int) -> bool:
        return self._shard_for(oid).remove(oid)

    def update(self, oid: int, vectors) -> None:
        self._shard_for(oid).update(oid, vectors)

    def compact(self, *, shards: int | None = None) -> None:
        """Rebuild every shard index; ``shards=K'`` rebalances first.

        Compaction is the natural rebalance point: the indexes are
        being rebuilt anyway, so redistributing to a new shard count
        costs one extra pass over the objects.
        """
        if shards is not None and int(shards) != self.n_shards:
            self.reshard(int(shards))
        for shard in self.shards:
            shard.compact()

    def reshard(self, new_shards: int) -> None:
        """Redistribute every object across *new_shards* fresh shards.

        Takes every current shard's write lock (ascending order) for a
        consistent cut, builds K' fresh shards by ascending-oid
        insertion — each new shard is literally a fresh build — and
        swaps the shard list atomically.  Pinned readers keep querying
        the old shards they hold; new queries see the new layout.
        Durable layouts cannot reshard in place (the manifest pins K).
        """
        new_shards = int(new_shards)
        if new_shards < 1:
            raise QueryError("shards must be >= 1")
        if self.durable:
            raise QueryError(
                "reshard() is not available on a durable sharded database; "
                "load into a non-durable one, reshard, and re-init"
            )
        if new_shards == self.n_shards:
            return
        with ExitStack() as stack:
            for shard in self.shards:
                stack.enter_context(shard._lock.write(timeout=self.lock_timeout))
            items: dict[int, np.ndarray] = {}
            for shard in self.shards:
                items.update(shard._sets)
            fresh = [
                SimilarityDatabase(
                    self.capacity,
                    backend=self.backend,
                    lock_timeout=self.lock_timeout,
                    **self._shard_kwargs,
                )
                for _ in range(new_shards)
            ]
            for oid in sorted(items):
                fresh[shard_of(oid, new_shards)].add(oid, items[oid])
            self.shards = fresh
            self.n_shards = new_shards
            self._shard_paths = None
            self._saved_versions = None
        if registry().enabled:
            registry().counter("db.sharded.reshards").inc()
        emit("db.reshard", shards=new_shards, objects=len(items))

    # -- scatter-gather queries ---------------------------------------------

    @contextmanager
    def read_views(self):
        """All shard read locks, ascending order: one consistent cut.

        The sharded counterpart of
        :meth:`~repro.db.core.SimilarityDatabase.read_view`: yields the
        list of per-shard :class:`~repro.db.core.DatabaseView` objects,
        whose versions form the consistent vector every query inside
        the ``with`` block is exact against.

        Ascending acquisition order is the lock-ordering discipline —
        every multi-shard locker (queries, save, reshard) walks shards
        the same way, so two of them can never deadlock.  A timeout on
        any shard releases the already-pinned prefix and propagates.
        """
        try:
            with ExitStack() as stack:
                yield [stack.enter_context(s.read_view()) for s in self.shards]
        except LockTimeout:
            if registry().enabled:
                registry().counter("db.sharded.lock_timeouts").inc()
            raise

    def _shard_ctx(self, position: int):
        if not registry().enabled:
            return nullcontext()
        return querylog.query_context(shard=position)

    def _outer_ctx(self, mode: str, views):
        if not registry().enabled:
            return nullcontext()
        return querylog.query_context(
            backend=self.backend,
            mode=mode,
            db_version=sum(view.version for view in views),
            shards=self.n_shards,
            io_baseline=querylog.io_baseline(),
        )

    @staticmethod
    def _merge_matches(per_shard, limit: int | None = None):
        merged = sorted(
            (m for results, _ in per_shard for m in results), key=_sort_key
        )
        return merged if limit is None else merged[:limit]

    @staticmethod
    def _merge_stats(per_shard) -> QueryStats:
        out = QueryStats()
        for _, stats in per_shard:
            out.merge(stats)
        return out

    def _record(self, kind, stats, total, *, filter_seconds, refine_seconds, **extra):
        """One merged wide event with the PR 9 phase invariant intact:
        total == filter + refine, where filter is the scatter across
        shards and refine is the gather/merge."""
        if not registry().enabled:
            return
        with querylog.query_context(filter_seconds=filter_seconds):
            querylog.record_query(
                kind,
                stats.as_dict(),
                total,
                seconds=refine_seconds,
                refine_seconds=refine_seconds,
                **extra,
            )

    def knn_query(
        self,
        query,
        n_neighbors: int,
        *,
        mode: str = "exact",
        shortlist: int | None = None,
    ):
        """Scatter-gather k-nn, byte-identical to a single-shard build.

        Exact mode merges the per-shard k-nns on (distance, oid) and
        truncates — every member of the global top-k is in its owning
        shard's top-k, so the merge loses nothing.  Approx mode first
        reconstructs the *global* Hamming shortlist (see module notes),
        then scatters the subset refine.
        """
        if mode not in ("exact", "approx"):
            raise QueryError(f"unknown query mode {mode!r}")
        if mode == "exact" and shortlist is not None:
            raise QueryError("shortlist is only meaningful with mode='approx'")
        with self.read_views() as views:
            return self._scatter_knn(views, query, n_neighbors, mode, shortlist)

    def range_query(self, query, epsilon: float):
        """All objects within *epsilon*: the sorted union of per-shard
        range answers (each already in canonical order)."""
        with self.read_views() as views:
            total = sum(view.size for view in views)
            if total == 0:
                return [], QueryStats()
            with self._outer_ctx("exact", views):
                with span(
                    "query.sharded_scatter", force=True, shards=self.n_shards
                ) as scatter_sp:
                    per_shard = []
                    for i, view in enumerate(views):
                        with self._shard_ctx(i):
                            per_shard.append(view.range_query(query, epsilon))
                with span("query.sharded_merge", force=True) as merge_sp:
                    results = self._merge_matches(per_shard)
                    stats = self._merge_stats(per_shard)
                self._record(
                    "sharded_range",
                    stats,
                    total,
                    filter_seconds=scatter_sp.seconds,
                    refine_seconds=merge_sp.seconds,
                    epsilon=epsilon,
                    results=len(results),
                )
        return results, stats

    def _scatter_knn(self, views, query, n_neighbors, mode, shortlist, batch=None):
        total = sum(view.size for view in views)
        if total == 0:
            return [], QueryStats()
        with self._outer_ctx(mode, views):
            if mode == "approx":
                return self._scatter_approx(
                    views, query, n_neighbors, shortlist, batch
                )
            with span(
                "query.sharded_scatter", force=True, shards=self.n_shards
            ) as scatter_sp:
                per_shard = []
                for i, view in enumerate(views):
                    with self._shard_ctx(i):
                        per_shard.append(view.knn_query(query, n_neighbors))
            with span("query.sharded_merge", force=True) as merge_sp:
                results = self._merge_matches(per_shard, n_neighbors)
                stats = self._merge_stats(per_shard)
            extra = {"k": n_neighbors, "results": len(results)}
            if batch is not None:
                extra["batch"] = batch
            self._record(
                "sharded_knn",
                stats,
                total,
                filter_seconds=scatter_sp.seconds,
                refine_seconds=merge_sp.seconds,
                **extra,
            )
        return results, stats

    def _scatter_approx(self, views, query, n_neighbors, shortlist, batch=None):
        """Approx scatter-gather over the *global* Hamming shortlist.

        Phase one (the filter, timed as such): sketch the query once —
        every shard's sketcher carries the identical seeded projection,
        content-addressed by digest — rank each shard's codes, and merge
        the per-shard (hamming, oid) rankings into the exact shortlist a
        single-shard build would produce.  Phase two: each shard refines
        only the candidates it owns; the (distance, oid) merge of those
        partial top-ks is the single-shard answer, and the merged stats
        are its stats (Σ owned == budget, Σ (n_i - owned_i) == n -
        budget).
        """
        if n_neighbors < 1:
            raise QueryError("n_neighbors must be >= 1")
        budget = (
            default_shortlist(n_neighbors) if shortlist is None else int(shortlist)
        )
        if budget < 1:
            raise QueryError("shortlist budget must be >= 1")
        budget = max(budget, n_neighbors)
        total = sum(view.size for view in views)
        active = [i for i, view in enumerate(views) if view.size]
        for i in active:
            if self.shards[i]._hamming is None:
                raise QueryError(
                    "approx queries need the sketch tier; this database "
                    "was built with sketch=False"
                )
        with span("query.sharded_shortlist", force=True, budget=budget) as ssp:
            first = self.shards[active[0]]
            arr = first._as_set(query)
            code = first._sketcher.sketch(arr)
            hams, oids, owners = [], [], []
            for i in active:
                hamming = self.shards[i]._hamming
                hams.append(hamming.distances(code[None, :])[0])
                oids.append(hamming.oids)
                owners.append(np.full(len(hamming), i, dtype=np.int64))
            ham = np.concatenate(hams)
            oid = np.concatenate(oids)
            owner = np.concatenate(owners)
            order = np.lexsort((oid, ham))[: min(budget, len(oid))]
            chosen_oids = oid[order]
            chosen_owner = owner[order]
        with span("query.sharded_refine", force=True) as rsp:
            per_shard = []
            skipped = 0
            for i in active:
                owned = chosen_oids[chosen_owner == i]
                if not len(owned):
                    # No shortlist member lives here: the whole shard is
                    # pruned, exactly as a single-shard build would have
                    # pruned those objects.
                    skipped += views[i].size
                    continue
                with self._shard_ctx(i):
                    per_shard.append(
                        self.shards[i]._ensure_engine().knn_refine_subset(
                            arr, n_neighbors, owned
                        )
                    )
            results = self._merge_matches(per_shard, n_neighbors)
            stats = self._merge_stats(per_shard)
            stats.pruned += skipped
        extra = {
            "k": n_neighbors,
            "results": len(results),
            "budget": budget,
            "shortlist_size": len(chosen_oids),
        }
        if batch is not None:
            extra["batch"] = batch
        self._record(
            "sharded_approx_knn",
            stats,
            total,
            filter_seconds=ssp.seconds,
            refine_seconds=rsp.seconds,
            **extra,
        )
        return results, stats

    # -- batch queries -------------------------------------------------------

    def knn_query_many(
        self,
        queries,
        n_neighbors: int,
        *,
        mode: str = "exact",
        shortlist: int | None = None,
        n_jobs: int | None = None,
    ):
        """Batch k-nn under one pinned version vector.

        Results equal ``[knn_query(q, k) for q in queries]`` with no
        writer interleaving.  ``n_jobs >= 2`` fans the batch out one
        worker process per shard over the last saved snapshot (exact
        mode only; the snapshot must not be stale) — the path the
        ``shard_scale`` bench drives.
        """
        if mode not in ("exact", "approx"):
            raise QueryError(f"unknown query mode {mode!r}")
        if mode == "exact" and shortlist is not None:
            raise QueryError("shortlist is only meaningful with mode='approx'")
        queries = list(queries)
        jobs = resolve_n_jobs(n_jobs)
        if jobs >= 2 and self.n_shards >= 2 and len(queries):
            return self._parallel_knn_many(queries, n_neighbors, mode, jobs)
        with self.read_views() as views:
            return [
                self._scatter_knn(
                    views, q, n_neighbors, mode, shortlist, batch=len(queries)
                )
                for q in queries
            ]

    def _parallel_knn_many(self, queries, n_neighbors, mode, jobs):
        if mode != "exact":
            raise QueryError(
                "parallel batch queries support mode='exact' only; "
                "approx scatter-gather runs in-process"
            )
        if self._shard_paths is None or self._saved_versions is None:
            raise QueryError(
                "parallel batch queries serve the saved sharded snapshot; "
                "call save() (or load a saved layout) first"
            )
        if list(self.version_vector()) != list(self._saved_versions):
            raise QueryError(
                "sharded snapshot is stale (mutations since the last "
                "save()); save() again before parallel batch queries"
            )
        arrs = [self.shards[0]._as_set(q) for q in queries]
        tasks = [
            (str(path), arrs, n_neighbors) for path in self._shard_paths
        ]
        with span(
            "query.sharded_scatter",
            force=True,
            shards=self.n_shards,
            jobs=jobs,
        ) as scatter_sp:
            legs = pool_map(_shard_knn_task, tasks, min(jobs, len(tasks)))
        self.last_parallel_legs = [seconds for _, _, seconds in legs]
        with span("query.sharded_merge", force=True) as merge_sp:
            out = []
            for qi in range(len(queries)):
                matches = sorted(
                    (
                        QueryMatch(oid, dist)
                        for pairs, _, _ in legs
                        for oid, dist in pairs[qi]
                    ),
                    key=_sort_key,
                )[:n_neighbors]
                stats = QueryStats()
                for _, stat_dicts, _ in legs:
                    stats.merge(QueryStats(**stat_dicts[qi]))
                out.append((matches, stats))
        if registry().enabled:
            share = 1.0 / len(queries)
            total = len(self)
            with querylog.query_context(
                backend=self.backend,
                mode="exact",
                db_version=sum(self._saved_versions),
                shards=self.n_shards,
            ):
                for matches, stats in out:
                    self._record(
                        "sharded_knn",
                        stats,
                        total,
                        filter_seconds=scatter_sp.seconds * share,
                        refine_seconds=merge_sp.seconds * share,
                        k=n_neighbors,
                        results=len(matches),
                        batch=len(queries),
                        jobs=jobs,
                    )
        return out

    # -- persistence ---------------------------------------------------------

    def _write_manifest(self, root: Path) -> None:
        payload = {
            "format": SHARDED_FORMAT,
            "version": SHARDED_VERSION,
            "shards": self.n_shards,
            "routing": "crc32-mod",
            "durable": self.durable,
            "capacity": self.capacity,
            "backend": self.backend,
        }
        tmp = root / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, root / MANIFEST_NAME)

    def save(
        self,
        path: str | Path | None = None,
        *,
        dense: bool = False,
        n_jobs: int | None = None,
    ) -> Path:
        """Persist the sharded database to a directory.

        Non-durable: one atomically-written snapshot archive per shard
        plus the ``sharded.json`` manifest, the per-shard writes fanned
        out over the process pool when ``n_jobs >= 2``.  Durable:
        ``save()`` with no path (or the layout root) runs
        :meth:`checkpoint`.
        """
        if self.durable and (
            path is None or Path(path).resolve() == self._root.resolve()
        ):
            return self.checkpoint()
        if path is None:
            raise QueryError(
                "save() needs a directory for a non-durable sharded database"
            )
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        jobs = resolve_n_jobs(n_jobs)
        with span(
            "db.sharded.save", force=True, shards=self.n_shards
        ) as sp, ExitStack() as stack:
            for shard in self.shards:
                stack.enter_context(shard._lock.read(timeout=self.lock_timeout))
            payloads, shard_paths = [], []
            for i, shard in enumerate(self.shards):
                meta, arrays = shard._snapshot_state()
                shard_path = root / _shard_archive_name(i)
                payloads.append((str(shard_path), meta, arrays, bool(dense)))
                shard_paths.append(shard_path)
            if jobs >= 2 and len(payloads) >= 2:
                pool_map(_write_shard_task, payloads, min(jobs, len(payloads)))
            else:
                for payload in payloads:
                    _write_shard_task(payload)
            versions = [shard.version for shard in self.shards]
            objects = sum(len(shard._sets) for shard in self.shards)
            self._write_manifest(root)
            # A layout saved with more shards before a reshard would
            # otherwise leave orphan archives past the manifest's K.
            for stale in root.glob("shard-*.npz"):
                if stale not in shard_paths:
                    stale.unlink()
            sp.set(objects=objects)
        self._shard_paths = shard_paths
        self._saved_versions = versions
        emit(
            "db.snapshot",
            op="save",
            objects=objects,
            path=str(root),
            shards=self.n_shards,
        )
        return root

    def checkpoint(self) -> Path:
        """Checkpoint every shard, ascending order.

        Each shard's checkpoint is individually atomic (snapshot, WAL
        seal/rotate, CURRENT republish), so a crash in any gap — the
        ``between-shard-checkpoints`` crash point fires in each one —
        leaves a *mixed* but fully recoverable layout: already-advanced
        shards recover from their new generation, the rest from their
        old generation plus WAL tail.  Either way every acknowledged
        mutation survives, which is all "consistent version vector"
        means here: recovery equals a fresh build of the acknowledged
        prefix, shard by shard.
        """
        if not self.durable:
            raise QueryError("checkpoint() is only available with durable=True")
        for i, shard in enumerate(self.shards):
            if i:
                crash_point("between-shard-checkpoints")
            shard.checkpoint()
        emit(
            "db.checkpoint",
            shards=self.n_shards,
            objects=len(self),
            path=str(self._root),
        )
        return self._root

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        model=None,
        pipeline=None,
        cache=None,
        lock_timeout: float | None = None,
        n_jobs: int | None = None,
    ) -> "ShardedSimilarityDatabase":
        """Reconstruct a sharded database from :meth:`save` output.

        Durable layouts run the per-shard recovery ladder;
        :attr:`last_recovery` is then the list of per-shard
        :class:`~repro.db.core.RecoveryReport` objects.  Non-durable
        layouts read the shard archives (fanned out over the process
        pool when ``n_jobs >= 2``) and reassemble each index
        node-for-node.
        """
        root = Path(path)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise StorageError(
                f"{root} is not a sharded database (missing {MANIFEST_NAME})"
            )
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != SHARDED_FORMAT:
            raise StorageError(f"{root}: not a {SHARDED_FORMAT} layout")
        if manifest.get("version") != SHARDED_VERSION:
            raise StorageError(
                f"{root}: unsupported sharded version {manifest.get('version')!r}"
            )
        count = int(manifest["shards"])
        durable = bool(manifest.get("durable"))
        jobs = resolve_n_jobs(n_jobs)
        with span("db.sharded.load", force=True, shards=count):
            if durable:
                shards = [
                    SimilarityDatabase.load(
                        root / _shard_dir_name(i), lock_timeout=lock_timeout
                    )
                    for i in range(count)
                ]
                shard_paths = None
            else:
                shard_paths = [root / _shard_archive_name(i) for i in range(count)]
                for shard_path in shard_paths:
                    if not shard_path.exists():
                        raise StorageError(f"{root}: missing {shard_path.name}")
                if jobs >= 2 and count >= 2:
                    archives = pool_map(
                        _read_shard_task,
                        [str(p) for p in shard_paths],
                        min(jobs, count),
                    )
                    shards = [
                        SimilarityDatabase._from_archive(
                            shard_paths[i],
                            meta,
                            arrays,
                            model=None,
                            pipeline=None,
                            cache=None,
                        )
                        for i, (meta, arrays) in enumerate(archives)
                    ]
                    for shard in shards:
                        shard.lock_timeout = lock_timeout
                else:
                    shards = [
                        SimilarityDatabase.load(p, lock_timeout=lock_timeout)
                        for p in shard_paths
                    ]
        db = cls.__new__(cls)
        db.capacity = manifest.get("capacity", shards[0].capacity)
        db.backend = manifest.get("backend", shards[0].backend)
        db.n_shards = count
        db.shards = shards
        db.model = model
        db.pipeline = pipeline
        db.cache = cache
        db.lock_timeout = lock_timeout
        db.durable = durable
        db.fsync = shards[0].fsync
        db.keep_generations = shards[0].keep_generations
        db._shard_kwargs = {}
        db._root = root if durable else None
        db._shard_paths = None if durable else shard_paths
        db._saved_versions = (
            None if durable else [shard.version for shard in shards]
        )
        db.last_recovery = (
            [shard.last_recovery for shard in shards] if durable else None
        )
        db.last_parallel_legs = None
        emit(
            "db.snapshot",
            op="load",
            objects=len(db),
            path=str(root),
            shards=count,
        )
        return db


def open_database(
    path: str | Path,
    *,
    model=None,
    pipeline=None,
    cache=None,
    lock_timeout: float | None = None,
):
    """Open any saved layout with the class that wrote it.

    A directory carrying a ``sharded.json`` manifest loads as a
    :class:`ShardedSimilarityDatabase`; anything else (snapshot archive
    file or single durable directory) loads as a
    :class:`SimilarityDatabase`.
    """
    p = Path(path)
    if p.is_dir() and (p / MANIFEST_NAME).exists():
        return ShardedSimilarityDatabase.load(
            p,
            model=model,
            pipeline=pipeline,
            cache=cache,
            lock_timeout=lock_timeout,
        )
    return SimilarityDatabase.load(
        p, model=model, pipeline=pipeline, cache=cache, lock_timeout=lock_timeout
    )
