"""Array-native index cores: struct-of-arrays query engines.

The pointer trees (:mod:`repro.index.rstar`, :mod:`repro.index.xtree`,
:mod:`repro.index.mtree`, :mod:`repro.index.scan`) are the mutable
masters, but walking their Python object graphs node-by-node dominates
query time once the matching kernels are batched.  Each core here holds
the *same* flat layout the snapshot module serializes — BFS node tables
with entry offsets, MBR lower/upper blocks, M-tree radii and
parent-distance columns, leaf oid blocks — and runs the query hot path
over contiguous numpy arrays:

* lower-bound distances (MBR mindist, covering-ball slack) are computed
  for a whole node's entry block in one vectorized call,
* k-nn uses a flat best-first loop that buffers leaf objects in arrays
  and emits them in canonical ``(distance, oid)`` order in chunks,
* range search walks a frontier *array* of node ids per level.

The cores are read-only: any mutation goes to the pointer tree (or, for
a zero-copy loaded core, through :meth:`inflate`), and the tree marks
its cached core stale.  Because a core is built from — and serializes
back to — the exact snapshot arrays, ``structure_digest`` of a core
equals the digest of the pointer tree it mirrors.

Equivalence guarantees (asserted by the differential tests):

* **Results** are literally equal to the pointer traversals: same oids,
  same ``(distance, oid)`` order, bit-identical distances (the cores
  reuse ``_mindist_many`` / the exact metric on the same float inputs).
* **Page accounting** is identical for the R*-/X-tree and scan cores at
  every consumption point of the incremental ranking, and identical for
  all M-tree traversals (the buffered best-first loop provably expands
  the same node set as the one-at-a-time heap).  M-tree
  ``distance_computations`` may exceed the pointer count slightly: the
  parent-distance pre-test is evaluated per node batch against the
  k-th distance *at node entry*, which can only prune less, never more.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator

import numpy as np

from repro.exceptions import IndexError_
from repro.index.pages import PageManager
from repro.index.rstar import _mindist_many
from repro.obs import counter, histogram


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], ends[i])`` without a Python loop."""
    counts = ends - starts
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts) - counts
    return np.repeat(starts - cum, counts) + np.arange(total, dtype=np.int64)


class _ArrayCore:
    """Shared plumbing: serialized form, digests, page accounting."""

    kind: str

    def __init__(self, meta: dict, arrays: dict, page_manager: PageManager | None):
        meta = {k: v for k, v in meta.items() if k != "checksums"}
        self.meta = meta
        self.arrays = dict(arrays)
        self.pages = page_manager or PageManager()
        self.size = int(meta["size"])

    def serialized(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The exact ``(meta, arrays)`` snapshot form this core runs on."""
        return self.meta, self.arrays

    def inflate(self, *, metric=None, page_manager: PageManager | None = None):
        """Materialize the pointer tree this core mirrors (for mutation)."""
        from repro.index.snapshot import reconstruct_index

        return reconstruct_index(
            self.meta, self.arrays, metric=metric, page_manager=page_manager
        )

    def _fail(self, message: str) -> None:
        raise IndexError_(f"{self.kind} array core: {message}")


class RTreeArrayCore(_ArrayCore):
    """Struct-of-arrays query core for R*-trees and X-trees.

    Runs on the BFS node tables of :func:`repro.index.snapshot.serialize_index`:
    ``node_level``/``node_capacity`` per node, ``entry_offsets`` (N+1
    cumulative sums) slicing the flat ``entry_lowers``/``entry_uppers``/
    ``entry_payloads`` blocks.  Payloads are oids in leaf nodes and BFS
    child indices in directory nodes; node 0 is the root.
    """

    def __init__(self, meta, arrays, page_manager=None):
        super().__init__(meta, arrays, page_manager)
        self.kind = meta["kind"]
        self.dimension = int(meta["dimension"])
        self.capacity = int(meta["capacity"])
        self._levels = np.ascontiguousarray(arrays["node_level"], dtype=np.int64)
        self._caps = np.ascontiguousarray(arrays["node_capacity"], dtype=np.int64)
        self._offsets = np.ascontiguousarray(arrays["entry_offsets"], dtype=np.int64)
        self._lowers = np.ascontiguousarray(arrays["entry_lowers"], dtype=np.float64)
        self._uppers = np.ascontiguousarray(arrays["entry_uppers"], dtype=np.float64)
        self._payloads = np.ascontiguousarray(arrays["entry_payloads"], dtype=np.int64)
        # One logical page per base capacity's worth of entries, exactly
        # how the pointer trees size supernode pages.
        self._spans = np.maximum(1, -(-self._caps // self.capacity))
        self._node_bytes = self._spans * self.pages.page_size
        # Per-entry flag: does this entry's owning node sit at leaf level
        # (payload is an object id) or above (payload is a child node)?
        self._entry_is_obj = np.repeat(self._levels == 0, np.diff(self._offsets))

    # -- queries ---------------------------------------------------------

    def ranking_chunks(
        self, point: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(oids, distances)`` array chunks in ascending canonical
        ``(distance, oid)`` order.

        A buffered best-first traversal: the node priority array is a
        heap of ``(mindist, node_id)``; leaf entry blocks are appended to
        flat object buffers; a chunk is emitted once every unexpanded
        node lies strictly farther than the buffered objects (so a tied
        node is always expanded before a tied object is yielded —
        canonical order is preserved).  Expansions happen exactly when
        the one-at-a-time heap would pop the node, so page accounting
        matches the pointer traversal at every consumption point.
        """
        point = np.asarray(point, dtype=np.float64)
        offsets, levels = self._offsets, self._levels
        lowers, uppers, payloads = self._lowers, self._uppers, self._payloads
        spans, node_bytes = self._spans, self._node_bytes
        pages = self.pages
        nodes_batched = counter("index.nodes_batched")
        frontier_size = histogram("index.frontier_size")
        heap: list[tuple[float, int]] = [(0.0, 0)]
        parts_d: list[np.ndarray] = []
        parts_o: list[np.ndarray] = []
        buf_min = np.inf
        while heap or parts_d:
            while heap and (not parts_d or heap[0][0] <= buf_min):
                dist, nid = heapq.heappop(heap)
                pages.read_spans(int(spans[nid]), int(node_bytes[nid]))
                nodes_batched.inc()
                frontier_size.observe(len(heap) + 1)
                start, stop = int(offsets[nid]), int(offsets[nid + 1])
                if start == stop:
                    continue
                dists = _mindist_many(point, lowers[start:stop], uppers[start:stop])
                if levels[nid] == 0:
                    parts_d.append(dists)
                    parts_o.append(payloads[start:stop])
                    near = float(dists.min())
                    if near < buf_min:
                        buf_min = near
                else:
                    block = payloads[start:stop]
                    for j in range(stop - start):
                        heapq.heappush(heap, (float(dists[j]), int(block[j])))
            if not parts_d:
                break
            buffered_d = parts_d[0] if len(parts_d) == 1 else np.concatenate(parts_d)
            buffered_o = parts_o[0] if len(parts_o) == 1 else np.concatenate(parts_o)
            if heap:
                ready = buffered_d < heap[0][0]
                emit_d, emit_o = buffered_d[ready], buffered_o[ready]
                held = ~ready
                parts_d = [buffered_d[held]] if held.any() else []
                parts_o = [buffered_o[held]] if held.any() else []
                buf_min = float(parts_d[0].min()) if parts_d else np.inf
            else:
                emit_d, emit_o = buffered_d, buffered_o
                parts_d, parts_o = [], []
                buf_min = np.inf
            order = np.lexsort((emit_o, emit_d))
            yield emit_o[order], emit_d[order]

    def incremental_nearest(self, point: np.ndarray) -> Iterator[tuple[int, float]]:
        """``(oid, distance)`` pairs in ascending ``(distance, oid)`` order."""
        for oids, dists in self.ranking_chunks(point):
            for oid, dist in zip(oids.tolist(), dists.tolist()):
                yield oid, dist

    def knn(self, point: np.ndarray, k: int) -> list[tuple[int, float]]:
        if k < 1:
            raise IndexError_("k must be >= 1")
        result: list[tuple[int, float]] = []
        for oids, dists in self.ranking_chunks(point):
            take = min(k - len(result), len(oids))
            result.extend(zip(oids[:take].tolist(), dists[:take].tolist()))
            if len(result) == k:
                break
        return result

    def _leaf_table(self):
        """Lazy leaf-grouped view of the entry tables for batched knn.

        Snapshots store nodes in BFS order, so the leaf level is the
        tail of the node array and leaf entries are one contiguous slice
        of the entry tables — the returned columns are then views, not
        copies.  (If the layout ever stops being contiguous we fall back
        to a one-time gather.)  Per-leaf bounding boxes come from exact
        elementwise min/max over each leaf's entries, so every computed
        box bound provably never exceeds the computed distance of any
        entry inside it — the monotonicity that makes wave pruning safe.
        """
        cached = getattr(self, "_leaf_table_cache", None)
        if cached is not None:
            return cached
        leaf_ids = np.nonzero(self._levels == 0)[0]
        starts, ends = self._offsets[leaf_ids], self._offsets[leaf_ids + 1]
        nonempty = ends > starts
        leaf_ids, starts, ends = leaf_ids[nonempty], starts[nonempty], ends[nonempty]
        counts = ends - starts
        if leaf_ids.size and bool(np.all(starts[1:] == ends[:-1])):
            lo = self._lowers[starts[0] : ends[-1]]
            hi = self._uppers[starts[0] : ends[-1]]
            oid = self._payloads[starts[0] : ends[-1]]
        else:
            idx = _ranges(starts, ends)
            lo, hi, oid = self._lowers[idx], self._uppers[idx], self._payloads[idx]
        # lo and -hi side by side, so one gather + one subtract yields
        # both halves of max(lo - q, q - hi) per wave.
        box = np.concatenate([lo, -hi], axis=1)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        box_lo = np.minimum.reduceat(lo, bounds[:-1]) if leaf_ids.size else lo[:0]
        box_hi = np.maximum.reduceat(hi, bounds[:-1]) if leaf_ids.size else hi[:0]
        # Point-shaped leaf entries (the centroid trees) get a squared-
        # norm column for the BLAS-style candidate pretest in knn_many.
        points_only = bool(np.array_equal(lo, hi))
        psq = np.einsum("ij,ij->i", lo, lo) if points_only else None
        cached = (leaf_ids, bounds, box, oid, box_lo, box_hi, lo, psq)
        self._leaf_table_cache = cached
        return cached

    def knn_many(self, points: np.ndarray, k: int) -> list[list[tuple[int, float]]]:
        """Batched k-nn for many query points in one shared sweep.

        Instead of running one best-first descent per query, the batch
        reads the directory once: a single broadcast computes the
        mindist of every query to every leaf box, each query sorts its
        leaves by that bound, and leaves are then expanded in waves —
        the first wave takes just enough nearest leaves to hold k
        candidates, later waves take the (contiguous, because sorted)
        run of leaves whose bound still beats the query's k-th candidate
        distance.  All queries' wave work is one gather and one
        vectorized distance pass, so the per-node Python overhead of the
        sequential walk is amortized across the whole batch.

        Results are exactly :meth:`knn` of each point: leaf boxes are
        exact elementwise min/max of their entries (so a computed box
        bound never exceeds any computed entry distance), eligibility
        over-approximates ``bound <= kth`` (squared-space comparison
        with a conservative slack, so ties and near-ties always
        expand), and pool admission recomputes exact distances that
        rank by the canonical ``(distance, oid)`` lexsort.  Page accounting is
        *honest but not identical* to the sequential best-first walk:
        the whole directory is charged once per batch and each (query,
        leaf) expansion charges that leaf's span, which can differ from
        the strict walk's count in either direction — use
        :meth:`knn`/:meth:`ranking_chunks` when exact pointer-parity of
        the counters matters.
        """
        points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
        if k < 1:
            raise IndexError_("k must be >= 1")
        if points.ndim != 2 or points.shape[1] != self.dimension:
            self._fail(f"expected (q, {self.dimension}) query points")
        n_queries = len(points)
        if not n_queries:
            return []
        nodes_batched = counter("index.nodes_batched")
        frontier_size = histogram("index.frontier_size")
        (
            leaf_ids,
            ent_bounds,
            ent_box,
            ent_oid,
            box_lo,
            box_hi,
            ent_pts,
            ent_psq,
        ) = self._leaf_table()
        n_leaves = leaf_ids.size
        results: list[list[tuple[int, float]]] = [[] for _ in range(n_queries)]
        dir_ids = np.nonzero(self._levels > 0)[0]
        if dir_ids.size:
            self.pages.read_spans(
                int(self._spans[dir_ids].sum()), int(self._node_bytes[dir_ids].sum())
            )
            nodes_batched.inc(dir_ids.size)
        if not n_leaves:
            return results
        # (q, L) lower bounds: *squared* mindist of every query to every
        # leaf box, accumulated one dimension at a time (2-d slabs beat
        # one (q, L, dim) tensor on cache locality, and the running sum
        # adds terms in the same order as np.sum over a length-dim axis,
        # so the values are bit-identical).  Bounds stay squared — the
        # sqrt is pure cost, since eligibility against kth happens in
        # squared space with a conservative slack (see the wave loop).
        leaf_bound = np.zeros((n_queries, n_leaves))
        for j in range(self.dimension):
            d = np.maximum(
                box_lo[:, j][None, :] - points[:, j][:, None],
                points[:, j][:, None] - box_hi[:, j][None, :],
            )
            np.maximum(d, 0.0, out=d)
            leaf_bound += d * d
        order = np.argsort(leaf_bound, axis=1)
        sorted_bound = np.take_along_axis(leaf_bound, order, axis=1)
        # First wave: enough nearest leaves to hold >= k entries (so kth
        # becomes finite immediately).  Non-root leaves hold at least
        # min_fill entries (check_invariants), so a fixed prefix works;
        # if the whole tree holds fewer than k, later waves expand the
        # rest because kth stays infinite.
        min_fill = max(1, int(0.4 * self.capacity))
        first_wave = min(n_leaves, -(-k // min_fill))
        ptr = np.full(n_queries, first_wave, dtype=np.int64)
        kth = np.full(n_queries, np.inf)
        # [q, -q] next to [lo, -hi]: one subtract per wave yields both
        # halves of max(lo - q, q - hi); (-hi) - (-q) rounds identically
        # to q - hi, keeping leaf distances bit-compatible with
        # _mindist_many.
        qcat = np.concatenate([points, -points], axis=1)
        qsq = np.einsum("ij,ij->i", points, points)
        cand_q = np.empty(0, dtype=np.int64)
        cand_d = np.empty(0, dtype=np.float64)
        cand_o = np.empty(0, dtype=np.int64)
        wave_lo = np.zeros(n_queries, dtype=np.int64)
        wave_hi = ptr
        dim = self.dimension

        def absorb(pair_q, pair_d, pair_o):
            # Fold surviving candidates into the per-query pools, then
            # refresh every touched query's k-th distance.  The k-th
            # *distance value* is tie-free of the oid key, so waves rank
            # the pool on (query, distance) only; the full
            # (distance, oid) lexsort happens once, at final assembly.
            nonlocal cand_q, cand_d, cand_o
            cand_q = np.concatenate([cand_q, pair_q])
            cand_d = np.concatenate([cand_d, pair_d])
            cand_o = np.concatenate([cand_o, pair_o])
            if not cand_q.size:
                return
            rank = np.lexsort((cand_d, cand_q))
            cand_q, cand_d = cand_q[rank], cand_d[rank]
            cand_o = cand_o[rank]
            # cand_q is now sorted: first occurrences come from a diff
            # flag, which is cheaper than np.unique's internal re-sort.
            first = np.flatnonzero(
                np.concatenate(([True], cand_q[1:] != cand_q[:-1]))
            )
            per_query = np.diff(np.append(first, cand_q.size))
            full = per_query >= k
            kth[cand_q[first[full]]] = cand_d[first[full] + k - 1]
            compact = cand_d <= kth[cand_q]
            cand_q, cand_d = cand_q[compact], cand_d[compact]
            cand_o = cand_o[compact]

        def expand(row_q, row_leaf):
            # One gather + one vectorized distance pass over every
            # (query, leaf-entry) pair of the given expansion rows.
            starts, ends = ent_bounds[row_leaf], ent_bounds[row_leaf + 1]
            idx = _ranges(starts, ends)
            pair_q = np.repeat(row_q, ends - starts)
            if ent_psq is not None:
                # Point entries: select candidates with the fused
                # ||q||^2 + ||p||^2 - 2 q.p expansion, which is cheap
                # but not bit-exact, using a slack hundreds of times
                # wider than its worst-case rounding error so no true
                # candidate is rejected; then recompute the exact direct
                # formula only for the admitted few.
                prows = ent_pts[idx]
                qrows = points[pair_q]
                scale = qsq[pair_q] + ent_psq[idx]
                approx = scale - 2.0 * np.einsum("ij,ij->i", prows, qrows)
                kth_sq = kth * kth
                admit = approx <= kth_sq[pair_q] + 1e-12 * (
                    kth_sq[pair_q] + scale
                )
                pair_q = pair_q[admit]
                delta = prows[admit] - qrows[admit]
                np.multiply(delta, delta, out=delta)
                pair_d = np.sqrt(np.sum(delta, axis=1))
                pair_o = ent_oid[idx[admit]]
                exact = pair_d <= kth[pair_q]
                absorb(pair_q[exact], pair_d[exact], pair_o[exact])
            else:
                # max(lo-q, q-hi, 0) equals max(lo-q, 0) + max(q-hi, 0)
                # exactly (at most one operand is positive since
                # lo <= hi), so leaf distances stay bit-compatible with
                # _mindist_many.
                d2 = ent_box[idx] - qcat[pair_q]
                d = np.maximum(d2[:, :dim], d2[:, dim:])
                np.maximum(d, 0.0, out=d)
                np.multiply(d, d, out=d)
                pair_d = np.sqrt(np.sum(d, axis=1))
                admit = pair_d <= kth[pair_q]
                absorb(pair_q[admit], pair_d[admit], ent_oid[idx[admit]])

        while True:
            wave_counts = wave_hi - wave_lo
            active = np.nonzero(wave_counts > 0)[0]
            if not active.size:
                break
            row_q = np.repeat(active, wave_counts[active])
            row_rank = _ranges(wave_lo[active], wave_hi[active])
            row_leaf = order[row_q, row_rank]
            self.pages.read_spans(
                int(self._spans[leaf_ids[row_leaf]].sum()),
                int(self._node_bytes[leaf_ids[row_leaf]].sum()),
            )
            nodes_batched.inc(row_leaf.size)
            frontier_size.observe(row_leaf.size)
            # Large waves split in two: the per-query nearest few leaves
            # tighten kth first, so the bulk of the wave's entries face a
            # tighter admission bar.  Same expansions either way — kth
            # only shrinks, and eligibility was fixed when the wave was
            # sized — but far fewer candidates survive into the pool.
            head = wave_lo[row_q] + 4
            if row_q.size > 6 * active.size and bool(
                (near := row_rank < head).any() and not near.all()
            ):
                expand(row_q[near], row_leaf[near])
                expand(row_q[~near], row_leaf[~near])
            else:
                expand(row_q, row_leaf)
            # Next wave: the still-unexpanded sorted run whose bound
            # beats (or ties) each query's current kth.  The run is
            # capped at a doubling of what the query already expanded,
            # so a loose early kth (e.g. an outlier query) re-tightens
            # every O(log) leaves instead of flooding one huge wave.
            # Eligibility compares squared bounds against kth^2 plus a
            # relative slack hundreds of times wider than the worst-case
            # rounding drift between sqrt-space (where kth lives) and
            # squared space, so every leaf the sequential walk would
            # visit stays eligible; the handful of extra leaves the
            # slack lets through cost time, never correctness, because
            # pool admission recomputes exact distances.
            thr = kth * kth
            thr += 1e-12 * thr
            wave_lo = wave_hi
            wave_hi = np.empty(n_queries, dtype=np.int64)
            for qi in range(n_queries):
                wave_hi[qi] = np.searchsorted(
                    sorted_bound[qi], thr[qi], side="right"
                )
            np.minimum(wave_hi, wave_lo + np.maximum(32, wave_lo), out=wave_hi)
            np.maximum(wave_hi, wave_lo, out=wave_hi)
        if not cand_q.size:
            return results
        rank = np.lexsort((cand_o, cand_d, cand_q))
        cand_q, cand_d, cand_o = cand_q[rank], cand_d[rank], cand_o[rank]
        first = np.flatnonzero(
            np.concatenate(([True], cand_q[1:] != cand_q[:-1]))
        )
        have = cand_q[first]
        first = np.append(first, cand_q.size)
        for i, query_index in enumerate(have.tolist()):
            start = int(first[i])
            stop = min(int(first[i + 1]), start + k)
            results[query_index] = list(
                zip(cand_o[start:stop].tolist(), cand_d[start:stop].tolist())
            )
        return results

    def range_search(self, center: np.ndarray, radius: float) -> list[int]:
        """Object ids intersecting the hypersphere, ascending.

        The frontier is an array of node ids per tree level; each step
        charges the whole frontier as one batched read and filters every
        frontier entry with a single vectorized mindist call.  The
        visited node set — hence ``io.page_accesses`` — is identical to
        the pointer tree's depth-first walk.
        """
        center = np.asarray(center, dtype=np.float64)
        if radius < 0:
            raise IndexError_("radius must be non-negative")
        offsets, levels, payloads = self._offsets, self._levels, self._payloads
        nodes_batched = counter("index.nodes_batched")
        frontier_size = histogram("index.frontier_size")
        hits: list[np.ndarray] = []
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            self.pages.read_spans(
                int(self._spans[frontier].sum()),
                int(self._node_bytes[frontier].sum()),
            )
            nodes_batched.inc(frontier.size)
            frontier_size.observe(frontier.size)
            starts, ends = offsets[frontier], offsets[frontier + 1]
            entry_idx = _ranges(starts, ends)
            if not entry_idx.size:
                break
            dists = _mindist_many(
                center, self._lowers[entry_idx], self._uppers[entry_idx]
            )
            within = dists <= radius
            near = entry_idx[within]
            owner_is_leaf = np.repeat(levels[frontier] == 0, ends - starts)
            near_is_leaf = owner_is_leaf[within]
            hit_oids = payloads[near[near_is_leaf]]
            if hit_oids.size:
                hits.append(hit_oids)
            frontier = payloads[near[~near_is_leaf]]
        if not hits:
            return []
        return np.sort(np.concatenate(hits)).tolist()

    # -- integrity -------------------------------------------------------

    def check_invariants(self) -> None:
        """Vectorized structural validation of the dense node tables.

        Covers what the pointer-tree ``check_invariants`` covers, plus
        the flat-layout-specific hazards a corrupted snapshot can carry:
        child-offset bounds, single-reference topology, offset
        monotonicity, and exact MBR containment.
        """
        n_nodes = len(self._levels)
        offsets = self._offsets
        if len(offsets) != n_nodes + 1 or len(self._caps) != n_nodes:
            self._fail("node table lengths disagree")
        if not n_nodes:
            self._fail("no nodes")
        if offsets[0] != 0 or offsets[-1] != len(self._payloads):
            self._fail("entry offsets do not span the entry table")
        counts = np.diff(offsets)
        if np.any(counts < 0):
            self._fail("entry offsets are not monotone")
        if len(self._lowers) != len(self._payloads) or len(self._uppers) != len(
            self._payloads
        ):
            self._fail("entry table lengths disagree")
        if not (np.isfinite(self._lowers).all() and np.isfinite(self._uppers).all()):
            self._fail("non-finite box corner")
        if np.any(self._lowers > self._uppers):
            self._fail("inverted box (lower > upper)")
        if np.any(counts > self._caps):
            self._fail("node holds more entries than its capacity")
        if np.any(self._caps < self.capacity):
            self._fail("node capacity below the tree's base capacity")
        min_fill = max(2, int(0.4 * self.capacity))
        if n_nodes > 1 and np.any(counts[1:] < min_fill):
            self._fail("underfull non-root node")
        owner = np.repeat(np.arange(n_nodes, dtype=np.int64), counts)
        is_dir_entry = self._levels[owner] > 0
        children = self._payloads[is_dir_entry]
        leaf_oids = self._payloads[~is_dir_entry]
        if leaf_oids.size and leaf_oids.min() < 0:
            self._fail("negative object id in a leaf")
        if int((~is_dir_entry).sum()) != self.size:
            self._fail(
                f"leaf entry count {(~is_dir_entry).sum()} != size {self.size}"
            )
        if children.size:
            if children.min() < 1 or children.max() >= n_nodes:
                self._fail("child offset out of bounds")
            refs = np.bincount(children, minlength=n_nodes)
            if refs[0] != 0 or np.any(refs[1:] != 1):
                self._fail("node referenced other than exactly once")
            if np.any(self._levels[children] != self._levels[owner[is_dir_entry]] - 1):
                self._fail("child level mismatch")
        elif n_nodes > 1:
            self._fail("unreachable nodes (no directory entries)")
        nonempty = np.nonzero(counts > 0)[0]
        if nonempty.size:
            node_lo = np.full((n_nodes, self.dimension), np.inf)
            node_hi = np.full((n_nodes, self.dimension), -np.inf)
            node_lo[nonempty] = np.minimum.reduceat(
                self._lowers, offsets[:-1][nonempty], axis=0
            )
            node_hi[nonempty] = np.maximum.reduceat(
                self._uppers, offsets[:-1][nonempty], axis=0
            )
            if children.size:
                boxes_lo = self._lowers[is_dir_entry]
                boxes_hi = self._uppers[is_dir_entry]
                if np.any(node_lo[children] < boxes_lo) or np.any(
                    node_hi[children] > boxes_hi
                ):
                    self._fail("child MBR escapes the stored directory box")


class MTreeArrayCore(_ArrayCore):
    """Struct-of-arrays query core for the M-tree.

    Node tables: ``node_is_leaf`` plus ``entry_offsets`` slicing flat
    ``entry_dist_to_parent``/``entry_radius``/``entry_oid``/
    ``entry_subtree`` columns; stored objects live in one ragged
    ``obj_data`` block addressed by ``obj_row_offsets``.  Metric
    distances are evaluated with the tree's own metric, so results equal
    the pointer tree's literally.
    """

    kind = "mtree"
    PRUNE_SLACK = 1e-9

    def __init__(self, meta, arrays, metric, page_manager=None):
        super().__init__(meta, arrays, page_manager)
        self.metric = metric
        self.capacity = int(meta["capacity"])
        self.distance_computations = 0
        self._is_leaf = np.ascontiguousarray(arrays["node_is_leaf"], dtype=np.int8)
        self._offsets = np.ascontiguousarray(arrays["entry_offsets"], dtype=np.int64)
        self._dist_to_parent = np.ascontiguousarray(
            arrays["entry_dist_to_parent"], dtype=np.float64
        )
        self._radius = np.ascontiguousarray(arrays["entry_radius"], dtype=np.float64)
        self._oid = np.ascontiguousarray(arrays["entry_oid"], dtype=np.int64)
        self._subtree = np.ascontiguousarray(arrays["entry_subtree"], dtype=np.int64)
        self._ndims = np.ascontiguousarray(arrays["obj_ndim"], dtype=np.int8)
        self._row_offsets = np.ascontiguousarray(
            arrays["obj_row_offsets"], dtype=np.int64
        )
        self._obj_data = np.ascontiguousarray(arrays["obj_data"], dtype=np.float64)

    def _entry_obj(self, e: int):
        rows = self._obj_data[self._row_offsets[e] : self._row_offsets[e + 1]]
        return rows[0] if self._ndims[e] == 1 else rows

    def _distances(self, query, idx: np.ndarray) -> np.ndarray:
        self.distance_computations += len(idx)
        return np.array(
            [float(self.metric(query, self._entry_obj(int(e)))) for e in idx],
            dtype=np.float64,
        )

    def knn(self, query, k: int) -> list[tuple[int, float]]:
        """The k nearest ``(oid, distance)`` pairs, canonical order.

        Same best-first search as the pointer M-tree; the slack-guarded
        parent-distance pre-test and the metric evaluations are batched
        per node.  The pre-test uses the k-th distance at node entry
        (the pointer version re-reads it per entry), which can only
        admit extra candidates — results and page accesses are
        identical, ``distance_computations`` is an upper bound.
        """
        if k < 1:
            raise IndexError_("k must be >= 1")
        slack = 1.0 + self.PRUNE_SLACK
        tick = itertools.count()
        nodes_batched = counter("index.nodes_batched")
        frontier_size = histogram("index.frontier_size")
        queue: list[tuple[float, int, int, float | None]] = [
            (0.0, next(tick), 0, None)
        ]
        best: list[tuple[float, int]] = []

        def kth_key() -> tuple[float, int]:
            if len(best) < k:
                return (np.inf, 2**63)
            return (-best[0][0], -best[0][1])

        while queue:
            bound, _, nid, parent_dist = heapq.heappop(queue)
            kth = kth_key()[0]
            if bound > kth:
                break
            self.pages.read_spans(1, self.pages.page_size)
            nodes_batched.inc()
            frontier_size.observe(len(queue) + 1)
            start, stop = int(self._offsets[nid]), int(self._offsets[nid + 1])
            if start == stop:
                continue
            idx = np.arange(start, stop, dtype=np.int64)
            if parent_dist is not None:
                keep = np.abs(parent_dist - self._dist_to_parent[idx]) <= (
                    kth + self._radius[idx]
                ) * slack
                idx = idx[keep]
            if not idx.size:
                continue
            dists = self._distances(query, idx)
            if self._is_leaf[nid]:
                for e, dist in zip(idx.tolist(), dists.tolist()):
                    oid = int(self._oid[e])
                    if (dist, oid) < kth_key():
                        if len(best) == k:
                            heapq.heapreplace(best, (-dist, -oid))
                        else:
                            heapq.heappush(best, (-dist, -oid))
            else:
                optimistic = np.maximum(0.0, dists - self._radius[idx]) * (
                    1.0 - self.PRUNE_SLACK
                )
                kth = kth_key()[0]
                for e, dist, opt in zip(
                    idx.tolist(), dists.tolist(), optimistic.tolist()
                ):
                    if opt <= kth:
                        heapq.heappush(
                            queue, (opt, next(tick), int(self._subtree[e]), dist)
                        )
        result = [(-neg_oid, -neg_dist) for neg_dist, neg_oid in best]
        result.sort(key=lambda pair: (pair[1], pair[0]))
        return result

    def knn_many(self, queries, k: int) -> list[list[tuple[int, float]]]:
        """Sequential :meth:`knn` per query.  The metric dominates the
        M-tree's cost, so there is no cross-query batching to exploit —
        this exists for interface parity with the R-tree cores."""
        return [self.knn(query, k) for query in queries]

    def range_search(self, query, radius: float) -> list[tuple[int, float]]:
        """All ``(oid, distance)`` with distance <= radius, canonical order."""
        if radius < 0:
            raise IndexError_("radius must be non-negative")
        slack = 1.0 + self.PRUNE_SLACK
        nodes_batched = counter("index.nodes_batched")
        frontier_size = histogram("index.frontier_size")
        results: list[tuple[int, float]] = []
        stack: list[tuple[int, float | None]] = [(0, None)]
        while stack:
            nid, parent_dist = stack.pop()
            self.pages.read_spans(1, self.pages.page_size)
            nodes_batched.inc()
            frontier_size.observe(len(stack) + 1)
            start, stop = int(self._offsets[nid]), int(self._offsets[nid + 1])
            if start == stop:
                continue
            idx = np.arange(start, stop, dtype=np.int64)
            if parent_dist is not None:
                keep = np.abs(parent_dist - self._dist_to_parent[idx]) <= (
                    radius + self._radius[idx]
                ) * slack
                idx = idx[keep]
            if not idx.size:
                continue
            dists = self._distances(query, idx)
            if self._is_leaf[nid]:
                hit = dists <= radius
                results.extend(
                    zip(self._oid[idx[hit]].tolist(), dists[hit].tolist())
                )
            else:
                descend = dists <= (radius + self._radius[idx]) * slack
                stack.extend(
                    zip(
                        self._subtree[idx[descend]].tolist(),
                        dists[descend].tolist(),
                    )
                )
        results.sort(key=lambda pair: (pair[1], pair[0]))
        return results

    def check_invariants(self) -> None:
        """Vectorized validation of the dense M-tree tables: offset
        bounds, reference topology, radius/parent-distance validity and
        object-table consistency."""
        n_nodes = len(self._is_leaf)
        offsets = self._offsets
        if not n_nodes:
            self._fail("no nodes")
        if len(offsets) != n_nodes + 1:
            self._fail("node table lengths disagree")
        n_entries = len(self._oid)
        if offsets[0] != 0 or offsets[-1] != n_entries:
            self._fail("entry offsets do not span the entry table")
        counts = np.diff(offsets)
        if np.any(counts < 0):
            self._fail("entry offsets are not monotone")
        if np.any(counts > self.capacity):
            self._fail("node holds more entries than the tree capacity")
        for name, column in (
            ("dist_to_parent", self._dist_to_parent),
            ("radius", self._radius),
        ):
            if len(column) != n_entries:
                self._fail(f"{name} column length disagrees")
            if not np.isfinite(column).all() or np.any(column < 0):
                self._fail(f"invalid {name} (negative or non-finite)")
        if len(self._subtree) != n_entries or len(self._ndims) != n_entries:
            self._fail("entry table lengths disagree")
        if len(self._row_offsets) != n_entries + 1:
            self._fail("object row offsets do not match the entry count")
        if np.any(np.diff(self._row_offsets) < 0) or (
            n_entries and self._row_offsets[-1] != len(self._obj_data)
        ):
            self._fail("object row offsets do not span the object table")
        if n_entries and not np.isin(self._ndims, (1, 2)).all():
            self._fail("stored object with unsupported ndim")
        owner = np.repeat(np.arange(n_nodes, dtype=np.int64), counts)
        leaf_entry = self._is_leaf[owner] == 1
        if np.any(self._subtree[leaf_entry] != -1):
            self._fail("leaf entry with a subtree reference")
        if leaf_entry.size and np.any(self._oid[leaf_entry] < 0):
            self._fail("leaf entry without an object id")
        if int(leaf_entry.sum()) != self.size:
            self._fail(f"leaf entry count {leaf_entry.sum()} != size {self.size}")
        children = self._subtree[~leaf_entry]
        if children.size:
            if children.min() < 1 or children.max() >= n_nodes:
                self._fail("child offset out of bounds")
            refs = np.bincount(children, minlength=n_nodes)
            if refs[0] != 0 or np.any(refs[1:] != 1):
                self._fail("node referenced other than exactly once")
        elif n_nodes > 1:
            self._fail("unreachable nodes (no routing entries)")


class ScanArrayCore(_ArrayCore):
    """Contiguous-matrix core for the sequential-scan baseline: the
    vector collection is one resident (or mmapped) ``(n, d)`` block, so
    a query is a single vectorized distance pass with no per-query
    ``vstack``."""

    kind = "scan"

    def __init__(self, meta, arrays, page_manager=None):
        super().__init__(meta, arrays, page_manager)
        self.dimension = int(meta["dimension"])
        self._points = np.ascontiguousarray(arrays["points"], dtype=np.float64)
        self._oids = np.ascontiguousarray(arrays["oids"], dtype=np.int64)

    def _charge_full_read(self) -> None:
        self.pages.read_bytes(self.size * self.dimension * 8)

    def ranking_chunks(
        self, point: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        if not self.size:
            return
        self._charge_full_read()
        counter("index.nodes_batched").inc()
        histogram("index.frontier_size").observe(1)
        point = np.asarray(point, dtype=np.float64)
        dists = np.linalg.norm(self._points - point, axis=1)
        order = np.lexsort((self._oids, dists))
        yield self._oids[order], dists[order]

    def incremental_nearest(self, point: np.ndarray) -> Iterator[tuple[int, float]]:
        for oids, dists in self.ranking_chunks(point):
            for oid, dist in zip(oids.tolist(), dists.tolist()):
                yield oid, dist

    def knn(self, point: np.ndarray, k: int) -> list[tuple[int, float]]:
        if k < 1:
            raise IndexError_("k must be >= 1")
        for oids, dists in self.ranking_chunks(point):
            return list(zip(oids[:k].tolist(), dists[:k].tolist()))
        return []

    def knn_many(self, points: np.ndarray, k: int) -> list[list[tuple[int, float]]]:
        """Batched k-nn: one ``(q, n)`` distance matrix, one rank pass
        per query.  Results and page charges equal ``q`` calls to
        :meth:`knn`."""
        if k < 1:
            raise IndexError_("k must be >= 1")
        points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            self._fail(f"expected (q, {self.dimension}) query points")
        if not self.size or not len(points):
            return [[] for _ in range(len(points))]
        for _ in range(len(points)):
            self._charge_full_read()
        counter("index.nodes_batched").inc(len(points))
        histogram("index.frontier_size").observe(len(points))
        dists = np.linalg.norm(self._points[None, :, :] - points[:, None, :], axis=2)
        results = []
        for row in dists:
            order = np.lexsort((self._oids, row))[:k]
            results.append(list(zip(self._oids[order].tolist(), row[order].tolist())))
        return results

    def range_search(self, center: np.ndarray, radius: float) -> list[int]:
        if radius < 0:
            raise IndexError_("radius must be non-negative")
        if not self.size:
            return []
        self._charge_full_read()
        center = np.asarray(center, dtype=np.float64)
        dists = np.linalg.norm(self._points - center, axis=1)
        return self._oids[dists <= radius].tolist()

    def check_invariants(self) -> None:
        if self._points.shape != (self.size, self.dimension):
            self._fail(
                f"point block {self._points.shape} != ({self.size}, {self.dimension})"
            )
        if len(self._oids) != self.size:
            self._fail("oid column length disagrees with size")
        if not np.isfinite(self._points).all():
            self._fail("non-finite stored point")
        if self.size and self._oids.min() < 0:
            self._fail("negative object id")


def core_from_serialized(
    meta: dict,
    arrays: dict,
    *,
    metric=None,
    page_manager: PageManager | None = None,
):
    """Build the matching array core from a snapshot ``(meta, arrays)``."""
    kind = meta.get("kind")
    if kind in ("rstar", "xtree"):
        return RTreeArrayCore(meta, arrays, page_manager)
    if kind == "scan":
        return ScanArrayCore(meta, arrays, page_manager)
    if kind == "mtree":
        if metric is None:
            raise IndexError_(
                "an M-tree core needs the metric: pass metric=... "
                "(the snapshot stores data, not code)"
            )
        return MTreeArrayCore(meta, arrays, metric, page_manager)
    raise IndexError_(f"unknown index kind {kind!r}")


def densify(tree):
    """Snapshot *tree* into a fresh array core sharing its page manager."""
    from repro.index.snapshot import serialize_index

    meta, arrays = serialize_index(tree)
    return core_from_serialized(
        meta,
        arrays,
        metric=getattr(tree, "metric", None),
        page_manager=tree.pages,
    )
