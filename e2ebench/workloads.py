"""The three workloads, each one closed-loop client in one process.

Every workload builds its catalog through the program's public API,
then drives a seeded stream of operations until the timed phase has
run for the requested seconds.  A client step is ``draw`` (make the
step's inputs) then ``play`` (send its operations and check the
answers), so an untraced run can replay the same steps against each
set-up of the same catalog.  Inputs are made before any clock starts;
oracle checks run after it stops.  Neither counts toward the timed
phase.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corpora import (
    CATALOG_SEED,
    DIM,
    SET_K,
    SetFamilies,
    aircraft_parts,
    near_duplicate,
    rng_for,
)
from hostspeed import HostSpeed
from oracle import ScanOracle

K_NN = 10
#: What :meth:`Recorder.op` returns for an operation that raised.
FAILED = object()
RESOLUTION = 15
MARGIN = 1
FSYNC = "always"
SHARDS = 2
#: Share of part_search requests that send a new design, a part whose
#: normalized grid the feature cache does not hold yet; the others
#: re-submit a catalog part, a cache hit.  New designs are a quarter of
#: the requests, so p50 falls among the hits and p90 among the misses,
#: each far from the boundary between the two.
NEW_PART_SHARE = 0.25


@dataclass
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    catalog_parts: int = 600
    part_check_share: float = 0.5
    degenerate_n: int = 300
    churn_n: int = 1000
    churn_check_share: float = 0.5
    checkpoint_every: int = 100
    warmup_queries: int = 3


class Recorder:
    """Latencies by operation kind, failures, untimed intervals and the
    host-speed probes taken between operations."""

    def __init__(self):
        self.latency: dict[str, list[float]] = defaultdict(list)
        #: When each latency sample started, to scale it by host speed.
        self.starts: dict[str, list[float]] = defaultdict(list)
        self.speed = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.recall: list[float] = []
        self.paused = 0.0
        #: Prefix of the latency keys samples go to (traced operations
        #: are kept apart from untraced ones).
        self.lane = ""
        #: Round of an untraced run; the rounds after the first replay
        #: its steps.
        self.round = 0
        self._answers: list[list[tuple[int, float]]] = []
        self._next_answer = 0

    @contextmanager
    def untimed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - start

    def poll(self) -> None:
        """Probe the host's speed if due, untimed."""
        with self.untimed():
            self.speed.poll()

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)

    def check(self, problem: str | None, what: str) -> None:
        """Count an oracle verdict: a mismatch is a failed operation."""
        if problem is not None:
            self.fail(f"{what}: {problem}")

    def start_round(self, number: int) -> None:
        self.round = number
        self._next_answer = 0

    def replayed(self, what: str, matches) -> bool:
        """In the first round keep the answer *matches* and return False:
        the caller checks it against the oracle.  In a replay count a
        failure unless it equals the first round's answer to the same
        operation, and return True."""
        answer = [(m.object_id, m.distance) for m in matches]
        if self.round == 0:
            self._answers.append(answer)
            return False
        first = self._answers[self._next_answer : self._next_answer + 1]
        self._next_answer += 1
        if [answer] != first:
            self.fail(f"{what}: replay answered {answer}, first round {first}")
        return True

    def op(self, tracer, kind: str, fn):
        """Run one timed operation of *kind*; ``FAILED`` if it raised.

        A failed operation keeps its place in the samples as NaN, so the
        samples of every replay of a step list line up."""
        self.attempted += 1
        self.poll()
        scope = tracer.op(kind) if tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                result = fn()
        except Exception:  # noqa: BLE001 - the client records it and goes on
            self.fail(f"{kind} raised\n{traceback.format_exc()}")
            self.latency[self.lane + kind].append(math.nan)
            self.starts[self.lane + kind].append(start)
            return FAILED
        self.latency[self.lane + kind].append(time.perf_counter() - start)
        self.starts[self.lane + kind].append(start)
        return result


def note_query(tracer, kind: str, results, stats) -> None:
    """Add an exact query's own accounting to the traced readings."""
    if tracer is None or kind != "exact":
        return
    tracer.stats["candidates_ranked"] += stats.candidates_ranked
    tracer.stats["refined"] += stats.exact_computations
    tracer.stats["extra_refinements"] += stats.extra_refinements
    tracer.stats["results"] += len(results)


def dir_bytes(path: Path) -> int:
    return sum(
        (Path(root) / name).stat().st_size
        for root, _dirs, files in os.walk(path)
        for name in files
    )


class Workload:
    """One workload: ``setup`` builds a catalog, ``draw`` makes one client
    step's inputs and ``play`` runs it, ``finish`` checks what only the
    end can show."""

    name = ""
    #: Rounds of an untraced run.  Each round sets the catalog up
    #: ``setups_per_round`` times and then runs the client against the
    #: last catalog built: the first round for a share of the timed
    #: phase, drawing the run's steps, each later round a replay of the
    #: same steps.  Every timing takes, per set-up, per catalog object
    #: or per operation, the median of its repetitions.
    rounds = 3
    #: Cheap set-ups repeat more: a catalog build of well under a second
    #: times the host over too short a stretch to be steady.
    setups_per_round = 1
    #: Hooks whose layer must work in this workload's timed phase.
    expected_hooks: frozenset[str] = frozenset()

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        #: (start, seconds) of storing each catalog object (part_search:
        #: voxelize + add), one list per set-up.
        self.ingest_spans: list[list[tuple[float, float]]] = []
        #: (start, seconds) of each catalog object's add, all set-ups.
        self.setup_writes: list[tuple[float, float]] = []
        self.disk_bytes_per_object = 0.0
        self.rng = rng_for(seed, self.name, "client")

    def setup(self, rec: Recorder, repetition: int) -> None:
        raise NotImplementedError

    def draw(self):
        """The next client step's inputs (called untimed)."""
        raise NotImplementedError

    def play(self, rec: Recorder, tracer, step) -> None:
        """Send one client step's operations and check their answers."""
        raise NotImplementedError

    def step(self, rec: Recorder, tracer) -> None:
        with rec.untimed():
            step = self.draw()
        self.play(rec, tracer, step)

    def finish(self, rec: Recorder) -> None:
        pass

    def cache_counts(self) -> tuple[int, int]:
        """Feature-cache (hits, lookups) so far."""
        return 0, 0

    def info(self) -> dict:
        return {}

    def _near_duplicate(self, rng) -> np.ndarray:
        """A query set: a random live set, perturbed."""
        return near_duplicate(rng, self.oracle.get(self.oracle.random_oid(rng)))

    def _warm_up(self) -> None:
        """Exact and approx queries until lazy set-up work is done."""
        rng = rng_for(self.seed, self.name, "warmup")
        for _ in range(self.sizes.warmup_queries):
            query = self._near_duplicate(rng)
            self.db.knn_query(query, K_NN)
            self.db.knn_query(query, K_NN, mode="approx")

    def _fresh_dir(self, repetition: int) -> Path:
        """A new directory per set-up, so no set-up warms the next."""
        path = self.workdir / f"{self.name}-{repetition}"
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path


class PartSearch(Workload):
    """The paper's path on realistic data: a CAD part in, a 10-nn out."""

    name = "part_search"
    expected_hooks = frozenset(
        {
            "voxel.voxelize_solid",
            "normalize.process_grid",
            "features.extract",
            "index.ranking_chunks",
            "batch.match_many",
            "batch.cost_tensor",
            "batch.solve",
            "approx.sketch",
            "approx.shortlist",
            "approx.hamming",
            "approx.refine_subset",
        }
    )

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self._new: list = []
        self._new_keys: set[str] = set()
        self._chunks = 0
        self._resubmit: list[int] = []

    def _voxelize(self, part):
        from repro.voxel import voxelize

        # Resolved through the module at call time, where the traced
        # run's hook sits.
        return voxelize.voxelize_solid(
            part.solid, RESOLUTION, margin=MARGIN, keep_aspect=True
        )

    def setup(self, rec, repetition):
        from repro.db import SimilarityDatabase
        from repro.features.cache import FeatureCache
        from repro.features.vector_set_model import VectorSetModel
        from repro.pipeline import Pipeline

        root = self._fresh_dir(repetition)
        self.catalog = aircraft_parts(
            CATALOG_SEED, "catalog", self.sizes.catalog_parts
        )
        self.pipeline = Pipeline(resolution=RESOLUTION, margin=MARGIN)
        self.model = VectorSetModel(k=SET_K)
        self.cache = FeatureCache(root=root / "features")
        self.db = SimilarityDatabase(
            SET_K,
            backend="xtree",
            model=self.model,
            pipeline=self.pipeline,
            cache=self.cache,
        )
        stored = []
        ingest = []
        for oid, part in enumerate(self.catalog):
            rec.poll()
            start = time.perf_counter()
            grid = self._voxelize(part)
            added = time.perf_counter()
            stored.append(self.db.add_grid(oid, grid))
            done = time.perf_counter()
            ingest.append((start, done - start))
            self.setup_writes.append((added, done - added))
        self.ingest_spans.append(ingest)
        snapshot = self.db.save(root / "catalog.npz")
        self.disk_bytes_per_object = snapshot.stat().st_size / len(self.db)
        with rec.untimed():
            self.oracle = ScanOracle(SET_K, DIM)
            for oid, vectors in enumerate(stored):
                self.oracle.put(oid, vectors)
        for part in aircraft_parts(self.seed, "warmup", self.sizes.warmup_queries):
            vectors, _answer = self._part_query(part)
            self.db.knn_query(vectors, K_NN, mode="approx")

    def _next_new(self):
        """The next new design: an unmodified aircraft part whose
        normalized grid is neither in the feature cache nor among the
        designs already sent.  At r = 15 most fresh fasteners voxelize
        to a grid the catalog already holds, so the design stream is
        screened, untimed, rather than left to chance.  Like the
        catalog, the designs are a fixed dataset, sent in a fixed
        order: new designs vary widely in cost, and a per-seed draw of
        the few dozen a run sends would add their mix to the run-to-run
        spread of p90.  The seed draws which requests are new designs
        and which catalog parts the others re-submit."""
        from repro.features.cache import feature_cache_key

        while not self._new:
            tag = f"designs-{self._chunks}"
            self._chunks += 1
            for part in aircraft_parts(CATALOG_SEED, tag, 100):
                grid, _pose = self.pipeline.process_grid(self._voxelize(part))
                key = feature_cache_key(grid, self.model)
                if key in self._new_keys or self.cache.path_for(key).exists():
                    continue
                self._new_keys.add(key)
                self._new.append(part)
        return self._new.pop(0)

    def _next_resubmit(self):
        """The next catalog part to re-submit: the catalog in an order
        the seed shuffles afresh on every pass, so a run re-submits a
        spread of the catalog rather than a draw with repeats."""
        if not self._resubmit:
            self._resubmit = list(self.rng.permutation(len(self.catalog)))
        return self.catalog[int(self._resubmit.pop())]

    def _part_query(self, part):
        grid = self._voxelize(part)
        vectors = self.pipeline.features_for_grid(grid, self.model, cache=self.cache)
        return vectors, self.db.knn_query(vectors, K_NN)

    def draw(self):
        rng = self.rng
        if rng.random() < NEW_PART_SHARE:
            part = self._next_new()
        else:
            part = self._next_resubmit()
        return part, rng.random() < self.sizes.part_check_share

    def play(self, rec, tracer, step):
        """One part request, solid in and exact 10-nn out, then the
        approx 10-nn of the same extracted set."""
        part, check = step
        out = rec.op(tracer, "exact", lambda: self._part_query(part))
        if out is FAILED:
            return
        vectors, (exact, stats) = out
        note_query(tracer, "exact", exact, stats)
        approx = rec.op(
            tracer, "approx", lambda: self.db.knn_query(vectors, K_NN, mode="approx")
        )
        with rec.untimed():
            replay = rec.replayed(f"exact part {part.name}", exact)
            if approx is not FAILED:
                rec.replayed(f"approx part {part.name}", approx[0])
            if check and not replay:
                truth = self.oracle.knn(vectors, K_NN)
                rec.check(truth.check_exact(exact), f"exact part {part.name}")
                if approx is not FAILED:
                    problem = truth.check_approx(approx[0])
                    rec.check(problem, f"approx part {part.name}")
                    rec.recall.append(truth.recall(approx[0]))

    def cache_counts(self):
        return self.cache.hits, self.cache.hits + self.cache.misses

    def info(self):
        return {
            "catalog_parts": self.sizes.catalog_parts,
            "resolution": RESOLUTION,
            "set_k": SET_K,
            "backend": "xtree",
            "new_part_share": NEW_PART_SHARE,
            "oracle_sample_share": self.sizes.part_check_share,
        }


class CentroidDegenerate(Workload):
    """Every family shares one centroid: refine is nearly all the work."""

    name = "centroid_degenerate"
    setups_per_round = 3
    expected_hooks = frozenset(
        {
            "index.ranking_chunks",
            "batch.match_many",
            "batch.cost_tensor",
            "batch.solve",
            "approx.sketch",
            "approx.shortlist",
            "approx.hamming",
            "approx.refine_subset",
        }
    )

    def setup(self, rec, repetition):
        from repro.db import SimilarityDatabase

        root = self._fresh_dir(repetition)
        corpus_rng = rng_for(CATALOG_SEED, self.name, "corpus")
        families = SetFamilies(corpus_rng, degenerate=True)
        sets = families.corpus(corpus_rng, self.sizes.degenerate_n)
        self.db = SimilarityDatabase(SET_K, backend="xtree")
        ingest = []
        for oid, vectors in enumerate(sets):
            rec.poll()
            start = time.perf_counter()
            self.db.add(oid, vectors)
            ingest.append((start, time.perf_counter() - start))
        self.ingest_spans.append(ingest)
        self.setup_writes.extend(ingest)
        snapshot = self.db.save(root / "catalog.npz")
        self.disk_bytes_per_object = snapshot.stat().st_size / len(self.db)
        with rec.untimed():
            self.oracle = ScanOracle(SET_K, DIM)
            for oid, vectors in enumerate(sets):
                self.oracle.put(oid, vectors)
        self._warm_up()

    def draw(self):
        rng = self.rng
        query = self._near_duplicate(rng)
        return query, ("exact", "approx") if rng.random() < 0.5 else ("approx", "exact")

    def play(self, rec, tracer, step):
        query, modes = step
        db = self.db
        answers = {}
        for mode in modes:
            out = rec.op(tracer, mode, lambda: db.knn_query(query, K_NN, mode=mode))
            if out is not FAILED:
                answers[mode] = out
                note_query(tracer, mode, *out)
        with rec.untimed():
            replay = [rec.replayed(f"{m} query", answers[m][0]) for m in answers]
            if any(replay):
                return
            truth = self.oracle.knn(query, K_NN)
            if "exact" in answers:
                rec.check(truth.check_exact(answers["exact"][0]), "exact query")
            if "approx" in answers:
                rec.check(truth.check_approx(answers["approx"][0]), "approx query")
                rec.recall.append(truth.recall(answers["approx"][0]))

    def info(self):
        return {
            "objects": self.sizes.degenerate_n,
            "set_k": SET_K,
            "dim": DIM,
            "backend": "xtree",
            "oracle_sample_share": 1.0,
        }


class CatalogChurn(Workload):
    """Writes beside reads on a durable two-shard database."""

    name = "catalog_churn"
    setups_per_round = 2
    expected_hooks = frozenset(
        {
            "index.ranking_chunks",
            "index.insert",
            "index.delete",
            "index.densify",
            "queries.engine_build",
            "batch.match_many",
            "batch.cost_tensor",
            "batch.solve",
            "approx.sketch",
            "approx.hamming",
            "approx.refine_subset",
            "wal.append",
            "db.checkpoint",
            "db.write_archive",
            "sharded.query",
            "sharded.leg",
            "sharded.merge_matches",
            "sharded.merge_stats",
        }
    )
    #: One block of the operation mix, shuffled afresh for every block:
    #: 20% writes, 40% exact and 40% approx queries.  Adds and removes
    #: balance within a block, so the catalog size never drifts.  About
    #: a fifth of the queries follow a write and pay the rebuild, which
    #: keeps p50 among the queries that do not and p90 among those that
    #: do, rather than on the boundary between the two.
    BLOCK = ("add", "remove") + ("update",) * 2 + ("exact",) * 8 + ("approx",) * 8

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.ops = 0
        self._block: list[str] = []
        self.db = None

    def setup(self, rec, repetition):
        from repro.db import ShardedSimilarityDatabase

        if self.db is not None:
            self.db.close()
        root = self._fresh_dir(repetition)
        corpus_rng = rng_for(CATALOG_SEED, self.name, "corpus")
        self.families = SetFamilies(corpus_rng, degenerate=False)
        sets = self.families.corpus(corpus_rng, self.sizes.churn_n)
        self.path = root / "db"
        self.db = ShardedSimilarityDatabase(
            SET_K,
            shards=SHARDS,
            backend="xtree",
            durable=True,
            path=self.path,
            fsync=FSYNC,
        )
        ingest = []
        for oid, vectors in enumerate(sets):
            rec.poll()
            start = time.perf_counter()
            self.db.add(oid, vectors)
            ingest.append((start, time.perf_counter() - start))
        self.ingest_spans.append(ingest)
        self.setup_writes.extend(ingest)
        self.next_oid = len(sets)
        self.db.checkpoint()
        self.disk_bytes_per_object = dir_bytes(self.path) / len(sets)
        with rec.untimed():
            self.oracle = ScanOracle(SET_K, DIM)
            for oid, vectors in enumerate(sets):
                self.oracle.put(oid, vectors)
        self._warm_up()

    def _choose(self, rng) -> str:
        self.ops += 1
        if self.ops % self.sizes.checkpoint_every == 0:
            return "checkpoint"
        if not self._block:
            self._block = list(rng.permutation(self.BLOCK))
        return str(self._block.pop())

    def draw(self):
        rng = self.rng
        kind = self._choose(rng)
        oid = self.oracle.random_oid(rng)
        vectors = query = None
        check = False
        if kind == "add":
            oid = self.next_oid
            self.next_oid += 1
        if kind in ("add", "update"):
            vectors = self.families.draw(rng)
        elif kind in ("exact", "approx"):
            query = near_duplicate(rng, self.oracle.get(oid))
            check = rng.random() < self.sizes.churn_check_share
        return kind, oid, vectors, query, check

    def play(self, rec, tracer, step):
        kind, oid, vectors, query, check = step
        db = self.db
        if kind == "checkpoint":
            if rec.op(tracer, "checkpoint", db.checkpoint) is not FAILED:
                with rec.untimed():
                    self.disk_bytes_per_object = dir_bytes(self.path) / len(self.oracle)
            return
        if kind in ("add", "update"):
            write = db.add if kind == "add" else db.update
            if rec.op(tracer, "write", lambda: write(oid, vectors)) is not FAILED:
                with rec.untimed():
                    self.oracle.put(oid, vectors)
            return
        if kind == "remove":
            removed = rec.op(tracer, "write", lambda: db.remove(oid))
            if removed is not FAILED:
                with rec.untimed():
                    self.oracle.remove(oid)
                rec.check(None if removed else "no object removed", f"remove {oid}")
            return
        out = rec.op(tracer, kind, lambda: db.knn_query(query, K_NN, mode=kind))
        if out is FAILED:
            return
        results, stats = out
        note_query(tracer, kind, results, stats)
        with rec.untimed():
            replay = rec.replayed(f"{kind} query", results)
        if check and not replay:
            with rec.untimed():
                truth = self.oracle.knn(query, K_NN)
                if kind == "exact":
                    rec.check(truth.check_exact(results), "exact query")
                else:
                    rec.check(truth.check_approx(results), "approx query")
                    rec.recall.append(truth.recall(results))

    def finish(self, rec):
        """Recover without a final checkpoint; every acknowledged write
        must be there and nothing else.  Each object compared is one
        attempted check, each lost, extra or changed one a failure."""
        from repro.db import open_database

        self.db.close()
        reopened = open_database(self.path)
        try:
            live = set(self.oracle.oids())
            found = set(reopened.object_ids())
            for oid in sorted(live | found):
                rec.attempted += 1
                if oid not in found:
                    rec.fail(f"recovery lost object {oid}")
                elif oid not in live:
                    rec.fail(f"recovery holds unacknowledged object {oid}")
                elif not np.array_equal(reopened.get(oid), self.oracle.get(oid)):
                    rec.fail(f"recovery changed object {oid}")
        finally:
            reopened.close()

    def info(self):
        return {
            "objects": self.sizes.churn_n,
            "shards": SHARDS,
            "set_k": SET_K,
            "dim": DIM,
            "backend": "xtree",
            "fsync": FSYNC,
            "checkpoint_every_ops": self.sizes.checkpoint_every,
            "mix_block": {k: self.BLOCK.count(k) for k in sorted(set(self.BLOCK))},
            "oracle_sample_share": self.sizes.churn_check_share,
        }


WORKLOADS = {w.name: w for w in (PartSearch, CentroidDegenerate, CatalogChurn)}
