"""Durability acceptance tests: WAL-backed databases, the recovery
ladder, crash-point injection (in-process), and `repro db verify`.

The two headline guarantees from the issue:

* a durable database recovered after a crash at ANY registered crash
  point equals a fresh build over the mutations that survived in the
  log — never fewer than the acknowledged ones under ``fsync=always``;
* deliberately corrupting the newest snapshot generation degrades to
  the previous generation + a longer WAL replay (observable through
  the ``db.recovery.fallbacks`` counter), never a crash or a silent
  wrong answer.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.db import BACKENDS, SimilarityDatabase
from repro.exceptions import (
    LockTimeout,
    QueryError,
    SnapshotIntegrityError,
    StorageError,
)
from repro.testing.faults import (
    CRASH_POINTS,
    InjectedCrash,
    armed_crash_point,
    corrupt_bytes,
    tamper_npz_array,
)

CAPACITY = 3
DIM = 3

# The crash points a single-database mutation plan can reach;
# "between-shard-checkpoints" fires only inside the sharded
# checkpoint walk (covered by tests/test_sharded_crash.py).
SINGLE_DB_POINTS = tuple(
    p for p in CRASH_POINTS if p != "between-shard-checkpoints"
)


@contextmanager
def capture_metrics():
    reg = obs.registry()
    reg.reset()
    obs.enable()
    try:
        yield reg
    finally:
        reg.reset()
        obs.disable()


def rand_set(rng):
    return rng.integers(-8, 9, size=(int(rng.integers(1, CAPACITY + 1)), DIM)).astype(
        float
    )


def make_plan(rng, n=18):
    """A deterministic interleaved mutation plan with checkpoints and a
    compaction, expressed as replayable (op, oid, array) tuples."""
    plan, live, oid = [], set(), 0
    for step in range(n):
        plan.append(("add", oid, rand_set(rng)))
        live.add(oid)
        oid += 1
        if step % 5 == 3 and live:
            victim = int(rng.choice(sorted(live)))
            plan.append(("remove", victim, None))
            live.discard(victim)
        if step % 7 == 5 and live:
            target = int(rng.choice(sorted(live)))
            plan.append(("update", target, rand_set(rng)))
        if step == n // 2:
            plan.append(("checkpoint", None, None))
        if step == n - 3:
            plan.append(("compact", None, None))
    return plan


def apply_step(db, step) -> None:
    op, oid, arr = step
    if op == "add":
        db.add(oid, arr)
    elif op == "remove":
        db.remove(oid)
    elif op == "update":
        db.update(oid, arr)
    elif op == "compact":
        db.compact()
    elif op == "checkpoint":
        db.checkpoint()


def fresh_build(plan, backend):
    db = SimilarityDatabase(CAPACITY, backend=backend)
    for step in plan:
        if step[0] != "checkpoint":
            apply_step(db, step)
    return db


def assert_equivalent(recovered, reference, rng):
    assert sorted(recovered._sets) == sorted(reference._sets)
    for oid in reference._sets:
        np.testing.assert_array_equal(recovered._sets[oid], reference._sets[oid])
    for _ in range(3):
        query = rand_set(rng)
        got, _ = recovered.knn_query(query, 5)
        expected, _ = reference.knn_query(query, 5)
        assert [(m.object_id, m.distance) for m in got] == [
            (m.object_id, m.distance) for m in expected
        ]
        got_r, _ = recovered.range_query(query, 6.0)
        expected_r, _ = reference.range_query(query, 6.0)
        assert [(m.object_id, m.distance) for m in got_r] == [
            (m.object_id, m.distance) for m in expected_r
        ]


def matches_some_prefix(recovered, plan, backend, floor, rng) -> bool:
    """True iff *recovered* equals a fresh build over plan[:M] for some
    M >= floor — the crash-consistency contract: at least everything
    acknowledged, at most everything attempted."""
    for upto in range(floor, len(plan) + 1):
        reference = fresh_build(plan[:upto], backend)
        if sorted(recovered._sets) != sorted(reference._sets):
            continue
        if all(
            np.array_equal(recovered._sets[oid], reference._sets[oid])
            for oid in reference._sets
        ):
            assert_equivalent(recovered, reference, rng)
            return True
    return False


class TestDurableRoundtrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovery_equals_fresh_build(self, backend, tmp_path, rng):
        plan = make_plan(rng)
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(
            CAPACITY, backend=backend, durable=True, path=dbdir
        )
        for step in plan:
            apply_step(db, step)
        db.close()
        recovered = SimilarityDatabase.load(dbdir)
        assert recovered.durable and recovered.last_recovery is not None
        assert not recovered.last_recovery.degraded
        assert_equivalent(recovered, fresh_build(plan, backend), rng)
        recovered.close()

    def test_recovery_without_any_checkpoint(self, tmp_path, rng):
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        sets = {oid: rand_set(rng) for oid in range(8)}
        for oid, arr in sets.items():
            db.add(oid, arr)
        db.close()
        recovered = SimilarityDatabase.load(dbdir)
        assert recovered.last_recovery.used_generation == 0
        assert recovered.last_recovery.replayed_records == 8
        assert sorted(recovered._sets) == sorted(sets)
        recovered.close()

    def test_mutations_after_recovery_are_durable(self, tmp_path, rng):
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        db.add(0, rand_set(rng))
        db.close()
        second = SimilarityDatabase.load(dbdir)
        second.add(1, rand_set(rng))
        second.close()
        third = SimilarityDatabase.load(dbdir)
        assert sorted(third._sets) == [0, 1]
        third.close()

    def test_checkpoint_rotates_and_retires(self, tmp_path, rng):
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(
            CAPACITY, durable=True, path=dbdir, keep_generations=2
        )
        for generation in range(4):
            db.add(generation, rand_set(rng))
            db.checkpoint()
        assert db.generation == 4
        snapshots = sorted(p.name for p in dbdir.glob("snapshot-*.npz"))
        segments = sorted(p.name for p in dbdir.glob("wal-*.log"))
        assert snapshots == ["snapshot-00000003.npz", "snapshot-00000004.npz"]
        assert segments == ["wal-00000003.log", "wal-00000004.log"]
        db.close()
        recovered = SimilarityDatabase.load(dbdir)
        assert sorted(recovered._sets) == [0, 1, 2, 3]
        recovered.close()

    def test_durable_save_is_checkpoint_and_export_still_works(
        self, tmp_path, rng
    ):
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        db.add(0, rand_set(rng))
        db.save()  # no path: checkpoint
        assert db.generation == 1
        export = tmp_path / "export.npz"
        db.save(export)  # foreign path: plain archive export
        assert db.generation == 1
        db.close()
        exported = SimilarityDatabase.load(export)
        assert not exported.durable
        assert sorted(exported._sets) == [0]

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(QueryError, match="needs a directory path"):
            SimilarityDatabase(CAPACITY, durable=True)
        with pytest.raises(QueryError, match="only meaningful"):
            SimilarityDatabase(CAPACITY, path=tmp_path / "x")
        SimilarityDatabase(CAPACITY, durable=True, path=tmp_path / "db").close()
        with pytest.raises(StorageError, match="already holds"):
            SimilarityDatabase(CAPACITY, durable=True, path=tmp_path / "db")


class TestLegacySolverKey:
    """Layouts written while the database still took a ``solver=``
    argument carry ``"solver": "lockstep"`` in the durable config and
    in every archive's metadata; they must open and answer exactly like
    a fresh build, and new writes must not carry the key."""

    @pytest.fixture
    def legacy_writes(self, monkeypatch):
        snapshot_state = SimilarityDatabase._snapshot_state
        durable_config = SimilarityDatabase._durable_config

        def legacy_snapshot(self):
            meta, arrays = snapshot_state(self)
            return {**meta, "solver": "lockstep"}, arrays

        def legacy_config(self):
            return {**durable_config(self), "solver": "lockstep"}

        monkeypatch.setattr(SimilarityDatabase, "_snapshot_state", legacy_snapshot)
        monkeypatch.setattr(SimilarityDatabase, "_durable_config", legacy_config)
        return monkeypatch

    def test_reopens_legacy_durable_dir_and_archive(
        self, legacy_writes, tmp_path, rng
    ):
        plan = make_plan(rng)
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        for step in plan:
            apply_step(db, step)
        db.close()
        archive = tmp_path / "legacy.npz"
        fresh_build(plan, "xtree").save(archive)
        legacy_writes.undo()

        from repro.db.core import DB_FORMAT
        from repro.index.snapshot import read_archive

        config = json.loads((dbdir / "durable.json").read_text())
        assert config["solver"] == "lockstep"
        assert read_archive(archive, DB_FORMAT)[0]["solver"] == "lockstep"
        reference = fresh_build(plan, "xtree")
        loaded = SimilarityDatabase.load(archive)
        assert_equivalent(loaded, reference, rng)
        assert "solver" not in loaded._snapshot_state()[0]
        recovered = SimilarityDatabase.load(dbdir)
        assert not recovered.last_recovery.degraded
        assert_equivalent(recovered, reference, rng)
        recovered.checkpoint()
        recovered.close()
        assert "solver" not in SimilarityDatabase(CAPACITY)._durable_config()


class TestRecoveryLadder:
    def _build(self, dbdir, rng, backend="xtree"):
        plan = make_plan(rng)
        db = SimilarityDatabase(
            CAPACITY, backend=backend, durable=True, path=dbdir,
            keep_generations=3,
        )
        for step in plan:
            apply_step(db, step)
        db.checkpoint()
        db.add(900, rand_set(rng))  # tail mutation beyond the last snapshot
        plan.append(("add", 900, db._sets[900]))
        db.close()
        return plan

    def test_corrupt_newest_snapshot_falls_back_one_generation(
        self, tmp_path, rng
    ):
        dbdir = tmp_path / "db"
        plan = self._build(dbdir, rng)
        newest = sorted(dbdir.glob("snapshot-*.npz"))[-1]
        corrupt_bytes(newest, 100, 64)
        with capture_metrics() as reg:
            recovered = SimilarityDatabase.load(dbdir)
            assert reg.counter("db.recovery.fallbacks").value == 1
            assert reg.counter("db.recovery.degraded").value == 1
        report = recovered.last_recovery
        assert report.degraded and report.fallbacks == 1
        assert report.used_generation == report.requested_generation - 1
        assert report.failures  # the ladder names what it skipped
        assert_equivalent(recovered, fresh_build(plan, "xtree"), rng)
        recovered.close()

    def test_all_snapshots_corrupt_replays_full_wal_from_empty(
        self, tmp_path, rng
    ):
        dbdir = tmp_path / "db"
        plan = self._build(dbdir, rng)
        for snapshot in dbdir.glob("snapshot-*.npz"):
            corrupt_bytes(snapshot, 100, 64)
        with capture_metrics() as reg:
            recovered = SimilarityDatabase.load(dbdir)
            assert reg.counter("db.recovery.fallbacks").value == 2
        assert recovered.last_recovery.used_generation == 0
        assert_equivalent(recovered, fresh_build(plan, "xtree"), rng)
        recovered.close()

    def test_unrecoverable_without_source_raises(self, tmp_path, rng):
        dbdir = tmp_path / "db"
        self._build(dbdir, rng)
        for snapshot in dbdir.glob("snapshot-*.npz"):
            corrupt_bytes(snapshot, 100, 64)
        # Retire the early WAL chain: the empty-base rung is now
        # impossible and no ObjectDatabase source is configured.
        (dbdir / "wal-00000000.log").unlink()
        with pytest.raises(StorageError, match="recovery impossible"):
            SimilarityDatabase.load(dbdir)

    def test_recovered_db_keeps_serving_after_degraded_load(
        self, tmp_path, rng
    ):
        dbdir = tmp_path / "db"
        self._build(dbdir, rng)
        newest = sorted(dbdir.glob("snapshot-*.npz"))[-1]
        corrupt_bytes(newest, 100, 64)
        recovered = SimilarityDatabase.load(dbdir)
        recovered.add(901, rand_set(rng))
        recovered.checkpoint()  # re-establishes a clean generation
        recovered.close()
        healed = SimilarityDatabase.load(dbdir)
        assert not healed.last_recovery.degraded
        assert 901 in healed
        healed.close()


class TestSourceRebuild:
    def test_last_rung_rebuilds_from_object_database(self, tmp_path):
        from repro.features.vector_set_model import VectorSetModel
        from repro.geometry.sdf import Box, Sphere
        from repro.io.database import ObjectDatabase, StoredObject
        from repro.pipeline import Pipeline

        # A tiny real ingest: two solids -> ObjectDatabase with features.
        model = VectorSetModel(k=CAPACITY)
        pipeline = Pipeline(resolution=10)
        odb = ObjectDatabase()
        features = []
        for name, solid in [
            ("box", Box(size=(2.0, 1.0, 0.5))),
            ("ball", Sphere(radius=1.0)),
        ]:
            grid, pose = pipeline.process_solid(solid)
            odb.add(StoredObject(name=name, family="f", class_id=0,
                                 grid=grid, pose=pose))
            features.append(model.extract(grid))
        odb.set_features(f"vector-set(k={CAPACITY})", features)
        source = tmp_path / "objects.npz"
        odb.save(source)

        dbdir = tmp_path / "db"
        db = SimilarityDatabase(
            CAPACITY, durable=True, path=dbdir, source=source
        )
        db.add(0, features[0])
        db.checkpoint()
        db.close()
        # Destroy every snapshot AND the early WAL chain.
        for snapshot in dbdir.glob("snapshot-*.npz"):
            corrupt_bytes(snapshot, 100, 64)
        (dbdir / "wal-00000000.log").unlink()
        with capture_metrics() as reg:
            recovered = SimilarityDatabase.load(dbdir)
            assert reg.counter("db.recovery.source_rebuilds").value == 1
        assert recovered.last_recovery.source_rebuild
        assert recovered.last_recovery.degraded
        assert len(recovered) == 2
        # The rebuilt state is itself durable: a plain reload works.
        recovered.close()
        again = SimilarityDatabase.load(dbdir)
        assert len(again) == 2
        again.close()


class TestInProcessCrashPoints:
    """Every registered crash point, simulated in-process: the crashed
    database object is abandoned mid-flight and recovery runs from
    whatever reached the disk."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("point", SINGLE_DB_POINTS)
    def test_recovery_from_crash_point(self, point, backend, tmp_path, rng):
        plan = make_plan(rng)
        dbdir = tmp_path / f"db-{point}-{backend}"
        db = SimilarityDatabase(
            CAPACITY, backend=backend, durable=True, path=dbdir
        )
        acknowledged = 0
        crashed = False
        with armed_crash_point(point, at=3 if point == "after-wal-append" else 1):
            try:
                for step in plan:
                    apply_step(db, step)
                    acknowledged += 1
            except InjectedCrash:
                crashed = True
        assert crashed, f"plan never reached crash point {point}"
        del db
        gc.collect()  # drop the crashed process's file handles
        recovered = SimilarityDatabase.load(dbdir)
        state_plan = [s for s in plan if s[0] != "checkpoint"]
        acked_state = len(
            [s for s in plan[:acknowledged] if s[0] != "checkpoint"]
        )
        assert matches_some_prefix(
            recovered, state_plan, backend, acked_state, rng
        ), f"recovered state matches no acknowledged-or-later prefix ({point})"
        recovered.close()

    def test_crash_before_first_checkpoint_swap_keeps_generation(
        self, tmp_path, rng
    ):
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        db.add(0, rand_set(rng))
        with armed_crash_point("mid-checkpoint-swap"):
            with pytest.raises(InjectedCrash):
                db.checkpoint()
        del db
        gc.collect()
        recovered = SimilarityDatabase.load(dbdir)
        # CURRENT was never republished: still generation 0, state intact.
        assert recovered.last_recovery.requested_generation == 0
        assert sorted(recovered._sets) == [0]
        recovered.checkpoint()
        assert recovered.generation == 1
        recovered.close()


class TestSnapshotIntegrityErrors:
    def test_crc_error_names_offending_member(self, tmp_path, rng):
        db = SimilarityDatabase(CAPACITY)
        for oid in range(6):
            db.add(oid, rand_set(rng))
        path = tmp_path / "db.npz"
        db.save(path)
        tamper_npz_array(path, "index__entry_lowers")
        with pytest.raises(SnapshotIntegrityError) as excinfo:
            SimilarityDatabase.load(path)
        assert excinfo.value.member == "index__entry_lowers"
        assert "index entry-table array 'entry_lowers'" in str(excinfo.value)
        assert "checksum mismatch" in str(excinfo.value)

    def test_object_store_member_is_classified(self, tmp_path, rng):
        db = SimilarityDatabase(CAPACITY)
        db.add(0, rand_set(rng))
        path = tmp_path / "db.npz"
        db.save(path)
        tamper_npz_array(path, "set_data")
        with pytest.raises(SnapshotIntegrityError, match="object-store column 'set_data'"):
            SimilarityDatabase.load(path)


class TestLockTimeout:
    def test_write_timeout_while_reader_holds(self):
        import threading

        from repro.concurrency import RWLock

        lock = RWLock()
        entered, release = threading.Event(), threading.Event()

        def reader():
            with lock.read():
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=reader)
        thread.start()
        assert entered.wait(5)
        try:
            with pytest.raises(LockTimeout, match="write lock"):
                with lock.write(timeout=0.05):
                    pass
            # The withdrawn writer claim must not strand new readers.
            with lock.read(timeout=1.0):
                pass
        finally:
            release.set()
            thread.join()

    def test_read_timeout_while_writer_holds(self):
        import threading

        from repro.concurrency import RWLock

        lock = RWLock()
        entered, release = threading.Event(), threading.Event()

        def writer():
            with lock.write():
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=writer)
        thread.start()
        assert entered.wait(5)
        try:
            with pytest.raises(LockTimeout, match="read lock"):
                with lock.read(timeout=0.05):
                    pass
        finally:
            release.set()
            thread.join()

    def test_database_lock_timeout_plumbing(self, rng):
        import threading

        db = SimilarityDatabase(CAPACITY, lock_timeout=0.05)
        db.add(0, rand_set(rng))
        entered, release = threading.Event(), threading.Event()

        def wedged_writer():
            with db._lock.write():
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=wedged_writer)
        thread.start()
        assert entered.wait(5)
        try:
            with pytest.raises(LockTimeout):
                db.knn_query(rand_set(rng), 1)
            with pytest.raises(LockTimeout):
                db.add(1, rand_set(rng))
        finally:
            release.set()
            thread.join()
        # After the writer releases, everything proceeds again.
        db.add(1, rand_set(rng))
        assert len(db) == 2


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402


class TestDurabilityProperties:
    """Hypothesis properties over randomized mutation plans.

    Plans are derived from a drawn seed (not drawn element-wise) so
    hypothesis shrinks over two small integers while the plan itself
    keeps the realistic interleaving that ``make_plan`` produces.
    """

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 14))
    def test_wal_replay_is_idempotent(self, seed, n):
        import shutil
        import tempfile

        from repro.wal import replay

        rng = np.random.default_rng(seed)
        plan = make_plan(rng, n=n)
        root = Path(tempfile.mkdtemp(prefix="repro-idem-"))
        try:
            dbdir = root / "db"
            db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
            for step in plan:
                apply_step(db, step)
            db.close()
            recovered = SimilarityDatabase.load(dbdir)
            before = {
                oid: arr.copy() for oid, arr in recovered._sets.items()
            }
            # Replay the whole surviving chain a second time: the
            # recovered state must not move.
            recovered._replaying = True
            try:
                for segment in sorted(dbdir.glob("wal-*.log")):
                    for record in replay(segment):
                        recovered._apply_replay(record)
            finally:
                recovered._replaying = False
            assert sorted(recovered._sets) == sorted(before)
            for oid, arr in before.items():
                np.testing.assert_array_equal(recovered._sets[oid], arr)
            query = rand_set(rng)
            reference = fresh_build(plan, "xtree")
            got, _ = recovered.knn_query(query, 4)
            expected, _ = reference.knn_query(query, 4)
            assert [(m.object_id, m.distance) for m in got] == [
                (m.object_id, m.distance) for m in expected
            ]
            recovered.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @pytest.mark.parametrize("point", SINGLE_DB_POINTS)
    @given(seed=st.integers(0, 2**32 - 1), hit=st.integers(1, 6))
    def test_recovery_from_any_crash_point_matches_acknowledged_prefix(
        self, point, seed, hit
    ):
        import shutil
        import tempfile

        rng = np.random.default_rng(seed)
        plan = make_plan(rng)
        root = Path(tempfile.mkdtemp(prefix="repro-crash-"))
        try:
            dbdir = root / "db"
            db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
            acknowledged = 0
            crashed = False
            with armed_crash_point(
                point, at=hit if point == "after-wal-append" else 1
            ):
                try:
                    for step in plan:
                        apply_step(db, step)
                        acknowledged += 1
                except InjectedCrash:
                    crashed = True
            del db
            gc.collect()
            if not crashed:
                return  # plan too short to reach the armed hit: vacuous
            recovered = SimilarityDatabase.load(dbdir)
            state_plan = [s for s in plan if s[0] != "checkpoint"]
            acked_state = len(
                [s for s in plan[:acknowledged] if s[0] != "checkpoint"]
            )
            assert matches_some_prefix(
                recovered, state_plan, "xtree", acked_state, rng
            ), f"no acknowledged-or-later prefix matches ({point}, seed={seed})"
            recovered.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)


class TestVerifyCommand:
    def _populated(self, dbdir, rng):
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        for oid in range(6):
            db.add(oid, rand_set(rng))
        db.checkpoint()
        db.add(6, rand_set(rng))
        db.close()

    def test_verify_ok(self, tmp_path, rng, capsys):
        from repro.cli import main

        dbdir = tmp_path / "db"
        self._populated(dbdir, rng)
        assert main(["db", "verify", str(dbdir)]) == 0
        assert "verify: ok" in capsys.readouterr().out

    def test_verify_degraded(self, tmp_path, rng, capsys):
        from repro.cli import main

        dbdir = tmp_path / "db"
        self._populated(dbdir, rng)
        corrupt_bytes(sorted(dbdir.glob("snapshot-*.npz"))[-1], 100, 64)
        assert main(["db", "verify", str(dbdir)]) == 3
        captured = capsys.readouterr()
        assert "degraded" in captured.err
        assert "recovered with degradation" in captured.out

    def test_verify_corrupt(self, tmp_path, rng, capsys):
        from repro.cli import main

        dbdir = tmp_path / "db"
        self._populated(dbdir, rng)
        for snapshot in dbdir.glob("snapshot-*.npz"):
            corrupt_bytes(snapshot, 100, 64)
        (dbdir / "wal-00000000.log").unlink()
        assert main(["db", "verify", str(dbdir)]) == 1
        assert "verify: corrupt" in capsys.readouterr().err

    def test_verify_snapshot_file(self, tmp_path, rng, capsys):
        from repro.cli import main

        db = SimilarityDatabase(CAPACITY)
        db.add(0, rand_set(rng))
        path = tmp_path / "db.npz"
        db.save(path)
        assert main(["db", "verify", str(path)]) == 0
        tamper_npz_array(path, "set_data")
        assert main(["db", "verify", str(path)]) == 1
        assert "object-store column" in capsys.readouterr().err

    def test_verify_not_a_database(self, tmp_path):
        from repro.cli import main

        bogus = tmp_path / "bogus"
        bogus.mkdir()
        assert main(["db", "verify", str(bogus)]) == 1
