"""The wide-event query log (``repro.obs.querylog``).

The acceptance bar for the telemetry layer: every ``query`` wide event
agrees *field-for-field* with the ``QueryStats`` the caller got back —
across all four backends and both exact/approx modes — slow-query
capture fires deterministically above the threshold, and sampling is a
reproducible (seedless, accumulator-based) pattern, never a coin flip.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.db import BACKENDS, SimilarityDatabase
from repro.obs import querylog


@pytest.fixture(autouse=True)
def clean_obs():
    obs.close_sink()
    obs.registry().reset()
    obs.disable()
    querylog.reset()
    yield
    obs.close_sink()
    obs.registry().reset()
    obs.disable()
    querylog.reset()


@pytest.fixture
def enabled(tmp_path):
    trace = tmp_path / "trace.jsonl"
    obs.enable()
    obs.configure_sink(trace)
    yield trace
    obs.close_sink()


def query_events(trace):
    obs.close_sink()
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    return [r for r in records if r["event"] == "query"]


def make_db(backend, rng, count=24, dim=6):
    db = SimilarityDatabase(capacity=5, backend=backend)
    sets = [
        rng.normal(size=(int(rng.integers(1, 6)), dim)) for _ in range(count)
    ]
    for oid, vectors in enumerate(sets):
        db.add(oid, vectors)
    return db, sets


class TestExactness:
    """Wide events mirror the returned QueryStats, on every path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_knn_event_agrees_with_stats(self, enabled, rng, backend, mode):
        db, sets = make_db(backend, rng)
        kwargs = {"mode": mode, "shortlist": 10} if mode == "approx" else {}
        _, stats = db.knn_query(sets[0], 3, **kwargs)
        events = query_events(enabled)
        assert len(events) == 1
        event = events[0]
        # Field-for-field agreement with what the caller got back.
        for key, value in stats.as_dict().items():
            assert event[key] == value, key
        assert event["selectivity"] == stats.exact_computations / len(db)
        # Context fields stamped by the database layer.
        assert event["backend"] == backend
        assert event["mode"] == mode
        assert event["db_version"] == db.version
        # IO baselines became per-query deltas.
        assert event["io_pages"] >= 0 and event["io_bytes"] >= 0
        expected_kind = {
            ("exact", True): "mtree_knn",
            ("exact", False): "knn",
            ("approx", True): "approx_knn",
            ("approx", False): "approx_knn",
        }[(mode, backend == "mtree")]
        assert event["kind"] == expected_kind

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_range_event_agrees_with_stats(self, enabled, rng, backend):
        db, sets = make_db(backend, rng)
        _, stats = db.range_query(sets[0], 2.0)
        events = query_events(enabled)
        assert len(events) == 1
        event = events[0]
        for key, value in stats.as_dict().items():
            assert event[key] == value, key
        assert event["kind"] == ("mtree_range" if backend == "mtree" else "range")
        assert event["epsilon"] == 2.0
        assert event["backend"] == backend and event["mode"] == "exact"

    def test_phase_timings_decompose_total(self, enabled, rng):
        db, sets = make_db("xtree", rng)
        db.knn_query(sets[0], 3)
        (event,) = query_events(enabled)
        assert event["seconds"] >= event["refine_seconds"] >= 0.0
        assert event["filter_seconds"] >= 0.0
        assert event["filter_seconds"] == pytest.approx(
            event["seconds"] - event["refine_seconds"]
        )
        assert event["blocks"] >= 1

    def test_approx_total_includes_shortlist_phase(self, enabled, rng):
        db, sets = make_db("rstar", rng)
        db.knn_query(sets[0], 3, mode="approx", shortlist=10)
        (event,) = query_events(enabled)
        # In approx mode the filter phase is the measured sketch +
        # Hamming shortlist; the total is filter + refine by definition.
        assert event["seconds"] == pytest.approx(
            event["filter_seconds"] + event["refine_seconds"]
        )
        assert event["budget"] == 10
        assert event["shortlist_size"] <= 10

    def test_disabled_mode_emits_and_counts_nothing(self, rng):
        db, sets = make_db("xtree", rng)
        db.knn_query(sets[0], 3)
        snap = obs.registry().snapshot()
        assert snap["counters"] == {} and snap["events"] == []


class TestSlowCapture:
    def test_slow_capture_fires_deterministically(self, enabled, rng):
        # Rate 0 drops everything — except the slow path, which at a
        # 0 ms threshold always fires (every query takes >= 0 ms).
        querylog.configure(sample_rate=0.0, slow_ms=0.0)
        db, sets = make_db("xtree", rng)
        _, stats = db.knn_query(sets[0], 3)
        (event,) = query_events(enabled)
        assert event["slow"] is True
        explain = event["explain"]
        assert explain["slow_ms_threshold"] == 0.0
        assert explain["sample_rate"] == 0.0
        assert set(explain["phases"]) == {"filter_seconds", "refine_seconds"}
        assert explain["pruning_power"] == stats.pruned / len(db)
        assert explain["overshoot"] == stats.extra_refinements
        assert obs.registry().counter("querylog.slow").value == 1

    def test_fast_queries_not_slow_under_high_threshold(self, enabled, rng):
        querylog.configure(sample_rate=1.0, slow_ms=60_000.0)
        db, sets = make_db("xtree", rng)
        db.knn_query(sets[0], 3)
        (event,) = query_events(enabled)
        assert "slow" not in event and "explain" not in event
        assert obs.registry().counter("querylog.slow").value == 0


class TestSampling:
    def test_half_rate_logs_exactly_half(self, enabled, rng):
        querylog.configure(sample_rate=0.5)
        db, sets = make_db("scan", rng, count=12)
        for i in range(10):
            db.knn_query(sets[i], 3)
        events = query_events(enabled)
        assert len(events) == 5
        reg = obs.registry()
        assert reg.counter("querylog.sampled").value == 5
        assert reg.counter("querylog.dropped").value == 5
        # Counters are never sampled: all ten queries are accounted.
        assert reg.counter("query.count").value == 10

    def test_sampling_pattern_is_reproducible(self):
        def pattern():
            querylog.configure(sample_rate=0.3)
            return [querylog._should_sample() for _ in range(20)]

        first, second = pattern(), pattern()
        assert first == second
        # ~20 * 0.3 samples; the exact count depends on float
        # accumulation but never varies between runs.
        assert 5 <= sum(first) <= 6

    def test_configure_validates(self):
        with pytest.raises(ValueError):
            querylog.configure(sample_rate=1.5)
        with pytest.raises(ValueError):
            querylog.configure(slow_ms=-1.0)


class TestContext:
    def test_inner_frames_win(self):
        with querylog.query_context(mode="exact", backend="xtree"):
            with querylog.query_context(mode="approx"):
                merged = querylog.current_context()
                assert merged == {"mode": "approx", "backend": "xtree"}
            assert querylog.current_context()["mode"] == "exact"
        assert querylog.current_context() == {}

    def test_filter_override_arithmetic(self, enabled):
        with querylog.query_context(filter_seconds=0.25):
            querylog.record_query(
                "knn", {"exact_computations": 2}, 10, seconds=0.75
            )
        (event,) = query_events(enabled)
        assert event["seconds"] == 1.0
        assert event["filter_seconds"] == 0.25

    def test_io_baseline_becomes_delta(self, enabled):
        from repro.index.pages import PageManager

        pages = PageManager(page_size=256)
        handle = pages.allocate(100)
        with querylog.query_context(io_baseline=querylog.io_baseline()):
            pages.read(handle)
            querylog.record_query("knn", {}, 10)
        (event,) = query_events(enabled)
        assert event["io_pages"] == 1
        assert event["io_bytes"] == 100


class TestEngineAndBatchPaths:
    def test_scan_and_subset_are_pure_refinement(self, enabled, rng):
        from repro.core.queries import FilterRefineEngine

        sets = [rng.normal(size=(3, 6)) for _ in range(20)]
        engine = FilterRefineEngine(sets, capacity=5)
        engine.knn_sequential(sets[0], 3)
        engine.knn_refine_subset(sets[1], 3, np.arange(10))
        events = query_events(enabled)
        assert [e["kind"] for e in events] == ["scan", "knn_subset"]
        for event in events:
            assert event["refine_seconds"] == event["seconds"]
            assert event["filter_seconds"] == 0.0


class TestSharded:
    """Scatter-gather queries keep every wide-event invariant.

    The sharded layer records one merged event per query whose stats
    are the (distance, oid)-merge of the per-shard legs; each leg's own
    event carries its ``shard`` context frame.  The PR 9 arithmetic —
    total == filter + refine — holds exactly, with the scatter as the
    filter phase and the merge as the refine phase.
    """

    def make_sharded(self, backend, rng, count=24, dim=6):
        from repro.db import ShardedSimilarityDatabase

        sharded = ShardedSimilarityDatabase(5, shards=3, backend=backend)
        mirror = SimilarityDatabase(capacity=5, backend=backend)
        sets = [
            rng.normal(size=(int(rng.integers(1, 6)), dim))
            for _ in range(count)
        ]
        for oid, vectors in enumerate(sets):
            sharded.add(oid, vectors)
            mirror.add(oid, vectors)
        return sharded, mirror, sets

    def nonempty(self, db):
        return [i for i, shard in enumerate(db.shards) if len(shard)]

    def test_sharded_knn_event_agrees_with_stats(self, enabled, rng):
        db, _, sets = self.make_sharded("xtree", rng)
        _, stats = db.knn_query(sets[0], 3)
        events = query_events(enabled)
        outer = [e for e in events if e["kind"] == "sharded_knn"]
        inner = [e for e in events if e["kind"] != "sharded_knn"]
        assert len(outer) == 1
        event = outer[0]
        for key, value in stats.as_dict().items():
            assert event[key] == value, key
        assert event["backend"] == "xtree"
        assert event["mode"] == "exact"
        assert event["shards"] == 3
        assert event["db_version"] == db.version
        assert event["k"] == 3
        # The phase invariant, exact by construction: the scatter is
        # the filter phase, the merge is the refine phase.
        assert event["seconds"] == pytest.approx(
            event["filter_seconds"] + event["refine_seconds"]
        )
        assert event["n"] == len(db)
        # One leg event per nonempty shard, each stamped with its shard.
        assert sorted(e["shard"] for e in inner) == self.nonempty(db)
        assert all(e["kind"] == "knn" for e in inner)
        assert sum(e["exact_computations"] for e in inner) == (
            stats.exact_computations
        )

    def test_sharded_range_event_agrees_with_stats(self, enabled, rng):
        db, _, sets = self.make_sharded("rstar", rng)
        _, stats = db.range_query(sets[0], 2.0)
        events = query_events(enabled)
        outer = [e for e in events if e["kind"] == "sharded_range"]
        inner = [e for e in events if e["kind"] != "sharded_range"]
        assert len(outer) == 1
        event = outer[0]
        for key, value in stats.as_dict().items():
            assert event[key] == value, key
        assert event["epsilon"] == 2.0
        assert event["shards"] == 3
        assert event["seconds"] == pytest.approx(
            event["filter_seconds"] + event["refine_seconds"]
        )
        assert sorted(e["shard"] for e in inner) == self.nonempty(db)
        assert all(e["kind"] == "range" for e in inner)

    def test_sharded_approx_event_and_stats_match_single_shard(
        self, enabled, rng
    ):
        db, mirror, sets = self.make_sharded("xtree", rng)
        _, stats = db.knn_query(sets[0], 3, mode="approx", shortlist=10)
        _, single_stats = mirror.knn_query(
            sets[0], 3, mode="approx", shortlist=10
        )
        # The global-shortlist reconstruction makes the merged stats
        # equal the single-shard build's, field for field.
        assert stats.as_dict() == single_stats.as_dict()
        events = query_events(enabled)
        outer = [e for e in events if e["kind"] == "sharded_approx_knn"]
        assert len(outer) == 1
        event = outer[0]
        for key, value in stats.as_dict().items():
            assert event[key] == value, key
        assert event["mode"] == "approx"
        assert event["budget"] == 10
        assert event["shortlist_size"] <= 10
        assert event["seconds"] == pytest.approx(
            event["filter_seconds"] + event["refine_seconds"]
        )
        inner = [e for e in events if e["kind"] == "knn_subset"]
        assert inner, "per-shard refine legs should log knn_subset events"
        assert all(e["shard"] in (0, 1, 2) for e in inner)

    def test_sharded_events_respect_sampling(self, enabled, rng):
        querylog.configure(sample_rate=0.0, slow_ms=None)
        db, _, sets = self.make_sharded("scan", rng, count=12)
        db.knn_query(sets[0], 3)
        assert query_events(enabled) == []
