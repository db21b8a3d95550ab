"""Metric names, units and the per-layer readings of a traced run.

``E2E`` and ``LAYER`` must list exactly the names and units of
``BENCHMARK.json`` (``selfcheck.py`` compares them).  Every workload
prints every metric: an end-to-end metric is measured on every
workload, and a per-layer metric whose layer does no work in a
workload reads 0.  A per-layer metric whose hook could not be installed,
or did not fire where its layer is expected to work, is reported with
``"value": null`` and a ``"missing"`` reason.
"""

from __future__ import annotations

E2E = [
    ("setup_s", "s"),
    ("ingest_parts_per_s", "parts/s"),
    ("exact_knn_p50_ms", "ms"),
    ("exact_knn_p90_ms", "ms"),
    ("approx_knn_p50_ms", "ms"),
    ("approx_knn_p90_ms", "ms"),
    ("recall_at_10", "fraction"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
    ("disk_bytes_per_object", "B"),
]

EXACT = ("exact",)
APPROX = ("approx",)
QUERIES = ("exact", "approx")
WRITES = ("write",)
CHECKPOINTS = ("checkpoint",)
ALL = ("exact", "approx", "write", "checkpoint")

BATCH = ("batch.match_many", "batch.cost_tensor", "batch.solve")
VOXEL = "voxel.voxelize_solid"


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_part(tr, name):
    return _div(tr.self_ms([name], QUERIES), tr.calls([VOXEL], QUERIES))


def _per_op(tr, names, kinds):
    return _div(tr.self_ms(names, kinds), sum(tr.ops[k] for k in kinds))


def _count_per_op(tr, name, key, kinds):
    return _div(tr.count([name], key, kinds), sum(tr.ops[k] for k in kinds))


def _stat(tr, key):
    return _div(tr.stats[key], tr.ops["exact"])


#: (name, unit, hooks the reading needs, reading).
LAYER = [
    ("voxel.ms_per_part", "ms", (VOXEL,), lambda tr: _per_part(tr, VOXEL)),
    (
        "normalize.ms_per_part",
        "ms",
        (VOXEL, "normalize.process_grid"),
        lambda tr: _per_part(tr, "normalize.process_grid"),
    ),
    (
        "features.extract_ms_per_part",
        "ms",
        (VOXEL, "features.extract"),
        lambda tr: _per_part(tr, "features.extract"),
    ),
    (
        "features.covers_per_part",
        "count",
        ("features.extract",),
        lambda tr: _div(
            tr.count(["features.extract"], "covers", QUERIES),
            tr.calls(["features.extract"], QUERIES),
        ),
    ),
    (
        "features.cache_hit_ratio",
        "fraction",
        (),
        lambda tr: _div(tr.stats["cache_hits"], tr.stats["cache_lookups"]),
    ),
    (
        "index.rank_ms_per_query",
        "ms",
        ("index.ranking_chunks",),
        lambda tr: _per_op(tr, ["index.ranking_chunks"], EXACT),
    ),
    (
        "index.page_accesses_per_query",
        "count",
        ("index.ranking_chunks",),
        lambda tr: _count_per_op(tr, "index.ranking_chunks", "pages", EXACT),
    ),
    (
        "index.insert_ms_per_write",
        "ms",
        ("index.insert", "index.delete"),
        lambda tr: _per_op(tr, ["index.insert", "index.delete"], WRITES),
    ),
    (
        "index.densify_ms",
        "ms",
        ("index.densify",),
        lambda tr: _div(
            tr.self_ms(["index.densify"], ALL), tr.calls(["index.densify"], ALL)
        ),
    ),
    (
        "index.densifies",
        "count",
        ("index.densify",),
        lambda tr: float(tr.calls(["index.densify"], ALL)),
    ),
    (
        "queries.candidates_ranked_per_query",
        "count",
        (),
        lambda tr: _stat(tr, "candidates_ranked"),
    ),
    ("queries.refined_per_query", "count", (), lambda tr: _stat(tr, "refined")),
    (
        "queries.refine_yield",
        "fraction",
        (),
        lambda tr: _div(tr.stats["results"], tr.stats["refined"]),
    ),
    (
        "queries.extra_refinements_per_query",
        "count",
        (),
        lambda tr: _stat(tr, "extra_refinements"),
    ),
    (
        "queries.engine_rebuilds",
        "count",
        ("queries.engine_build",),
        lambda tr: float(tr.calls(["queries.engine_build"], ALL)),
    ),
    (
        "queries.engine_rebuild_ms",
        "ms",
        ("queries.engine_build",),
        lambda tr: _div(
            tr.self_ms(["queries.engine_build"], ALL),
            tr.calls(["queries.engine_build"], ALL),
        ),
    ),
    (
        "batch.kernel_calls_per_query",
        "count",
        ("batch.match_many",),
        lambda tr: _div(tr.calls(["batch.match_many"], EXACT), tr.ops["exact"]),
    ),
    (
        "batch.pairs_per_call",
        "count",
        ("batch.match_many",),
        lambda tr: _div(
            tr.count(["batch.match_many"], "pairs", EXACT),
            tr.calls(["batch.match_many"], EXACT),
        ),
    ),
    ("batch.refine_ms_per_query", "ms", BATCH, lambda tr: _per_op(tr, BATCH, EXACT)),
    (
        "batch.solve_ms_per_query",
        "ms",
        ("batch.solve",),
        lambda tr: _per_op(tr, ["batch.solve"], EXACT),
    ),
    (
        "batch.cost_tensor_ms_per_query",
        "ms",
        ("batch.cost_tensor",),
        lambda tr: _per_op(tr, ["batch.cost_tensor"], EXACT),
    ),
    (
        "approx.sketch_ms_per_query",
        "ms",
        ("approx.sketch",),
        lambda tr: _per_op(tr, ["approx.sketch"], APPROX),
    ),
    (
        "approx.hamming_ms_per_query",
        "ms",
        ("approx.hamming",),
        lambda tr: _per_op(tr, ["approx.shortlist", "approx.hamming"], APPROX),
    ),
    (
        "approx.refine_ms_per_query",
        "ms",
        ("approx.refine_subset",) + BATCH,
        lambda tr: _per_op(tr, ["approx.refine_subset", *BATCH], APPROX),
    ),
    (
        "approx.shortlist_size",
        "count",
        ("approx.refine_subset",),
        lambda tr: _count_per_op(tr, "approx.refine_subset", "shortlist", APPROX),
    ),
    (
        "approx.sketch_ms_per_write",
        "ms",
        ("approx.sketch",),
        lambda tr: _per_op(tr, ["approx.sketch"], WRITES),
    ),
    (
        "wal.append_ms_per_write",
        "ms",
        ("wal.append",),
        lambda tr: _per_op(tr, ["wal.append"], WRITES),
    ),
    (
        "wal.bytes_per_write",
        "B",
        ("wal.append",),
        lambda tr: _count_per_op(tr, "wal.append", "bytes", WRITES),
    ),
    (
        "db.checkpoint_ms",
        "ms",
        ("db.checkpoint",),
        lambda tr: _per_op(
            tr, ["db.checkpoint", "db.write_archive", "wal.append"], CHECKPOINTS
        ),
    ),
    (
        "db.checkpoint_bytes",
        "B",
        ("db.write_archive",),
        lambda tr: _count_per_op(tr, "db.write_archive", "bytes", CHECKPOINTS),
    ),
    (
        "sharded.max_leg_ms_per_query",
        "ms",
        ("sharded.query", "sharded.leg", "approx.refine_subset"),
        lambda tr: 1e3
        * _div(
            sum(tr.leg_max_s[k] for k in QUERIES), sum(tr.leg_ops[k] for k in QUERIES)
        ),
    ),
    (
        "sharded.merge_ms_per_query",
        "ms",
        ("sharded.query", "sharded.merge_matches", "sharded.merge_stats"),
        lambda tr: _div(
            tr.self_ms(["sharded.merge_matches", "sharded.merge_stats"], QUERIES),
            tr.calls(["sharded.query"], QUERIES),
        ),
    ),
    ("trace.overhead_frac", "fraction", (), lambda tr: tr.stats["overhead_frac"]),
]


def layer_metrics(tracer, expected: set[str]) -> dict:
    """Every per-layer reading of a traced run, or why it is missing.

    *expected* names the hooks that must fire in this workload; one
    that did not is reported missing rather than read as an idle 0.
    """
    out = {}
    for name, unit, needs, reading in LAYER:
        reason = next(
            (tracer.missing[h] for h in needs if h in tracer.missing), None
        )
        if reason is None:
            silent = [h for h in needs if h in expected and not tracer.fired(h)]
            if silent:
                reason = f"hook {silent[0]} did not fire"
        if reason is None:
            out[name] = {"value": float(reading(tracer)), "unit": unit}
        else:
            out[name] = {"value": None, "unit": unit, "missing": reason}
    return out
