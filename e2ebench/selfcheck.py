"""Self-tests of the benchmark, on tiny inputs (under a minute).

Run from the root of a source checkout::

    python3 e2ebench/selfcheck.py

Checks that every workload prints exactly the metric names and units of
``BENCHMARK.json``, traced and untraced; that the same seed gives the
same inputs; that host-speed scaling undoes a slow phase of the host
and nothing else; that a planted wrong answer, a replay answering
differently from the first round and a lost object are counted
as failures; and that a hook whose function is gone is reported missing
while the run still finishes.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(CHECKOUT / "src"))

import run as bench  # noqa: E402  (first: it pins BLAS threads before numpy loads)
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import numpy as np  # noqa: E402
from corpora import SetFamilies, rng_for  # noqa: E402
from metrics import E2E, LAYER  # noqa: E402
from workloads import WORKLOADS, Recorder, Sizes  # noqa: E402

TINY = Sizes(
    catalog_parts=40,
    degenerate_n=60,
    churn_n=80,
    checkpoint_every=10,
    warmup_queries=1,
    part_check_share=1.0,
    churn_check_share=1.0,
)
SECONDS = "1.5"


#: Standard error of the last run, shown when a check fails.
last_stderr = io.StringIO()


def invoke(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    global last_stderr
    out, last_stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(last_stderr):
        code = bench.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
             "--trace", str(trace)],
            sizes=TINY,
        )
    lines = out.getvalue().strip().splitlines()
    expect(code == 0, f"{workload}: exit code {code}")
    return json.loads(lines[-1]), json.loads(lines[-2])["run"]


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.stderr.write(last_stderr.getvalue()[-4000:])
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_names() -> None:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    expect(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "workload names differ from BENCHMARK.json",
    )
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == E2E,
        "end-to-end metrics differ from BENCHMARK.json",
    )
    expect(
        [(m["name"], m["unit"]) for m in spec["per_layer"]]
        == [(name, unit) for name, unit, _needs, _reading in LAYER],
        "per-layer metrics differ from BENCHMARK.json",
    )


def check_inputs_seeded() -> None:
    def corpus(seed):
        rng = rng_for(seed, "selfcheck")
        return SetFamilies(rng, degenerate=False).corpus(rng, 30)

    same = all(np.array_equal(a, b) for a, b in zip(corpus(1), corpus(1)))
    expect(same, "the same seed gave different inputs")
    expect(
        not all(np.array_equal(a, b) for a, b in zip(corpus(1), corpus(2))),
        "different seeds gave the same inputs",
    )


def check_host_speed() -> None:
    ref = hostspeed.REFERENCE_PROBE_S
    speed = hostspeed.HostSpeed()
    # A fast phase around t = 0 and a phase at half speed around t = 10.
    speed.stamps = [0.0, 0.5, 10.0, 10.5]
    speed.seconds = [ref, ref, 2 * ref, 2 * ref]
    fast = speed.scale(0.2, 0.3)
    slow = speed.scale(10.2, 10.4)
    expect(math.isclose(fast, 0.1), f"fast phase scaled to {fast}")
    expect(math.isclose(slow, 0.1), f"slow phase scaled to {slow}")
    far = speed.scale(30.0, 30.1)  # no probe within the window: the nearest
    expect(math.isclose(far, 0.05), f"interval far from probes scaled to {far}")


def check_output(workload: str, result: dict, names: list[tuple[str, str]]) -> None:
    expect(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{workload}: result keys {sorted(result)}",
    )
    expect(result["correct"] and result["failed"] == 0, f"{workload}: failures")
    expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    expect(got == names, f"{workload}: printed metrics differ from BENCHMARK.json")


def check_workloads() -> None:
    for workload in WORKLOADS:
        result, info = invoke(workload, 0)
        check_output(workload, result, E2E)
        for name, metric in result["metrics"].items():
            value = metric["value"]
            expect(
                isinstance(value, float) and math.isfinite(value) and value > 0,
                f"{workload}: {name} = {value!r}",
            )
        expect(info["blas_threads"] in (None, 1), f"{workload}: BLAS threads")
        expect(info["host_speed"]["probes"] > 0, f"{workload}: no host-speed probe")
        expect(
            list(info["unscaled"]) == sorted(name for name, _unit in E2E),
            f"{workload}: unscaled metrics differ",
        )

        result, info = invoke(workload, 1)
        check_output(workload, result, [(n, u) for n, u, _, _ in LAYER])
        expect(not info["missing"], f"{workload}: missing layers {info['missing']}")
        rebuilds = result["metrics"]["queries.engine_rebuilds"]["value"]
        if workload == "catalog_churn":
            expect(rebuilds > 0, "catalog_churn: no engine rebuilds")
        else:
            expect(rebuilds == 0, f"{workload}: {rebuilds} rebuilds after warm-up")
        print(f"ok {workload}: traced and untraced output", flush=True)


@contextlib.contextmanager
def patched(owner, name, replacement):
    original = vars(owner)[name]
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def check_planted_wrong_answer() -> None:
    from repro.core.queries import QueryMatch
    from repro.db import ShardedSimilarityDatabase, SimilarityDatabase

    def wrong(original):
        def knn_query(self, *args, **kwargs):
            results, stats = original(self, *args, **kwargs)
            first = results[0]
            wrong = QueryMatch(first.object_id, first.distance + 1.0)
            return [wrong] + results[1:], stats

        return knn_query

    single = vars(SimilarityDatabase)["knn_query"]
    sharded = vars(ShardedSimilarityDatabase)["knn_query"]
    with patched(SimilarityDatabase, "knn_query", wrong(single)), patched(
        ShardedSimilarityDatabase, "knn_query", wrong(sharded)
    ):
        for workload in WORKLOADS:
            result, _info = invoke(workload, 0)
            expect(
                result["failed"] >= 1 and not result["correct"],
                f"{workload}: planted wrong answer not counted",
            )
    print("ok planted wrong answers are counted as failed", flush=True)


def check_replay_mismatch() -> None:
    from repro.core.queries import QueryMatch
    from repro.db import SimilarityDatabase

    replaying = False
    start_round = vars(Recorder)["start_round"]

    def flagging(self, number):
        nonlocal replaying
        replaying = number > 0
        start_round(self, number)

    single = vars(SimilarityDatabase)["knn_query"]

    def knn_query(self, *args, **kwargs):
        results, stats = single(self, *args, **kwargs)
        if replaying:  # wrong only where the oracle does not look
            first = results[0]
            results = [QueryMatch(first.object_id, first.distance * 2)] + results[1:]
        return results, stats

    with patched(Recorder, "start_round", flagging), patched(
        SimilarityDatabase, "knn_query", knn_query
    ):
        result, _info = invoke("centroid_degenerate", 0)
    expect(
        result["failed"] >= 1 and not result["correct"],
        "a replay that answered differently was not counted",
    )
    print("ok a replay answering differently is counted as failed", flush=True)


def check_lost_object() -> None:
    import repro.db

    real_open = repro.db.open_database

    def lossy_open(path, **kwargs):
        db = real_open(path, **kwargs)
        db.remove(db.object_ids()[0])
        return db

    with patched(repro.db, "open_database", lossy_open):
        result, _info = invoke("catalog_churn", 0)
    expect(result["failed"] == 1, f"lost object counted {result['failed']} times")
    print("ok a lost object is counted as failed", flush=True)


def check_missing_hook() -> None:
    gone = [
        tracing.Hook(h.name, h.module, "no_such_function")
        if h.name == "batch.solve"
        else h
        for h in tracing.HOOKS
    ]
    install = vars(tracing.Tracer)["install"]
    with patched(tracing.Tracer, "install", lambda self: install(self, gone)):
        result, _info = invoke("centroid_degenerate", 1)
    metrics = result["metrics"]
    expect(metrics["batch.solve_ms_per_query"]["value"] is None, "missing hook read")
    expect("missing" in metrics["batch.refine_ms_per_query"], "dependent metric read")
    expect(metrics["batch.cost_tensor_ms_per_query"]["value"] is not None, "bystander")
    print("ok a hook whose function is gone is reported missing", flush=True)


def main() -> int:
    os.chdir(CHECKOUT)
    check_names()
    check_inputs_seeded()
    check_host_speed()
    print(
        "ok names match BENCHMARK.json; inputs follow the seed; host speed scales",
        flush=True,
    )
    check_workloads()
    check_planted_wrong_answer()
    check_replay_mismatch()
    check_lost_object()
    check_missing_hook()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
