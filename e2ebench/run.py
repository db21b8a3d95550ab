"""Repo benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a source checkout::

    python3 e2ebench/run.py --workload part_search --seed 1 --seconds 15 --trace 0

``--seconds`` is the timed phase at the reference host speed of
``hostspeed.py``, so every run does the same amount of work: on a
host running at half that speed it lasts twice as long.

``--trace 0`` sets the catalog up several times (``setup_s`` is the
median), draws the client's steps in a third of the timed phase after
the first round's set-up and replays them in each later round, and prints
every end-to-end metric: per operation the median of its repetitions,
timings scaled to the reference host speed of ``hostspeed.py``.
``--trace 1`` sets up once, alternates untraced steps with steps that
run under every layer hook, and prints every per-layer metric; no
end-to-end number comes from a traced run.  Every answer is checked
against the scan oracle.  The last line of standard output is the
result object; the line before it records the run's settings.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

# One closed-loop client on one BLAS thread: set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from metrics import E2E, layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder, Sizes  # noqa: E402


#: Latency-key prefix of operations run with the layer hooks attached.
TRACED = "traced:"


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, if it exposes them."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def run_phase(seconds: float, step, rec: Recorder) -> None:
    """Call *step* until *seconds* of timed phase at the reference host
    speed have passed, untimed intervals excluded: the number of steps
    does not depend on how fast the host runs at the time."""
    done = 0.0
    while done < seconds:
        start = time.perf_counter()
        paused = rec.paused
        step()
        end = time.perf_counter()
        done += rec.speed.scale(start, end, end - start - (rec.paused - paused))


def _ms(samples: np.ndarray, q: float) -> float:
    if not len(samples):
        raise RuntimeError("an operation kind has no completed samples")
    return float(np.percentile(samples, q)) * 1e3


def end_to_end(wl, rec: Recorder, setups: list[tuple], scaled: bool) -> dict:
    """Every end-to-end value; timings at the reference host speed if
    *scaled*, else as measured.  *setups* holds ``(start, end,
    seconds)`` of each set-up.  Each catalog object was stored once per
    set-up and each timed operation run once per round: every timing
    but ``setup_s`` takes the median of those repetitions."""

    def seconds(pairs):
        return [rec.speed.scale(t, t + d) if scaled else d for t, d in pairs]

    def per_op(pairs, times: int) -> np.ndarray:
        repeats = np.asarray(seconds(pairs), dtype=float).reshape(times, -1)
        repeats = repeats[:, ~np.isnan(repeats).all(axis=0)]  # failed every time
        return np.nanmedian(repeats, axis=0)

    ops = {
        kind: per_op(zip(rec.starts[kind], rec.latency[kind]), wl.rounds)
        for kind in rec.latency
    }
    if "write" in ops:
        writes = ops["write"]
    else:  # no write in the timed phase: the catalog build's adds
        writes = per_op(wl.setup_writes, len(setups))
    ingest = per_op(
        [pair for spans in wl.ingest_spans for pair in spans], len(setups)
    )
    setup = [rec.speed.scale(t0, t1, d) if scaled else d for t0, t1, d in setups]
    values = {
        "setup_s": statistics.median(setup),
        "ingest_parts_per_s": len(ingest) / float(ingest.sum()),
        "exact_knn_p50_ms": _ms(ops["exact"], 50),
        "exact_knn_p90_ms": _ms(ops["exact"], 90),
        "approx_knn_p50_ms": _ms(ops["approx"], 50),
        "approx_knn_p90_ms": _ms(ops["approx"], 90),
        "recall_at_10": statistics.fmean(rec.recall),
        "write_p50_ms": _ms(writes, 50),
        "write_p90_ms": _ms(writes, 90),
        "ops_per_s": sum(map(len, ops.values()))
        / sum(float(v.sum()) for v in ops.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "disk_bytes_per_object": wl.disk_bytes_per_object,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E}


def trace_overhead(latency: dict) -> float:
    """Traced operations' time over what the same kinds took untraced
    (median per kind, weighted by the traced count), minus 1."""
    pairs = [
        (latency[k], latency[TRACED + k])
        for k in list(latency)
        if not k.startswith(TRACED) and latency.get(TRACED + k)
    ]
    slow = sum(len(traced) * np.nanmedian(traced) for _, traced in pairs)
    base = sum(len(traced) * np.nanmedian(plain) for plain, traced in pairs)
    return slow / base - 1.0 if base else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        sizes: Sizes | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns ``(result, info)``."""
    from repro import obs

    if obs.enabled():
        raise RuntimeError("repro.obs must be disabled for a benchmark run")
    sizes = sizes or Sizes()
    wl = WORKLOADS[workload](seed, sizes, workdir)
    rec = Recorder()
    threads = blas_threads()
    nproc = os.cpu_count() or 1
    if threads is not None and threads > nproc:
        raise RuntimeError(f"BLAS uses {threads} threads on {nproc} CPUs")
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "clients": 1,
        "blas_threads": threads,
        "nproc": nproc,
        **wl.info(),
    }
    setups = []

    def set_up(repetition: int) -> None:
        rec.speed.sample()
        paused = rec.paused
        start = time.perf_counter()
        wl.setup(rec, repetition)
        end = time.perf_counter()
        setups.append((start, end, end - start - (rec.paused - paused)))
        rec.speed.sample()

    if not trace:
        # The first round draws the run's client steps in its share of
        # the timed phase; every later round replays the same steps
        # against the catalog it built.  So each operation runs once per
        # round, seconds apart, and a burst of load on the host spoils at
        # most some of its repetitions.
        steps = []

        def first():
            with rec.untimed():
                steps.append(wl.draw())
            wl.play(rec, None, steps[-1])

        hits = lookups = 0
        for repetition in range(wl.rounds):
            for _ in range(wl.setups_per_round):
                set_up(len(setups))
            rec.start_round(repetition)
            hits0, lookups0 = wl.cache_counts()
            if repetition == 0:
                run_phase(seconds / wl.rounds, first, rec)
            else:
                for step in steps:
                    wl.play(rec, None, step)
            hits1, lookups1 = wl.cache_counts()
            hits, lookups = hits + hits1 - hits0, lookups + lookups1 - lookups0
        info["steps"] = len(steps)
        info["samples"] = {
            kind: len(v) // wl.rounds for kind, v in sorted(rec.latency.items())
        }
        if obs.enabled():
            raise RuntimeError("repro.obs was enabled during the untraced run")
        metrics = end_to_end(wl, rec, setups, scaled=True)
        raw = end_to_end(wl, rec, setups, scaled=False)
        info["unscaled"] = {name: m["value"] for name, m in raw.items()}
        info["host_speed"] = rec.speed.summary()
        if lookups:
            info["feature_cache_hit_share"] = hits / lookups
    else:
        set_up(0)
        tracer = Tracer()
        tracer.install()
        hits0, lookups0 = wl.cache_counts()
        steps = 0

        def alternate():
            # Traced and untraced steps alternate, so both see the same
            # mix of operations and the same catalog state.
            nonlocal steps
            steps += 1
            if steps % 2:
                wl.step(rec, None)
                return
            with rec.untimed():
                tracer.attach()
                rec.lane = TRACED
            try:
                wl.step(rec, tracer)
            finally:
                with rec.untimed():
                    tracer.detach()
                    rec.lane = ""

        run_phase(seconds, alternate, rec)
        hits1, lookups1 = wl.cache_counts()
        tracer.stats["cache_hits"] = hits1 - hits0
        tracer.stats["cache_lookups"] = lookups1 - lookups0
        tracer.stats["overhead_frac"] = trace_overhead(rec.latency)
        metrics = layer_metrics(tracer, wl.expected_hooks)
        info["traced_ops"] = dict(tracer.ops)
        info["samples"] = {kind: len(v) for kind, v in sorted(rec.latency.items())}
        info["missing"] = {
            name: m["missing"] for name, m in metrics.items() if "missing" in m
        }
    info["setup_s_each"] = [s for _t0, _t1, s in setups]
    wl.finish(rec)
    info["failed_frac"] = rec.failed / max(1, rec.attempted)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    return result, info


def main(argv=None, sizes: Sizes | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    checkout = Path.cwd()
    source = checkout / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no program source under {source}", file=sys.stderr)
        return 3
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    scratch = checkout / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    # Nothing of the program may fall back to a cache outside this run.
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "repro_cache")
    try:
        result, info = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, sizes
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still holds its directory
    print(json.dumps({"run": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
