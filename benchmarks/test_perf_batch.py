"""Micro-benchmarks of the batched minimal-matching kernels.

pytest-benchmark timings of the packed-tensor distance layer against the
per-pair baseline it replaces: the stacked cost-tensor assembly, the
stacked assignment solve, one-query-vs-database refinement, and the
full pairwise matrix behind the OPTICS experiments.  The ≥5x acceptance
number lives in ``BENCH_PR2.json`` (``python -m repro bench``); these
tests track the same kernels per call so regressions show up in CI.
"""

import numpy as np
import pytest

from repro.core.batch import (
    PackedSets,
    hungarian_batch,
    match_many,
    pairwise_matrix,
)
from repro.core.min_matching import min_matching_distance
from repro.core.queries import FilterRefineEngine

N_SETS = 200
K = 7
DIM = 6


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(2003)
    sets = [
        rng.standard_normal((int(rng.integers(1, K + 1)), DIM)) for _ in range(N_SETS)
    ]
    return sets, PackedSets.pack(sets, capacity=K)


def test_bench_pack(benchmark, workload):
    sets, _ = workload
    benchmark(PackedSets.pack, sets, capacity=K)


def test_bench_hungarian_batch(benchmark):
    rng = np.random.default_rng(7)
    costs = rng.uniform(size=(1024, K, K))
    benchmark(hungarian_batch, costs)


def test_bench_match_many(benchmark, workload):
    sets, packed = workload
    prepared = packed.pad_query(sets[0])
    benchmark(match_many, prepared, packed)


def test_bench_pairwise_matrix(benchmark, workload):
    sets, _ = workload
    benchmark(pairwise_matrix, sets, capacity=K)


def test_bench_knn_sequential_batched(benchmark, workload):
    sets, _ = workload
    engine = FilterRefineEngine(sets, capacity=K)
    benchmark(engine.knn_sequential, sets[0], 10)


def test_batch_beats_per_pair(benchmark, workload):
    """The whole point of the packed layer: one batched call over the
    database must clearly beat the per-pair Python loop (asserted at a
    conservative 2x per-query; the pairwise-matrix workload in
    BENCH_PR2.json shows the full ≥5x)."""
    import time

    sets, packed = workload
    prepared = packed.pad_query(sets[0])

    def measure():
        start = time.perf_counter()
        for _ in range(5):
            match_many(prepared, packed)
        batched = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(5):
            for candidate in sets:
                min_matching_distance(sets[0], candidate)
        per_pair = time.perf_counter() - start
        return per_pair, batched

    per_pair, batched = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        f"\nper-pair: {per_pair / 5 * 1e3:.2f}ms/query, "
        f"batched: {batched / 5 * 1e3:.2f}ms/query "
        f"({per_pair / batched:.1f}x)"
    )
    assert per_pair > 2 * batched
