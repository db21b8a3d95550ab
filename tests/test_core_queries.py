"""Tests for filter-and-refine query processing."""

import numpy as np
import pytest

from repro.core.matching import ScalarHungarianSolver, assignment_cost
from repro.core.min_matching import euclidean_cross, min_matching_distance
from repro.core.queries import FilterRefineEngine, QueryMatch
from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError, QueryError
from tests.conftest import random_vector_sets


def _scalar_oracle_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Definition 6 (Euclidean elements, norm weights) solved by
    :class:`ScalarHungarianSolver` instead of the production solver."""
    if len(x) < len(y):
        x, y = y, x
    cost = np.empty((len(x), len(x)))
    cost[:, : len(y)] = euclidean_cross(x, y)
    cost[:, len(y) :] = np.linalg.norm(x, axis=1)[:, None]
    return assignment_cost(cost, ScalarHungarianSolver(len(x)).solve(cost))


@pytest.fixture
def engine(rng):
    sets = random_vector_sets(rng, 120, dim=6, max_size=7)
    return FilterRefineEngine(sets, capacity=7), sets


class TestKnn:
    def test_filter_equals_sequential(self, engine, rng):
        eng, sets = engine
        for _ in range(5):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            filtered, _ = eng.knn_query(query, 7)
            sequential, _ = eng.knn_sequential(query, 7)
            assert [m.object_id for m in filtered] == [m.object_id for m in sequential]
            assert [m.distance for m in filtered] == pytest.approx(
                [m.distance for m in sequential]
            )

    def test_knn_distances_sorted(self, engine, rng):
        eng, _ = engine
        results, _ = eng.knn_query(rng.normal(size=(3, 6)), 10)
        distances = [m.distance for m in results]
        assert distances == sorted(distances)

    def test_self_query_returns_self_first(self, engine):
        eng, sets = engine
        results, _ = eng.knn_query(sets[42], 1)
        assert results[0].object_id == 42
        assert results[0].distance == pytest.approx(0.0)

    def test_pruning_happens(self, rng):
        """Clustered data must let the centroid filter skip refinements."""
        # Two well-separated clusters of sets.
        cluster_a = [rng.normal(size=(3, 6)) * 0.1 for _ in range(50)]
        cluster_b = [rng.normal(size=(3, 6)) * 0.1 + 100.0 for _ in range(50)]
        eng = FilterRefineEngine(cluster_a + cluster_b, capacity=7)
        _, stats = eng.knn_query(cluster_a[0], 5)
        assert stats.exact_computations < 100
        assert stats.pruned > 0

    def test_k_larger_than_database(self, engine, rng):
        eng, sets = engine
        results, _ = eng.knn_query(rng.normal(size=(2, 6)), len(sets) + 50)
        assert len(results) == len(sets)

    def test_invalid_k_rejected(self, engine, rng):
        eng, _ = engine
        with pytest.raises(QueryError):
            eng.knn_query(rng.normal(size=(2, 6)), 0)


class TestRange:
    def test_range_results_complete_and_correct(self, engine, rng):
        eng, sets = engine
        query = rng.normal(size=(4, 6))
        epsilon = 4.0
        results, _ = eng.range_query(query, epsilon)
        brute = {
            i
            for i, s in enumerate(sets)
            if min_matching_distance(query, s) <= epsilon
        }
        assert {m.object_id for m in results} == brute

    def test_zero_epsilon_finds_exact_copy(self, engine):
        eng, sets = engine
        results, _ = eng.range_query(sets[7], 1e-9)
        assert 7 in {m.object_id for m in results}

    def test_negative_epsilon_rejected(self, engine, rng):
        eng, _ = engine
        with pytest.raises(QueryError):
            eng.range_query(rng.normal(size=(2, 6)), -1.0)


class TestBlockedRefinement:
    """The blocked batch refinement must be invisible in the results."""

    def test_block_sizes_agree(self, engine, rng):
        eng, sets = engine
        for block_size in (1, 3, 16, 64, 1000):
            other = FilterRefineEngine(sets, capacity=7, block_size=block_size)
            for qi in (0, 42):
                expected, _ = eng.knn_query(sets[qi], 6)
                got, _ = other.knn_query(sets[qi], 6)
                assert [m.object_id for m in got] == [m.object_id for m in expected]
                assert [m.distance for m in got] == [m.distance for m in expected]

    def test_block_size_one_is_strictly_sequential(self, engine, rng):
        eng, sets = engine
        sequential = FilterRefineEngine(sets, capacity=7, block_size=1)
        for _ in range(5):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            _, stats = sequential.knn_query(query, 5)
            assert stats.extra_refinements == 0

    def test_extra_refinements_bounded_by_block(self, engine, rng):
        eng, sets = engine
        sequential = FilterRefineEngine(sets, capacity=7, block_size=1)
        for _ in range(5):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            _, blocked_stats = eng.knn_query(query, 5)
            _, seq_stats = sequential.knn_query(query, 5)
            assert blocked_stats.extra_refinements <= eng.block_size - 1
            # Exactly the overshoot beyond the sequential optimum.
            assert (
                blocked_stats.exact_computations - blocked_stats.extra_refinements
                == seq_stats.exact_computations
            )

    def test_matches_per_pair_refinement(self, engine, rng):
        """The batch kernel and a per-pair exact_distance engine agree."""
        eng, sets = engine
        per_pair = FilterRefineEngine(
            sets, capacity=7, exact_distance=min_matching_distance
        )
        query = rng.normal(size=(4, 6))
        batched, _ = eng.knn_query(query, 8)
        looped, _ = per_pair.knn_query(query, 8)
        assert [m.object_id for m in batched] == [m.object_id for m in looped]
        assert [m.distance for m in batched] == pytest.approx(
            [m.distance for m in looped], abs=1e-9
        )
        batched_range, _ = eng.range_query(query, 4.0)
        looped_range, _ = per_pair.range_query(query, 4.0)
        assert [m.object_id for m in batched_range] == [
            m.object_id for m in looped_range
        ]

    def test_scipy_backend_agrees(self, engine, rng):
        """The engine's batched refine (scipy solver) against per-pair
        refinement solved by the from-scratch Kuhn–Munkres oracle."""
        eng, sets = engine
        oracle = FilterRefineEngine(
            sets, capacity=7, exact_distance=_scalar_oracle_distance
        )
        query = rng.normal(size=(3, 6))
        expected, _ = oracle.knn_query(query, 5)
        got, _ = eng.knn_query(query, 5)
        assert [m.object_id for m in got] == [m.object_id for m in expected]
        assert [m.distance for m in got] == pytest.approx(
            [m.distance for m in expected], abs=1e-9
        )

    def test_invalid_block_size_rejected(self, rng):
        with pytest.raises(QueryError):
            FilterRefineEngine([rng.normal(size=(2, 6))], capacity=7, block_size=0)


class TestKnnQueryMany:
    """The database's batch entry point: one read lock, per-query
    answers identical to :meth:`knn_query`."""

    @pytest.fixture
    def db(self, engine):
        from repro.db import SimilarityDatabase

        _, sets = engine
        database = SimilarityDatabase(7)
        for oid, vectors in enumerate(sets):
            database.add(oid, vectors)
        return database, sets

    def test_identical_to_looped_queries(self, db, rng):
        database, sets = db
        queries = [rng.normal(size=(rng.integers(1, 8), 6)) for _ in range(6)]
        queries.append(sets[42])
        many = database.knn_query_many(queries, 5)
        assert len(many) == len(queries)
        for query, (results, stats) in zip(queries, many):
            expected, expected_stats = database.knn_query(query, 5)
            assert [m.object_id for m in results] == [m.object_id for m in expected]
            assert [m.distance for m in results] == [m.distance for m in expected]
            assert stats.candidates_ranked == expected_stats.candidates_ranked
            assert stats.exact_computations == expected_stats.exact_computations
            assert stats.extra_refinements == expected_stats.extra_refinements
            assert stats.pruned == expected_stats.pruned

    def test_empty_query_list(self, db):
        database, _ = db
        assert database.knn_query_many([], 3) == []

    def test_invalid_k_rejected(self, db):
        database, sets = db
        with pytest.raises(QueryError):
            database.knn_query_many([sets[0]], 0)


class TestConstruction:
    def test_empty_database_rejected(self):
        with pytest.raises(QueryError):
            FilterRefineEngine([], capacity=7)

    def test_oversized_set_rejected(self, rng):
        with pytest.raises(QueryError):
            FilterRefineEngine([rng.normal(size=(9, 6))], capacity=7)

    def test_inconsistent_dimensions_rejected(self, rng):
        with pytest.raises(QueryError):
            FilterRefineEngine(
                [rng.normal(size=(2, 6)), rng.normal(size=(2, 5))], capacity=7
            )

    def test_vector_set_inputs(self, rng):
        sets = [VectorSet(rng.normal(size=(3, 6)), capacity=7) for _ in range(10)]
        eng = FilterRefineEngine(sets, capacity=7)
        results, _ = eng.knn_query(sets[0], 3)
        assert results[0].object_id == 0

    def test_custom_ranker_is_used(self, engine, rng):
        """A ranker that yields in ascending centroid order must give the
        same results as the built-in scan."""
        eng, sets = engine
        query = rng.normal(size=(3, 6))

        def ranker(center):
            dists = np.linalg.norm(eng.centroids - center, axis=1)
            for i in np.argsort(dists):
                yield int(i), float(dists[i])

        with_ranker, _ = eng.knn_query(query, 5, centroid_ranker=ranker)
        without, _ = eng.knn_query(query, 5)
        assert [m.object_id for m in with_ranker] == [m.object_id for m in without]
