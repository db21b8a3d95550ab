"""Tests for the batched minimal-matching kernels (repro.core.batch)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.batch import (
    PackedSets,
    hungarian_batch,
    match_many,
    match_pairs,
    pairwise_matrix,
)
from repro.core.matching import ScalarHungarianSolver, assignment_cost
from repro.core.min_matching import (
    euclidean_cross,
    min_matching_distance,
    min_matching_match,
)
from repro.exceptions import DistanceError
from tests.conftest import random_vector_sets

# Collections of 2..8 ragged sets (1..5 vectors each, 3-d), bounded
# values so the scalar oracle and the omega-padded kernel see the same
# well-conditioned problems.
set_collections = st.lists(
    st.integers(1, 5).flatmap(
        lambda m: arrays(
            float, (m, 3), elements=st.floats(-50, 50, allow_nan=False, width=32)
        )
    ),
    min_size=2,
    max_size=8,
)


@st.composite
def tie_heavy_collections(draw, max_size=5, dim=3):
    """2..7 ragged sets (1..max_size vectors) drawn with repetition from
    a pool of at most four integer vectors: duplicate vectors, repeated
    and all-zero sets, and so many tied optimal matchings."""
    pool = draw(
        st.lists(
            arrays(float, dim, elements=st.integers(-2, 2).map(float)),
            min_size=1,
            max_size=4,
        )
    )
    sets = []
    for _ in range(draw(st.integers(2, 7))):
        size = draw(st.integers(1, max_size))
        picks = draw(
            st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size)
        )
        sets.append(np.array([pool[p] for p in picks]))
    return sets


@st.composite
def tie_heavy_cost_stacks(draw):
    """``(B, n, n)`` stacks of all-zero, constant or small-integer costs."""
    n = draw(st.integers(1, 7))
    batch = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["zero", "constant", "integer"]))
    if kind == "zero":
        return np.zeros((batch, n, n))
    if kind == "constant":
        return np.full((batch, n, n), float(draw(st.integers(1, 9))))
    return draw(arrays(float, (batch, n, n), elements=st.integers(0, 3).map(float)))


def _oracle_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Definition 6 (Euclidean elements, norm weights) solved by the
    from-scratch Kuhn–Munkres oracle."""
    if len(x) < len(y):
        x, y = y, x
    m, n = len(x), len(y)
    cost = np.empty((m, m))
    cost[:, :n] = euclidean_cross(x, y)
    cost[:, n:] = np.linalg.norm(x, axis=1)[:, None]
    return assignment_cost(cost, ScalarHungarianSolver(m).solve(cost))


def _assert_optimal(costs: np.ndarray, assignment: np.ndarray) -> None:
    """Each row of *assignment* is a permutation whose cost equals the
    scalar oracle's optimum within 1e-12 relative."""
    n = costs.shape[1]
    oracle = ScalarHungarianSolver(n)
    for matrix, columns in zip(costs, assignment):
        assert sorted(columns) == list(range(n))
        got = assignment_cost(matrix, columns)
        want = assignment_cost(matrix, oracle.solve(matrix))
        assert abs(got - want) <= 1e-12 * abs(want)


class TestPackedSets:
    def test_pack_pads_with_omega(self, rng):
        omega = np.array([1.0, 2.0, 3.0])
        sets = [rng.normal(size=(2, 3)), rng.normal(size=(4, 3))]
        packed = PackedSets.pack(sets, capacity=5, omega=omega)
        assert packed.data.shape == (2, 5, 3)
        assert np.array_equal(packed.sizes, [2, 4])
        assert np.all(packed.data[0, 2:] == omega)
        assert np.all(packed.data[1, 4:] == omega)

    def test_pack_default_capacity_is_max_size(self, rng):
        packed = PackedSets.pack([rng.normal(size=(m, 3)) for m in (1, 4, 2)])
        assert packed.capacity == 4

    def test_pack_rejects_empty_collection(self):
        with pytest.raises(DistanceError):
            PackedSets.pack([])

    def test_pack_rejects_empty_set(self, rng):
        with pytest.raises(DistanceError):
            PackedSets.pack([rng.normal(size=(2, 3)), np.empty((0, 3))])

    def test_pack_rejects_undersized_capacity(self, rng):
        with pytest.raises(DistanceError):
            PackedSets.pack([rng.normal(size=(5, 3))], capacity=4)

    def test_pack_rejects_mixed_dimensions(self, rng):
        with pytest.raises(DistanceError):
            PackedSets.pack([rng.normal(size=(2, 3)), rng.normal(size=(2, 4))])

    def test_pad_query_roundtrip(self, rng):
        packed = PackedSets.pack([rng.normal(size=(3, 4)) for _ in range(3)])
        query = rng.normal(size=(2, 4))
        prepared = packed.pad_query(query)
        assert prepared.size == 2
        assert np.array_equal(prepared.data[:2], query)
        assert np.all(prepared.data[2:] == 0.0)

    def test_pad_query_rejects_oversized(self, rng):
        packed = PackedSets.pack([rng.normal(size=(3, 4))])
        with pytest.raises(DistanceError):
            packed.pad_query(rng.normal(size=(4, 4)))


class TestHungarianBatch:
    @given(tie_heavy_cost_stacks())
    @settings(max_examples=80, deadline=None)
    def test_property_optimal_against_scalar_oracle(self, costs):
        """Ties are everywhere here, so only optimal *values* can be
        compared: any tied optimum is a correct answer."""
        _assert_optimal(costs, hungarian_batch(costs))

    def test_random_costs_match_scalar_oracle(self, rng):
        for n in (1, 2, 5, 9):
            costs = rng.uniform(size=(32, n, n))
            _assert_optimal(costs, hungarian_batch(costs))

    def test_degenerate_ties(self):
        costs = np.zeros((3, 4, 4))
        assignment = hungarian_batch(costs)
        for row in assignment:
            assert sorted(row) == [0, 1, 2, 3]

    def test_empty_batch(self):
        assert hungarian_batch(np.empty((0, 5, 5))).shape == (0, 5)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(DistanceError):
            hungarian_batch(rng.uniform(size=(3, 4, 5)))
        with pytest.raises(DistanceError):
            hungarian_batch(rng.uniform(size=(4, 4)))

    def test_rejects_non_finite(self):
        costs = np.zeros((2, 3, 3))
        costs[1, 0, 0] = np.inf
        with pytest.raises(DistanceError):
            hungarian_batch(costs)


class TestMatchMany:
    def test_matches_per_pair(self, rng):
        sets = random_vector_sets(rng, 40, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        query = rng.normal(size=(3, 6))
        batch = match_many(query, packed)
        reference = np.array([min_matching_distance(query, s) for s in sets])
        assert np.allclose(batch, reference, atol=1e-9)

    def test_self_distance_exactly_zero(self, rng):
        """The engine's self-query guarantees hinge on exact zeros, which
        the einsum-only Gram kernel preserves (a BLAS matmul would not)."""
        sets = random_vector_sets(rng, 30, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        for i in (0, 13, 29):
            assert match_many(sets[i], packed)[i] == 0.0

    def test_indices_subset(self, rng):
        sets = random_vector_sets(rng, 20, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        query = rng.normal(size=(2, 6))
        subset = np.array([3, 17, 0])
        full = match_many(query, packed)
        assert np.array_equal(match_many(query, packed, indices=subset), full[subset])

    def test_prepared_query_reuse(self, rng):
        sets = random_vector_sets(rng, 10, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        query = rng.normal(size=(4, 6))
        prepared = packed.pad_query(query)
        assert np.array_equal(match_many(prepared, packed), match_many(query, packed))

    def test_flags_match_per_pair(self, rng):
        sets = random_vector_sets(rng, 25, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        query = sets[4]
        _, identity = match_many(query, packed, return_flags=True)
        reference = [min_matching_match(query, s).is_identity for s in sets]
        assert list(identity) == reference

    def test_tied_all_virtual_matching_is_identity(self):
        """Opposite collinear singletons tie the identity pairing against
        the all-penalty matching (triangle equality).  The identity
        alignment costs the optimum, so the pair is identity-aligned
        whichever of the two optima the solver returns."""
        x = np.array([[3.0, 4.0]])
        y = np.array([[-3.0, -4.0]])
        packed = PackedSets.pack([x, y], capacity=2)
        distances, identity = match_many(x, packed, return_flags=True)
        assert distances[1] == pytest.approx(10.0)
        assert identity.tolist() == [True, True]
        assert min_matching_match(x, y).is_identity

    def test_swapped_duplicates_are_not_identity(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        packed = PackedSets.pack([x, x[::-1]], capacity=3)
        distances, identity = match_many(x, packed, return_flags=True)
        assert distances.tolist() == [0.0, 0.0]
        assert identity.tolist() == [True, False]

    @given(set_collections)
    @settings(max_examples=40, deadline=None)
    def test_property_matches_per_pair_and_oracle(self, sets):
        """Ragged cardinalities, m<n swaps and k=1 all reduce to the same
        distances as the per-pair path and the scalar oracle."""
        packed = PackedSets.pack(sets)
        query = sets[0]
        batch = match_many(query, packed)
        oracle = np.array([_oracle_distance(query, s) for s in sets])
        reference = np.array([min_matching_distance(query, s) for s in sets])
        assert np.allclose(batch, oracle, atol=1e-8)
        assert np.allclose(batch, reference, atol=1e-8)

    @given(tie_heavy_collections())
    @settings(max_examples=80, deadline=None)
    def test_property_ties_match_per_pair(self, sets):
        packed = PackedSets.pack(sets)
        for query in sets[:3]:
            distances, identity = match_many(query, packed, return_flags=True)
            per_pair = [min_matching_match(query, s) for s in sets]
            assert np.allclose(
                distances, [r.distance for r in per_pair], rtol=0, atol=1e-9
            )
            assert identity.tolist() == [r.is_identity for r in per_pair]


class TestMatchPairs:
    def test_matches_per_pair(self, rng):
        sets = random_vector_sets(rng, 15, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        i_idx = np.array([0, 3, 14, 7])
        j_idx = np.array([1, 3, 2, 11])
        batch = match_pairs(packed, i_idx, j_idx)
        reference = [min_matching_distance(sets[i], sets[j]) for i, j in zip(i_idx, j_idx)]
        assert np.allclose(batch, reference, atol=1e-9)

    def test_cross_database(self, rng):
        left = random_vector_sets(rng, 5, dim=6, max_size=7)
        right = random_vector_sets(rng, 8, dim=6, max_size=7)
        packed_l = PackedSets.pack(left, capacity=7)
        packed_r = PackedSets.pack(right, capacity=7)
        batch = match_pairs(packed_l, np.array([0, 4]), np.array([7, 2]), right=packed_r)
        assert batch[0] == pytest.approx(min_matching_distance(left[0], right[7]))
        assert batch[1] == pytest.approx(min_matching_distance(left[4], right[2]))

    @given(tie_heavy_collections())
    @settings(max_examples=60, deadline=None)
    def test_property_ties_match_per_pair(self, sets):
        packed = PackedSets.pack(sets)
        i_idx, j_idx = np.meshgrid(np.arange(len(sets)), np.arange(len(sets)))
        i_idx, j_idx = i_idx.ravel(), j_idx.ravel()
        distances, identity = match_pairs(packed, i_idx, j_idx, return_flags=True)
        per_pair = [min_matching_match(sets[i], sets[j]) for i, j in zip(i_idx, j_idx)]
        assert np.allclose(
            distances, [r.distance for r in per_pair], rtol=0, atol=1e-9
        )
        assert identity.tolist() == [r.is_identity for r in per_pair]

    def test_rejects_incompatible_layouts(self, rng):
        packed_a = PackedSets.pack([rng.normal(size=(3, 6))], capacity=7)
        packed_b = PackedSets.pack([rng.normal(size=(3, 6))], capacity=5)
        with pytest.raises(DistanceError):
            match_pairs(packed_a, np.array([0]), np.array([0]), right=packed_b)

    def test_rejects_mismatched_index_arrays(self, rng):
        packed = PackedSets.pack([rng.normal(size=(3, 6))], capacity=7)
        with pytest.raises(DistanceError):
            match_pairs(packed, np.array([0, 0]), np.array([0]))


class TestPairwiseMatrix:
    def _reference(self, sets):
        n = len(sets)
        matrix = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] = matrix[j, i] = min_matching_distance(sets[i], sets[j])
        return matrix

    def test_matches_per_pair(self, rng):
        sets = random_vector_sets(rng, 30, dim=6, max_size=7)
        matrix = pairwise_matrix(sets, capacity=7)
        assert np.allclose(matrix, self._reference(sets), atol=1e-9)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_chunking_is_invisible(self, rng):
        sets = random_vector_sets(rng, 20, dim=6, max_size=7)
        assert np.array_equal(
            pairwise_matrix(sets, chunk_size=7), pairwise_matrix(sets)
        )

    def test_parallel_equals_serial(self, rng):
        sets = random_vector_sets(rng, 24, dim=6, max_size=7)
        serial = pairwise_matrix(sets, chunk_size=32)
        parallel = pairwise_matrix(sets, chunk_size=32, n_jobs=2)
        assert np.array_equal(serial, parallel)

    def test_parallel_flags_equal_serial(self, rng):
        sets = random_vector_sets(rng, 16, dim=6, max_size=7)
        serial, serial_flags = pairwise_matrix(sets, chunk_size=16, return_flags=True)
        parallel, parallel_flags = pairwise_matrix(
            sets, chunk_size=16, n_jobs=2, return_flags=True
        )
        assert np.array_equal(serial, parallel)
        assert np.array_equal(serial_flags, parallel_flags)

    def test_flags_match_per_pair(self, rng):
        sets = random_vector_sets(rng, 18, dim=6, max_size=7)
        _, flags = pairwise_matrix(sets, capacity=7, return_flags=True)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                result = min_matching_match(sets[i], sets[j])
                assert flags[i, j] == (not result.is_identity)

    def test_rejects_bad_chunk_size(self, rng):
        with pytest.raises(DistanceError):
            pairwise_matrix(random_vector_sets(rng, 4), chunk_size=0)

    def test_singleton_sets(self, rng):
        """k=1: every 'matching' is a single Euclidean distance."""
        sets = [rng.normal(size=(1, 4)) for _ in range(8)]
        matrix = pairwise_matrix(sets)
        for i in range(8):
            for j in range(8):
                assert matrix[i, j] == pytest.approx(
                    np.linalg.norm(sets[i][0] - sets[j][0])
                )

    @given(set_collections)
    @settings(max_examples=30, deadline=None)
    def test_property_matches_per_pair_and_oracle(self, sets):
        matrix = pairwise_matrix(sets)
        oracle = np.array([[_oracle_distance(x, y) for y in sets] for x in sets])
        assert np.allclose(matrix, self._reference(sets), atol=1e-8)
        assert np.allclose(matrix, oracle, atol=1e-8)

    @given(tie_heavy_collections())
    @settings(max_examples=60, deadline=None)
    def test_property_ties_match_per_pair(self, sets):
        matrix, flags = pairwise_matrix(sets, return_flags=True)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                result = min_matching_match(sets[i], sets[j])
                assert abs(matrix[i, j] - result.distance) <= 1e-9
                assert flags[i, j] == (not result.is_identity)
