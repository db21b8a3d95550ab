"""Tests for the assignment solver and its from-scratch Kuhn–Munkres oracle.

``hungarian`` runs scipy's ``linear_sum_assignment``; every optimum here
is checked against :class:`ScalarHungarianSolver`, the reference
implementation no production path uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core.batch import hungarian_batch
from repro.core.matching import (
    ScalarHungarianSolver,
    assignment_cost,
    hungarian,
    identity_is_optimal,
)
from repro.exceptions import DistanceError


def _optimal_cost(matrix: np.ndarray) -> float:
    """The scalar oracle's optimum."""
    return assignment_cost(matrix, ScalarHungarianSolver(len(matrix)).solve(matrix))


class TestAgainstScipy:
    """The scipy production solver against the from-scratch oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20, 40])
    def test_random_matrices(self, n, rng):
        for _ in range(10):
            matrix = rng.normal(size=(n, n)) * rng.uniform(0.1, 100)
            assignment = hungarian(matrix)
            assert sorted(assignment) == list(range(n))  # a permutation
            assert assignment_cost(matrix, assignment) == pytest.approx(
                _optimal_cost(matrix)
            )

    def test_scalar_and_vectorized_agree(self, rng):
        """One scalar oracle solve per matrix equals the stacked solve."""
        for n in (2, 5, 9, 17, 21):
            stack = rng.normal(size=(4, n, n))
            batch = hungarian_batch(stack)
            for matrix, assignment in zip(stack, batch):
                assert assignment_cost(matrix, assignment) == pytest.approx(
                    _optimal_cost(matrix)
                )

    def test_scipy_backend(self, rng):
        """``hungarian`` is scipy's assignment, column for column."""
        matrix = rng.normal(size=(6, 6))
        assert np.array_equal(hungarian(matrix), linear_sum_assignment(matrix)[1])
        assert assignment_cost(matrix, hungarian(matrix)) == pytest.approx(
            _optimal_cost(matrix)
        )

    def test_integer_costs_with_many_ties(self, rng):
        matrix = rng.integers(0, 3, size=(10, 10)).astype(float)
        assert assignment_cost(matrix, hungarian(matrix)) == pytest.approx(
            _optimal_cost(matrix)
        )

    def test_large_matrix_uses_vectorized_path(self, rng):
        """A matrix larger than any small-case path still solves optimally."""
        n = 25
        matrix = rng.normal(size=(n, n))
        assert assignment_cost(matrix, hungarian(matrix)) == pytest.approx(
            _optimal_cost(matrix)
        )
        (assignment,) = hungarian_batch(matrix[np.newaxis])
        assert assignment_cost(matrix, assignment) == pytest.approx(_optimal_cost(matrix))


class TestEdgeCases:
    def test_identity_is_optimal_on_diagonal_costs(self):
        matrix = np.full((4, 4), 10.0)
        np.fill_diagonal(matrix, 0.0)
        assert list(hungarian(matrix)) == [0, 1, 2, 3]

    def test_anti_diagonal(self):
        matrix = np.full((3, 3), 5.0)
        matrix[0, 2] = matrix[1, 1] = matrix[2, 0] = 0.0
        assert list(hungarian(matrix)) == [2, 1, 0]

    def test_single_element(self):
        assert list(hungarian(np.array([[3.5]]))) == [0]

    def test_empty_matrix(self):
        assert len(hungarian(np.empty((0, 0)))) == 0

    def test_negative_costs_fine(self, rng):
        matrix = rng.normal(size=(7, 7)) - 50
        assert assignment_cost(matrix, hungarian(matrix)) == pytest.approx(
            _optimal_cost(matrix)
        )

    def test_non_square_rejected(self):
        with pytest.raises(DistanceError):
            hungarian(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        matrix = np.zeros((3, 3))
        matrix[1, 1] = np.inf
        with pytest.raises(DistanceError):
            hungarian(matrix)

    def test_scalar_oracle_on_diagonal_and_anti_diagonal(self):
        diagonal = np.full((4, 4), 10.0)
        np.fill_diagonal(diagonal, 0.0)
        assert list(ScalarHungarianSolver(4).solve(diagonal)) == [0, 1, 2, 3]
        anti = np.full((3, 3), 5.0)
        anti[0, 2] = anti[1, 1] = anti[2, 0] = 0.0
        assert list(ScalarHungarianSolver(3).solve(anti)) == [2, 1, 0]


class TestIdentityIsOptimal:
    def test_exact_and_ulp_ties_count(self):
        assert identity_is_optimal(0.0, 0.0)
        assert identity_is_optimal(3.0, 3.0)
        assert identity_is_optimal(1.0 + 2**-52, 1.0)

    def test_strictly_worse_identity_does_not(self):
        assert not identity_is_optimal(1.0 + 1e-9, 1.0)
        assert not identity_is_optimal(1e-300, 0.0)

    def test_elementwise(self):
        flags = identity_is_optimal(np.array([2.0, 3.0]), np.array([2.0, 1.0]))
        assert flags.tolist() == [True, False]


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(-100, 100), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_hungarian_optimality_property(matrix_rows):
    """The returned assignment's cost equals the scalar oracle's optimum."""
    matrix = np.asarray(matrix_rows)
    assignment = hungarian(matrix)
    assert sorted(assignment) == list(range(len(matrix)))
    assert assignment_cost(matrix, assignment) == pytest.approx(
        _optimal_cost(matrix), abs=1e-6
    )
