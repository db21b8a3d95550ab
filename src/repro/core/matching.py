"""Kuhn–Munkres (Hungarian) assignment: one solver and one oracle.

The paper computes the minimal matching distance with "the method
proposed by Kuhn and Munkres", i.e. a minimum-weight perfect matching in
a complete bipartite graph, at O(k^3) worst-case cost (Section 4.2).

* :func:`solve_assignment` is the production solver, scipy's C
  ``linear_sum_assignment``; :func:`hungarian` validates one matrix and
  calls it.
* :class:`ScalarHungarianSolver` is the from-scratch shortest-augmenting-
  path formulation with row/column potentials (each of the ``n`` phases
  grows one alternating path in O(n^2), O(n^3) overall).  No production
  path runs it: it is the reference the tests check the solver against.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.exceptions import DistanceError


class ScalarHungarianSolver:
    """From-scratch Kuhn–Munkres, the test oracle for the scipy solver.

    Plain Python floats and lists; the working lists are allocated once
    and re-initialized on every :meth:`solve_rows` call, so one instance
    solves any number of same-size problems.
    """

    def __init__(self, n: int):
        self.n = n
        self._u = [0.0] * (n + 1)
        self._v = [0.0] * (n + 1)
        self._match_row = [0] * (n + 1)
        self._way = [0] * (n + 1)
        self._min_reduced = [0.0] * (n + 1)
        self._used = [False] * (n + 1)

    def solve_rows(self, rows: list, assignment: np.ndarray) -> None:
        """Solve one problem given as a list of row lists; the column
        assigned to each row is written into *assignment* in place."""
        n = self.n
        infinity = float("inf")
        u, v = self._u, self._v
        match_row, way = self._match_row, self._way
        min_reduced, used = self._min_reduced, self._used
        for j in range(n + 1):
            u[j] = 0.0
            v[j] = 0.0
            match_row[j] = 0
        for row_index in range(1, n + 1):
            match_row[0] = row_index
            j0 = 0
            for j in range(n + 1):
                min_reduced[j] = infinity
                used[j] = False
            while True:
                used[j0] = True
                i0 = match_row[j0]
                row = rows[i0 - 1]
                u_i0 = u[i0]
                delta = infinity
                j1 = -1
                for j in range(1, n + 1):
                    if not used[j]:
                        current = row[j - 1] - u_i0 - v[j]
                        if current < min_reduced[j]:
                            min_reduced[j] = current
                            way[j] = j0
                        if min_reduced[j] < delta:
                            delta = min_reduced[j]
                            j1 = j
                for j in range(n + 1):
                    if used[j]:
                        u[match_row[j]] += delta
                        v[j] -= delta
                    else:
                        min_reduced[j] -= delta
                j0 = j1
                if match_row[j0] == 0:
                    break
            while j0:
                j1 = way[j0]
                match_row[j0] = match_row[j1]
                j0 = j1
        for j in range(1, n + 1):
            assignment[match_row[j] - 1] = j - 1

    def solve(self, cost: np.ndarray) -> np.ndarray:
        """Column assigned to each row of one ``(n, n)`` cost matrix."""
        assignment = np.empty(self.n, dtype=np.intp)
        self.solve_rows(np.asarray(cost, dtype=float).tolist(), assignment)
        return assignment


def solve_assignment(matrix: np.ndarray) -> np.ndarray:
    """The production solver: column assigned to each row of one square,
    finite, already validated cost matrix.

    Every minimal-matching distance in the package — :func:`hungarian`,
    the stacked :func:`repro.core.batch.hungarian_batch` and through them
    the query engine, the databases and clustering — is solved here, by
    scipy's C ``linear_sum_assignment``.  For a square matrix it returns
    the rows in order, so its column array is the assignment.
    """
    return linear_sum_assignment(matrix)[1]


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Solve the square assignment problem.

    Parameters
    ----------
    cost:
        ``(n, n)`` cost matrix with finite entries.

    Returns
    -------
    ``(n,)`` integer array: ``result[i]`` is the column assigned to
    row ``i`` in a minimum-cost perfect matching.
    """
    matrix = np.asarray(cost, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DistanceError(f"cost matrix must be square, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise DistanceError("cost matrix must be finite")
    return solve_assignment(matrix)


def identity_is_optimal(identity_cost, optimum):
    """Whether the identity alignment is an optimal matching (Table 1).

    A pair counts as identity-aligned when the identity alignment's cost
    (the trace of its padded cost matrix) equals the optimum within a
    relative 1e-12, which absorbs summation-order ulps.  Unlike asking
    whether the solver's chosen optimum *is* the identity, this does not
    depend on how a solver breaks ties between equally cheap matchings.
    Works on scalars and elementwise on arrays.
    """
    return np.abs(identity_cost - optimum) <= 1e-12 * np.abs(optimum)


def assignment_cost(cost: np.ndarray, assignment: np.ndarray) -> float:
    """Total cost of an assignment returned by :func:`hungarian`."""
    matrix = np.asarray(cost, dtype=float)
    return float(matrix[np.arange(len(assignment)), assignment].sum())
