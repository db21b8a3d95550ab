"""The scan oracle every answer is checked against.

A brute-force k-nn over the benchmark's own record of the live sets:
each set is padded to ``k`` rows with the origin (the weight reference
omega = 0, so a padded row costs ``||x||`` exactly as the minimal
matching distance's weight penalty), the full ``(n, k, k)`` Euclidean
cost tensor is formed directly from coordinate differences, and every
assignment is solved by SciPy's ``linear_sum_assignment``.  It shares
no code with the program's filter, index, cost-tensor or solver
layers, so it can catch a defect in any of them.  It runs outside the
timed region.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

#: Distances may differ from the oracle's by rounding only: the program
#: forms costs through the Gram identity, the oracle from differences.
REL_TOL = 1e-6


def tolerance(distance: float) -> float:
    return REL_TOL * max(1.0, abs(distance))


class ScanOracle:
    """Live sets by object id, with an exact brute-force k-nn."""

    def __init__(self, capacity: int, dim: int):
        self.capacity = capacity
        self.dim = dim
        self._sets: dict[int, np.ndarray] = {}
        self._padded: dict[int, np.ndarray] = {}
        self._live: list[int] = []  # random choice in O(1)
        self._where: dict[int, int] = {}
        self._stacked: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._sets)

    def oids(self) -> list[int]:
        return sorted(self._sets)

    def get(self, oid: int) -> np.ndarray:
        return self._sets[oid]

    def random_oid(self, rng: np.random.Generator) -> int:
        return self._live[int(rng.integers(0, len(self._live)))]

    def put(self, oid: int, vectors: np.ndarray) -> None:
        """Record an acknowledged add or update."""
        vectors = np.array(vectors, dtype=float)
        padded = np.zeros((self.capacity, self.dim))
        padded[: len(vectors)] = vectors
        if oid not in self._sets:
            self._where[oid] = len(self._live)
            self._live.append(oid)
        self._sets[oid] = vectors
        self._padded[oid] = padded
        self._stacked = None

    def remove(self, oid: int) -> None:
        """Record an acknowledged remove."""
        del self._sets[oid]
        del self._padded[oid]
        hole, last = self._where.pop(oid), self._live.pop()
        if last != oid:
            self._live[hole] = last
            self._where[last] = hole
        self._stacked = None

    def distances(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(oids, distances)`` from *query* to every live set."""
        if self._stacked is None:
            oids = np.fromiter(self._padded, dtype=np.int64, count=len(self._padded))
            self._stacked = (oids, np.stack(list(self._padded.values())))
        oids, slots = self._stacked
        q = np.zeros((self.capacity, self.dim))
        q[: len(query)] = query
        diff = q[None, :, None, :] - slots[:, None, :, :]
        cost = np.sqrt(np.einsum("nijd,nijd->nij", diff, diff))
        out = np.empty(len(cost))
        for i, matrix in enumerate(cost):
            rows, cols = linear_sum_assignment(matrix)
            out[i] = matrix[rows, cols].sum()
        return oids, out

    def knn(self, query: np.ndarray, k: int) -> "Truth":
        oids, dists = self.distances(query)
        return Truth(oids, dists, k)


class Truth:
    """The oracle's answer to one query, and the checks against it."""

    def __init__(self, oids: np.ndarray, dists: np.ndarray, k: int):
        order = np.lexsort((oids, dists))
        self.k = min(k, len(oids))
        self.by_oid = dict(zip(oids.tolist(), dists.tolist()))
        self.top = [(int(oids[i]), float(dists[i])) for i in order[: self.k]]
        self.kth = self.top[-1][1] if self.top else 0.0

    def _distances_exact(self, matches) -> str | None:
        last = -np.inf
        for match in matches:
            truth = self.by_oid.get(match.object_id)
            if truth is None:
                return f"object {match.object_id} is not live"
            if abs(match.distance - truth) > tolerance(truth):
                return (
                    f"object {match.object_id}: distance {match.distance!r}, "
                    f"oracle {truth!r}"
                )
            if match.distance < last - tolerance(last):
                return "results are not in ascending distance order"
            last = match.distance
        if len({m.object_id for m in matches}) != len(matches):
            return "an object is returned twice"
        return None

    def check_exact(self, matches) -> str | None:
        """None when *matches* is a correct exact k-nn answer, else why not.

        Ties at the k-th distance may resolve either way within the
        rounding tolerance; every object strictly closer than that must
        be present.
        """
        if len(matches) != self.k:
            return f"{len(matches)} results, expected {self.k}"
        problem = self._distances_exact(matches)
        if problem:
            return problem
        if abs(matches[-1].distance - self.kth) > tolerance(self.kth):
            return f"k-th distance {matches[-1].distance!r}, oracle {self.kth!r}"
        got = {m.object_id for m in matches}
        for oid, dist in self.top:
            if dist < self.kth - tolerance(self.kth) and oid not in got:
                return f"missed object {oid} at distance {dist!r}"
        return None

    def check_approx(self, matches) -> str | None:
        """Approximate answers must still carry exact distances."""
        if len(matches) != self.k:
            return f"{len(matches)} results, expected {self.k}"
        return self._distances_exact(matches)

    def recall(self, matches) -> float:
        """|answer ∩ exact top-k| / k."""
        truth = {oid for oid, _ in self.top}
        return len(truth & {m.object_id for m in matches}) / max(1, self.k)
