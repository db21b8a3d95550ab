"""Batched minimal-matching kernels: the packed-tensor distance layer.

Every experiment bottoms out in the O(k^3) minimal matching distance
(Definition 6): the filter-refine engine calls it once per surviving
candidate and OPTICS needs all O(n^2) pairs.  Evaluating it one pair at
a time pays Python-level cost-matrix assembly per call; this module
builds the cost matrices of a whole batch in one pass.

Two ideas make the batch formulation exact, not approximate:

**Omega padding.**  Under the paper's weight family ``w(x) = ||x - ω||``
(Definition 7) with the Euclidean element distance, pad every set to the
shared capacity ``K`` with copies of the reference point ``ω``.  Then
the minimal matching distance of two sets equals the optimal assignment
value on the plain ``K x K`` cross-distance matrix of the padded sets:
matching a real element to a virtual one costs ``||x - ω|| = w(x)``
(the unmatched penalty), virtual-virtual pairs are free, and the Lemma 1
condition ``w(x) + w(y) >= dist(x, y)`` (here: the triangle inequality)
guarantees an optimum of the padded problem realizes Definition 6.
One tensor layout therefore serves ragged cardinalities, ``m < n``
swaps, and dummy columns without any per-pair case analysis.

**Gram-identity cost tensors.**  All candidate cost matrices of a batch
are built in a single vectorized pass as
``sqrt(clip(||x||^2 + ||y||^2 - 2 x.y, 0))`` — no ``(m, n, d)``
broadcast temporaries.  Dot products go through ``np.einsum`` whose
fixed summation order is independent of batch shape, so identical
vectors cancel to exactly zero (self-queries keep their exact-zero
distances) and batched results match the per-pair path to the last
ulp of the cost entries.

**One solver.**  The stacked ``(B, K, K)`` assignment problems go one by
one through :func:`repro.core.matching.solve_assignment` (scipy's C
``linear_sum_assignment``, a few microseconds per problem at the paper's
k <= 9).  The from-scratch
:class:`~repro.core.matching.ScalarHungarianSolver` is the test oracle
it is checked against; no production path runs it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.matching import identity_is_optimal, solve_assignment
from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError

#: Pairs per kernel invocation when chunking large workloads; bounds the
#: (chunk, K, K) cost tensor to a few MB at the paper's k <= 9.  Speed
#: does not depend on it: the solver runs per problem (256..16384 were
#: within run-to-run noise on the n=300 pairwise workload).
DEFAULT_CHUNK_SIZE = 4096


# -- packed databases ---------------------------------------------------------


@dataclass(frozen=True)
class PaddedQuery:
    """One query set padded to a :class:`PackedSets` layout."""

    data: np.ndarray      # (K, d), rows beyond `size` hold omega
    sq_norms: np.ndarray  # (K,)
    size: int


@dataclass(frozen=True)
class PackedSets:
    """A database of <=K-cardinality vector sets in one padded tensor.

    Attributes
    ----------
    data:
        ``(n, K, d)`` tensor; rows beyond ``sizes[i]`` hold ``omega``
        (the virtual elements of the omega-padding formulation).
    sizes:
        ``(n,)`` true cardinalities.
    sq_norms:
        ``(n, K)`` squared Euclidean norms of the padded rows,
        precomputed for the Gram-identity cost assembly.
    omega:
        The ``(d,)`` reference point (Definition 7); the weight of an
        unmatched element is its distance to ``omega``.
    """

    data: np.ndarray
    sizes: np.ndarray
    sq_norms: np.ndarray
    omega: np.ndarray

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def capacity(self) -> int:
        return self.data.shape[1]

    @property
    def dimension(self) -> int:
        return self.data.shape[2]

    @classmethod
    def pack(
        cls,
        sets: Sequence[np.ndarray | VectorSet],
        capacity: int | None = None,
        omega: np.ndarray | None = None,
    ) -> "PackedSets":
        """Pack a sequence of ``(m_i, d)`` arrays / :class:`VectorSet`."""
        arrays = [
            np.asarray(s.vectors if isinstance(s, VectorSet) else s, dtype=float)
            for s in sets
        ]
        if not arrays:
            raise DistanceError("cannot pack an empty collection of sets")
        dimension = arrays[0].shape[1] if arrays[0].ndim == 2 else -1
        for i, arr in enumerate(arrays):
            if arr.ndim != 2 or not len(arr) or arr.shape[1] != dimension:
                raise DistanceError(
                    f"set {i} is not a non-empty (m, {dimension}) array: {arr.shape}"
                )
        sizes = np.array([len(arr) for arr in arrays], dtype=np.intp)
        max_size = int(sizes.max())
        if capacity is None:
            capacity = max_size
        elif capacity < max_size:
            raise DistanceError(f"capacity {capacity} below largest set ({max_size})")
        if omega is None:
            omega = np.zeros(dimension)
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (dimension,):
            raise DistanceError("omega has wrong dimension")
        data = np.empty((len(arrays), capacity, dimension))
        data[:] = omega
        for i, arr in enumerate(arrays):
            data[i, : len(arr)] = arr
        sq_norms = np.einsum("nkd,nkd->nk", data, data)
        return cls(data=data, sizes=sizes, sq_norms=sq_norms, omega=omega)

    def pad_query(self, query: np.ndarray | VectorSet) -> PaddedQuery:
        """Pad one query set to this layout (reusable across batches)."""
        arr = np.asarray(
            query.vectors if isinstance(query, VectorSet) else query, dtype=float
        )
        if arr.ndim != 2 or not len(arr) or arr.shape[1] != self.dimension:
            raise DistanceError(
                f"query is not a non-empty (m, {self.dimension}) array: {arr.shape}"
            )
        if len(arr) > self.capacity:
            raise DistanceError(
                f"query of size {len(arr)} exceeds packed capacity {self.capacity}"
            )
        data = np.empty((self.capacity, self.dimension))
        data[:] = self.omega
        data[: len(arr)] = arr
        return PaddedQuery(
            data=data, sq_norms=np.einsum("kd,kd->k", data, data), size=len(arr)
        )


# -- batched assignment -------------------------------------------------------


def hungarian_batch(costs: np.ndarray) -> np.ndarray:
    """Solve a ``(B, n, n)`` stack of finite square assignment problems.

    Returns
    -------
    ``(B, n)`` integer array; ``result[b, i]`` is the column assigned to
    row ``i`` of problem ``b``.
    """
    stack = np.asarray(costs, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DistanceError(f"expected (B, n, n) cost stack, got {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise DistanceError("cost matrices must be finite")
    assignment = np.empty(stack.shape[:2], dtype=np.intp)
    for b, matrix in enumerate(stack):
        assignment[b] = solve_assignment(matrix)
    return assignment


# -- batched minimal matching -------------------------------------------------


def _cost_tensor(
    x_data: np.ndarray, x_sq: np.ndarray, y_data: np.ndarray, y_sq: np.ndarray
) -> np.ndarray:
    """Stacked cross-distance matrices of omega-padded sets.

    ``x_data`` is ``(K, d)`` (one query, broadcast over the batch) or
    ``(C, K, d)``; ``y_data`` is ``(C, K, d)``.  Returns ``(C, K, K)``.
    """
    if x_data.ndim == 2:
        dots = np.einsum("kd,cld->ckl", x_data, y_data)
        sq = x_sq[None, :, None] + y_sq[:, None, :] - 2.0 * dots
    else:
        dots = np.einsum("ckd,cld->ckl", x_data, y_data)
        sq = x_sq[:, :, None] + y_sq[:, None, :] - 2.0 * dots
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def _finish(cost: np.ndarray, return_flags: bool):
    """Solve a cost stack and extract distances (and identity flags)."""
    batch, capacity, _ = cost.shape
    assignment = hungarian_batch(cost)
    b_idx = np.arange(batch)[:, None]
    rows = np.arange(capacity)
    distances = cost[b_idx, rows, assignment].sum(axis=1)
    if not return_flags:
        return distances
    # The identity alignment's cost is the trace of the padded matrix
    # (real pairs x_i <-> y_i, penalties for the surplus, zero for
    # virtual-virtual rows), summed the same way as the optimum.
    identity_cost = cost[:, rows, rows].sum(axis=1)
    return distances, identity_is_optimal(identity_cost, distances)


def match_many(
    query: np.ndarray | VectorSet | PaddedQuery,
    packed: PackedSets,
    indices: np.ndarray | None = None,
    return_flags: bool = False,
):
    """Minimal matching distances from one query to many packed sets.

    Parameters
    ----------
    query:
        ``(m, d)`` array, :class:`VectorSet`, or a
        :class:`PaddedQuery` from :meth:`PackedSets.pad_query` (reuse it
        to amortize padding across repeated calls for the same query).
    packed:
        The database, packed once via :meth:`PackedSets.pack`.
    indices:
        Optional subset of database indices (default: all sets).
    return_flags:
        Also return per-pair identity-alignment flags (Table 1, see
        :func:`repro.core.matching.identity_is_optimal`).

    Returns
    -------
    ``(len(indices),)`` distances, or ``(distances, is_identity)``.
    """
    prepared = query if isinstance(query, PaddedQuery) else packed.pad_query(query)
    if indices is None:
        y_data, y_sq = packed.data, packed.sq_norms
    else:
        indices = np.asarray(indices, dtype=np.intp)
        y_data = packed.data[indices]
        y_sq = packed.sq_norms[indices]
    cost = _cost_tensor(prepared.data, prepared.sq_norms, y_data, y_sq)
    return _finish(cost, return_flags)


def match_pairs(
    packed: PackedSets,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    right: PackedSets | None = None,
    return_flags: bool = False,
):
    """Minimal matching distances for explicit index pairs.

    ``right`` selects the ``j`` side from a second packed database (it
    must share capacity, dimension and omega); by default both indices
    address *packed*.  Used for pairwise matrices (``right=None``) and
    for many-sets-vs-database workloads.
    """
    if right is None:
        right = packed
    elif (
        right.capacity != packed.capacity
        or right.dimension != packed.dimension
        or not np.array_equal(right.omega, packed.omega)
    ):
        raise DistanceError("packed databases have incompatible layouts")
    i_idx = np.asarray(i_idx, dtype=np.intp)
    j_idx = np.asarray(j_idx, dtype=np.intp)
    if i_idx.shape != j_idx.shape or i_idx.ndim != 1:
        raise DistanceError("index arrays must be equal-length 1-D")
    cost = _cost_tensor(
        packed.data[i_idx], packed.sq_norms[i_idx], right.data[j_idx], right.sq_norms[j_idx]
    )
    return _finish(cost, return_flags)


# -- full pairwise matrices ---------------------------------------------------

_WORKER_PACKED: PackedSets | None = None


def _pairwise_worker_init(data, sizes, sq_norms, omega) -> None:
    global _WORKER_PACKED
    _WORKER_PACKED = PackedSets(data=data, sizes=sizes, sq_norms=sq_norms, omega=omega)


def _pairwise_worker(i_idx: np.ndarray, j_idx: np.ndarray, return_flags: bool):
    return match_pairs(_WORKER_PACKED, i_idx, j_idx, return_flags=return_flags)


def pairwise_matrix(
    sets: Sequence[np.ndarray | VectorSet],
    capacity: int | None = None,
    omega: np.ndarray | None = None,
    n_jobs: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    return_flags: bool = False,
):
    """Full symmetric minimal-matching distance matrix.

    Only the ``i < j`` half is computed (symmetric halving), in chunks
    of *chunk_size* pairs per kernel call.  With ``n_jobs`` greater
    than one (or ``-1`` for all cores) the chunks fan out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`; the packed tensor
    ships to each worker once via the pool initializer.

    Returns the ``(n, n)`` matrix, or ``(matrix, flags)`` with the
    boolean proper-permutation flags (*not* identity-aligned — the
    Table 1 statistic) when ``return_flags`` is set.
    """
    packed = PackedSets.pack(sets, capacity=capacity, omega=omega)
    n = packed.n
    matrix = np.zeros((n, n))
    flags = np.zeros((n, n), dtype=bool) if return_flags else None
    i_all, j_all = np.triu_indices(n, k=1)
    if chunk_size < 1:
        raise DistanceError("chunk_size must be >= 1")
    chunks = [
        slice(start, min(start + chunk_size, len(i_all)))
        for start in range(0, len(i_all), chunk_size)
    ]

    if n_jobs is not None and n_jobs < 0:
        n_jobs = os.cpu_count() or 1
    if n_jobs is None or n_jobs <= 1 or len(chunks) <= 1:
        outputs = [
            match_pairs(packed, i_all[sl], j_all[sl], return_flags=return_flags)
            for sl in chunks
        ]
    else:
        with ProcessPoolExecutor(
            max_workers=min(n_jobs, len(chunks)),
            initializer=_pairwise_worker_init,
            initargs=(packed.data, packed.sizes, packed.sq_norms, packed.omega),
        ) as pool:
            futures = [
                pool.submit(_pairwise_worker, i_all[sl], j_all[sl], return_flags)
                for sl in chunks
            ]
            outputs = [future.result() for future in futures]

    for sl, output in zip(chunks, outputs):
        distances, pair_flags = output if return_flags else (output, None)
        i_chunk, j_chunk = i_all[sl], j_all[sl]
        matrix[i_chunk, j_chunk] = distances
        matrix[j_chunk, i_chunk] = distances
        if return_flags:
            proper = ~pair_flags  # flag = optimal matching is NOT the identity
            flags[i_chunk, j_chunk] = proper
            flags[j_chunk, i_chunk] = proper
    if return_flags:
        return matrix, flags
    return matrix
