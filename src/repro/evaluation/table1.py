"""Table 1: percentage of proper permutations.

"In most of all distance calculations carried out during an OPTICS run
there was at least one permutation necessary to compute the minimal
matching distance" — Table 1 reports, per cover count k, the share of
minimal-matching computations for which the identity alignment (the
greedy/volume-ranked cover order) is *not* an optimal matching: its cost
exceeds the optimum by more than a relative 1e-12, so the answer does not
depend on which of several tied optima a solver returns.

Paper values (Car dataset):  k=3: 68.2 %, k=5: 95.1 %, k=7: 99.0 %,
k=9: 99.4 %.

We count the statistic over exactly the distance computations an OPTICS
run performs (every processed object computes its full distance row, so
all ordered pairs are evaluated once), using the cached pair flags from
:func:`repro.evaluation.experiments.distance_matrix_for`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.optics import distance_rows_from_matrix, optics
from repro.evaluation.experiments import (
    DatasetBundle,
    distance_matrix_for,
    extract_features,
    prepare_dataset,
)
from repro.features.vector_set_model import VectorSetModel


@dataclass(frozen=True)
class PermutationRateRow:
    """One row of Table 1."""

    covers: int
    permutation_rate: float  # fraction in [0, 1]
    pairs_counted: int
    mean_set_size: float


def permutation_rate_for_k(
    bundle: DatasetBundle, k: int, use_cache: bool = True
) -> PermutationRateRow:
    """Compute the proper-permutation rate for one cover count."""
    model = VectorSetModel(k=k)
    features = extract_features(bundle, model, use_cache=use_cache)
    # "v2": flags mark pairs whose identity alignment costs more than
    # the optimum; caches from before hold the solver's tie choice.
    tag = f"table1v2_{bundle.dataset}_n{bundle.n}_k{k}"
    matrix, flags = distance_matrix_for(
        bundle, features, kind="matching", cache_tag=tag, use_cache=use_cache
    )
    assert flags is not None
    # Run OPTICS so the statistic covers a real clustering run (it
    # evaluates every ordered pair once via full distance rows).
    optics(bundle.n, distance_rows_from_matrix(matrix), min_pts=5)
    upper = np.triu_indices(bundle.n, 1)
    rate = float(flags[upper].mean())
    sizes = np.array([len(f) for f in features], dtype=float)
    return PermutationRateRow(
        covers=k,
        permutation_rate=rate,
        pairs_counted=len(upper[0]),
        mean_set_size=float(sizes.mean()),
    )


def run_table1(
    ks: tuple[int, ...] = (3, 5, 7, 9),
    dataset: str = "car",
    use_cache: bool = True,
) -> list[PermutationRateRow]:
    """Reproduce Table 1 on the (synthetic) Car dataset."""
    bundle = prepare_dataset(dataset, resolution=15, use_cache=use_cache)
    return [permutation_rate_for_k(bundle, k, use_cache=use_cache) for k in ks]
