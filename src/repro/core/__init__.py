"""Core contribution: vector sets, minimal matching distance, filter step.

This subpackage implements Section 4 of the paper:

* :mod:`repro.core.vector_set` — the vector set representation,
* :mod:`repro.core.matching` — the Kuhn–Munkres (Hungarian) assignment:
  scipy's ``linear_sum_assignment`` as the one production solver and a
  from-scratch O(k^3) implementation as the test oracle,
* :mod:`repro.core.min_matching` — the minimal matching distance
  (Definition 6) with pluggable weight functions,
* :mod:`repro.core.permutation` — the minimum Euclidean distance under
  permutation (Definitions 3/4), both brute force and via matching,
* :mod:`repro.core.centroid` — extended centroids and the Lemma 2 lower
  bound used as a filter step,
* :mod:`repro.core.queries` — filter-and-refine ε-range and optimal
  multi-step k-nn query processing,
* :mod:`repro.core.batch` — batched minimal-matching kernels over
  omega-padded packed tensors and a parallel pairwise-distance engine.
"""

from repro.core.batch import (
    PackedSets,
    hungarian_batch,
    match_many,
    match_pairs,
    pairwise_matrix,
)
from repro.core.centroid import (
    centroid_lower_bound,
    extended_centroid,
    norm_weight,
)
from repro.core.matching import hungarian, assignment_cost
from repro.core.min_matching import (
    MatchResult,
    min_matching_distance,
    min_matching_match,
    vector_set_distance,
)
from repro.core.partial import best_common_substructure, partial_matching_distance
from repro.core.permutation import (
    permutation_distance_bruteforce,
    permutation_distance_via_matching,
)
from repro.core.queries import FilterRefineEngine, QueryStats
from repro.core.ranking import incremental_ranking
from repro.core.vector_set import VectorSet

__all__ = [
    "VectorSet",
    "hungarian",
    "assignment_cost",
    "MatchResult",
    "min_matching_distance",
    "min_matching_match",
    "vector_set_distance",
    "permutation_distance_bruteforce",
    "permutation_distance_via_matching",
    "partial_matching_distance",
    "best_common_substructure",
    "extended_centroid",
    "centroid_lower_bound",
    "norm_weight",
    "FilterRefineEngine",
    "QueryStats",
    "incremental_ranking",
    "PackedSets",
    "hungarian_batch",
    "match_many",
    "match_pairs",
    "pairwise_matrix",
]
