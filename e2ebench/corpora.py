"""Seeded input generators owned by the benchmark.

Everything a workload sends to the program is made here, so the same
seed always gives the same inputs.  Each workload's catalog is a fixed
dataset, as the paper's are: every run searches the same catalog, made
from ``CATALOG_SEED``, and the workload seed draws the query and
operation streams.  The generators deliberately do not import the
program's own bench code: the benchmark must keep measuring the same
inputs while that code is moved or rewritten.
"""

from __future__ import annotations

import numpy as np

#: Element dimension of a cover vector set (position + extent per axis).
DIM = 6
#: Cardinality bound k of the vector-set model (the paper's k = 7).
SET_K = 7
#: Coordinate spread of the synthetic vector-set corpora.
SPREAD = 100.0
#: Part families per vector-set corpus.
FAMILIES = 24
#: Seed of the fixed catalogs (not the workload seed, see above).
CATALOG_SEED = 1903


def rng_for(seed: int, *tags: int | str) -> np.random.Generator:
    """An independent generator per (seed, tag...) stream."""
    words = [int(seed)]
    for tag in tags:
        if isinstance(tag, str):
            words.extend(tag.encode("utf-8"))
        else:
            words.append(int(tag))
    return np.random.default_rng(np.random.SeedSequence(words))


class SetFamilies:
    """Part-family prototypes for a synthetic vector-set corpus.

    Each object is a prototype set of ``SET_K`` cover vectors plus tight
    Gaussian noise (sigma = 4% of the spread); one object in twenty is a
    ragged uniform outlier with 1..k vectors.  With ``degenerate=True``
    every prototype is re-centred onto one global centroid, so the
    extended centroid carries no family signal and the centroid filter
    must refine nearly the whole corpus; otherwise families keep
    distinct centroids and the filter prunes as it does on real parts.
    """

    def __init__(self, rng: np.random.Generator, *, degenerate: bool):
        self.prototypes = rng.uniform(0.0, SPREAD, size=(FAMILIES, SET_K, DIM))
        if degenerate:
            center = np.full(DIM, SPREAD / 2.0)
            self.prototypes += (center - self.prototypes.mean(axis=1))[:, None, :]

    def member(self, rng: np.random.Generator) -> np.ndarray:
        family = int(rng.integers(0, FAMILIES))
        return self.prototypes[family] + rng.normal(0.0, SPREAD * 0.04, (SET_K, DIM))

    @staticmethod
    def outlier(rng: np.random.Generator) -> np.ndarray:
        m = int(rng.integers(1, SET_K + 1))
        return rng.uniform(0.0, SPREAD, size=(m, DIM))

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One new object: an outlier one time in twenty, else a member."""
        if rng.random() < 0.05:
            return self.outlier(rng)
        return self.member(rng)

    def corpus(self, rng: np.random.Generator, n: int) -> list[np.ndarray]:
        sets = [self.member(rng) for _ in range(n)]
        for i in range(max(1, n // 20)):
            sets[i] = self.outlier(rng)
        return sets


def near_duplicate(rng: np.random.Generator, vectors: np.ndarray) -> np.ndarray:
    """A query set: a stored set with unit Gaussian noise on every entry."""
    return vectors + rng.normal(0.0, 1.0, size=vectors.shape)


def aircraft_parts(seed: int, tag: str, n: int):
    """*n* seeded aircraft-style CAD parts (analytic solids).

    The program's dataset generator takes one integer seed; it is
    derived from the workload seed and *tag*, so catalog and query
    streams never share a part by accident.
    """
    from repro.datasets import make_aircraft_dataset

    derived = int(rng_for(seed, "aircraft", tag).integers(0, 2**31 - 1))
    parts, _labels = make_aircraft_dataset(n, seed=derived)
    return parts

