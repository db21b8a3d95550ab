"""Per-layer tracing from the benchmark's own files.

The traced run wraps each layer's functions at the name its caller
resolves (a module attribute, or a class attribute reached through an
instance), records one span per call, and restores the originals
after each traced operation.  The program itself is not modified and has no tracing of
its own on this path; its ``repro.obs`` layer stays disabled.

A span's *self time* is its duration minus the durations of the hooked
spans nested in it.  A layer metric sums self times, so nested layers
are never counted twice, and a layer that calls into itself (the
refine kernel calling the solver) sums back to its inclusive time.
Every span is attributed to the kind of the benchmark operation it ran
under (``exact``, ``approx``, ``write``, ``checkpoint``).
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Hook:
    """One wrapped function: where it lives and what it measures.

    ``path`` is ``Attr`` or ``Class.attr`` inside ``module``.  ``kind``
    is ``"call"`` or ``"gen"`` (a generator: each ``next`` is a span).
    ``pre(args, kwargs)`` runs before the call and its result is handed
    to ``post(state, args, kwargs, result)``, which returns counts to
    add to the span.  ``leg`` marks a scatter leg of a sharded query.
    """

    name: str
    module: str
    path: str
    kind: str = "call"
    pre: Callable | None = None
    post: Callable | None = None
    leg: bool = False


def _page_accesses(args, kwargs):
    return args[0].pages.cost.page_accesses


def _wal_size(args, kwargs):
    return args[0].size


HOOKS = [
    Hook("voxel.voxelize_solid", "repro.voxel.voxelize", "voxelize_solid"),
    Hook("normalize.process_grid", "repro.pipeline", "Pipeline.process_grid"),
    Hook(
        "features.extract",
        "repro.features.vector_set_model",
        "VectorSetModel.extract",
        post=lambda s, a, k, r: {"covers": len(r)},
    ),
    Hook(
        "index.ranking_chunks",
        "repro.index.arraycore",
        "RTreeArrayCore.ranking_chunks",
        kind="gen",
        pre=_page_accesses,
        post=lambda s, a, k, r: {"pages": a[0].pages.cost.page_accesses - s},
    ),
    Hook("index.insert", "repro.index.rstar", "RStarTree.insert"),
    Hook("index.delete", "repro.index.rstar", "RStarTree.delete"),
    Hook("index.densify", "repro.index.arraycore", "densify"),
    Hook("queries.engine_build", "repro.db.core", "FilterRefineEngine"),
    Hook(
        "batch.match_many",
        "repro.core.batch",
        "match_many",
        post=lambda s, a, k, r: {"pairs": len(r)},
    ),
    Hook("batch.cost_tensor", "repro.core.batch", "_cost_tensor"),
    Hook("batch.solve", "repro.core.batch", "hungarian_batch"),
    Hook("approx.sketch", "repro.approx.sketch", "SetSketcher.sketch"),
    Hook("approx.shortlist", "repro.approx.hamming", "HammingIndex.shortlist"),
    Hook("approx.hamming", "repro.approx.hamming", "HammingIndex.distances"),
    Hook(
        "approx.refine_subset",
        "repro.core.queries",
        "FilterRefineEngine.knn_refine_subset",
        post=lambda s, a, k, r: {"shortlist": r[1].exact_computations},
        leg=True,
    ),
    Hook(
        "wal.append",
        "repro.wal",
        "WriteAheadLog.append",
        pre=_wal_size,
        post=lambda s, a, k, r: {"bytes": a[0].size - s},
    ),
    Hook("db.checkpoint", "repro.db.core", "SimilarityDatabase.checkpoint"),
    Hook(
        "db.write_archive",
        "repro.db.core",
        "write_archive",
        post=lambda s, a, k, r: {"bytes": os.path.getsize(a[0])},
    ),
    Hook("sharded.query", "repro.db.sharded", "ShardedSimilarityDatabase.knn_query"),
    Hook("sharded.leg", "repro.db.core", "DatabaseView.knn_query", leg=True),
    Hook(
        "sharded.merge_matches",
        "repro.db.sharded",
        "ShardedSimilarityDatabase._merge_matches",
    ),
    Hook(
        "sharded.merge_stats",
        "repro.db.sharded",
        "ShardedSimilarityDatabase._merge_stats",
    ),
]


class _Frame:
    __slots__ = ("name", "children")

    def __init__(self, name: str):
        self.name = name
        self.children = 0.0


@dataclass
class _Total:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Span stack plus per-(operation kind, span name) totals."""

    def __init__(self):
        #: Totals by (operation kind, span name).
        self.totals: dict[tuple[str, str], _Total] = defaultdict(_Total)
        self.ops: dict[str, int] = defaultdict(int)
        self.leg_max_s: dict[str, float] = defaultdict(float)
        self.leg_ops: dict[str, int] = defaultdict(int)
        self.missing: dict[str, str] = {}
        #: Readings the benchmark adds itself: query stats, cache
        #: counters, tracing overhead.
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []
        self._kind = ""
        self._op_leg_max = 0.0
        self._hooks: list[tuple[object, str, object, object]] = []

    # -- spans -----------------------------------------------------------

    @contextmanager
    def op(self, kind: str):
        """The root span of one benchmark operation."""
        self._kind = kind
        self._op_leg_max = 0.0
        root = _Frame("op")
        self._stack = [root]
        try:
            yield
        finally:
            self._stack = []
            self.ops[kind] += 1
            if self._op_leg_max:
                self.leg_max_s[kind] += self._op_leg_max
                self.leg_ops[kind] += 1

    def _open(self, name: str) -> _Frame:
        frame = _Frame(name)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame, seconds: float, counts: dict | None, leg: bool):
        self._stack.pop()
        if self._stack:
            self._stack[-1].children += seconds
        total = self.totals[(self._kind, frame.name)]
        total.calls += 1
        total.self_s += seconds - frame.children
        if counts:
            for key, value in counts.items():
                total.counts[key] += value
        if leg and any(f.name == "sharded.query" for f in self._stack):
            self._op_leg_max = max(self._op_leg_max, seconds)

    # -- hooks -----------------------------------------------------------

    def _wrap_call(self, hook: Hook, original):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self._stack:  # outside any benchmark operation
                return original(*args, **kwargs)
            state = hook.pre(args, kwargs) if hook.pre else None
            frame = self._open(hook.name)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(frame, clock() - start, None, hook.leg)
                raise
            seconds = clock() - start
            counts = hook.post(state, args, kwargs, result) if hook.post else None
            self._close(frame, seconds, counts, hook.leg)
            return result

        return traced

    def _wrap_gen(self, hook: Hook, original):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            try:
                while True:
                    if not self._stack:
                        item = next(inner, _DONE)
                    else:
                        state = hook.pre(args, kwargs) if hook.pre else None
                        frame = self._open(hook.name)
                        start = clock()
                        item = next(inner, _DONE)
                        seconds = clock() - start
                        counts = None
                        if hook.post is not None:
                            counts = hook.post(state, args, kwargs, item)
                        self._close(frame, seconds, counts, hook.leg)
                    if item is _DONE:
                        return
                    yield item
            finally:
                inner.close()

        return traced

    def install(self, hooks=HOOKS) -> None:
        """Resolve every hook and build its wrapper; unresolvable ones
        become missing.  Nothing is wrapped until :meth:`attach`."""
        for hook in hooks:
            try:
                owner = importlib.import_module(hook.module)
                *outer, attr = hook.path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing[hook.name] = (
                    f"{hook.module}.{hook.path} not found ({type(exc).__name__})"
                )
                continue
            is_static = isinstance(raw, staticmethod)
            original = raw.__func__ if is_static else raw
            wrap = self._wrap_gen if hook.kind == "gen" else self._wrap_call
            wrapped = wrap(hook, original)
            self._hooks.append(
                (owner, attr, raw, staticmethod(wrapped) if is_static else wrapped)
            )

    def attach(self) -> None:
        """Put every wrapper in place of its function."""
        for owner, attr, _raw, wrapped in self._hooks:
            setattr(owner, attr, wrapped)

    def detach(self) -> None:
        """Restore every original function."""
        for owner, attr, raw, _wrapped in self._hooks:
            setattr(owner, attr, raw)

    # -- readings --------------------------------------------------------

    def _totals(self, names, kinds):
        keys = [(k, n) for k in kinds for n in names]
        return [self.totals[key] for key in keys if key in self.totals]

    def calls(self, names, kinds) -> int:
        return sum(t.calls for t in self._totals(names, kinds))

    def self_ms(self, names, kinds) -> float:
        return 1e3 * sum(t.self_s for t in self._totals(names, kinds))

    def count(self, names, key, kinds) -> float:
        return sum(t.counts.get(key, 0.0) for t in self._totals(names, kinds))

    def fired(self, name: str) -> bool:
        return any(n == name and t.calls for (_, n), t in self.totals.items())


_DONE = object()
