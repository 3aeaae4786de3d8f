"""Layer spans for the traced benchmark run.

A :class:`Tracer` records one span per call at each layer boundary the
benchmark cares about.  Spans nest through an explicit stack, so a layer's
*self* time is its span's duration minus the time its child spans cover.
Durations are integer nanoseconds, so the self times of all spans add up
exactly to the time the outermost spans cover, and the traced wall time is
that plus an unattributed remainder.  Garbage collections get a span of
their own (``runtime.gc``) wherever they interrupt.

The program under test is not edited: :meth:`Tracer.installed` wraps the
public functions listed in :data:`LAYER_PATCHES` on their classes and
modules for the duration of one ``with`` block and puts the originals back
on exit.  Class-level wrappers leave instances picklable, which the
checkpoint and serving layers need.  Installing over an already-traced
function raises instead of silently counting a call twice.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, owner, attribute, span name)``.  ``owner`` is a class name in
#: ``module`` or ``None`` for a module-level function.  Every module that
#: imported a function by name gets its own entry, because the name is looked
#: up in the importing module at call time.  The span name ``"role"`` names
#: the span after the object called (see :attr:`Tracer.roles`), for a method
#: whose layer depends on it: a shard's ingestor vs. the top-level one.
LAYER_PATCHES: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.relational.relation", "Relation", "insert_many", "relational.insert_many"),
    ("repro.relational.join", None, "count_results", "relational.count_results"),
    ("repro.core.turnstile", None, "count_results", "relational.count_results"),
    ("repro.ingest.shard", None, "count_results", "relational.count_results"),
    ("repro.index.dynamic_index", "DynamicJoinIndex", "insert_rows", "index.insert_rows"),
    ("repro.index.dynamic_index", "DynamicJoinIndex", "delete", "index.delete"),
    ("repro.index.dynamic_index", "DynamicJoinIndex", "sample", "index.sample"),
    ("repro.index.tree_index", "TreeIndex", "delta_batch_sizes", "index.delta_batch_sizes"),
    ("repro.index.tree_index", "TreeIndex", "delta_batch", "index.delta_batch"),
    ("repro.core.reservoir_join", "ReservoirJoin", "insert_batch", "join.ingest"),
    ("repro.core.reservoir_join", "ReservoirJoin", "ingest_columnar", "join.ingest"),
    (
        "repro.core.batch_reservoir",
        "BatchedPredicateReservoir",
        "process_deferred_many",
        "reservoir.process_deferred_many",
    ),
    (
        "repro.core.batch_reservoir",
        "BatchedPredicateReservoir",
        "rebase_population",
        "reservoir.rebase_population",
    ),
    ("repro.core.turnstile", "TurnstileReservoirJoin", "ingest_batch", "turnstile.ingest_batch"),
    ("repro.ingest.batch", "BatchIngestor", "ingest_batch", "role"),
    ("repro.ingest.shard", "ShardedIngestor", "ingest_batch", "shard.route"),
    ("repro.ingest.shard", "ShardedIngestor", "shard_counts", "serve.shard_counts"),
    ("repro.serve.server", "SampleServer", "snapshot", "serve.snapshot"),
    ("repro.serve.server", "SampleServer", "sample", "serve.read"),
    ("repro.serve.server", "SampleServer", "merged_sample", "serve.read"),
    ("repro.serve.server", None, "snapshot_backend", "serve.snapshot_backend"),
    ("repro.serve.server", None, "restore_backend", "serve.restore_backend"),
]

#: Span name -> the layer (module) it belongs to, for the per-layer split.
LAYER_OF: Dict[str, str] = {
    "relational.insert_many": "relational",
    "relational.count_results": "relational",
    "index.insert_rows": "index",
    "index.delete": "index",
    "index.sample": "index",
    "index.delta_batch_sizes": "index",
    "index.delta_batch": "index",
    "join.ingest": "core.reservoir_join",
    "reservoir.process_deferred_many": "core.reservoir",
    "reservoir.rebase_population": "core.reservoir",
    "turnstile.ingest_batch": "core.turnstile",
    "ingest.batch": "ingest.batch",
    "shard.route": "ingest.shard",
    "shard.apply": "ingest.shard",
    "checkpoint.save": "ingest.checkpoint",
    "checkpoint.restore": "ingest.checkpoint",
    "serve.snapshot": "serve",
    "serve.read": "serve",
    "serve.shard_counts": "serve",
    "serve.snapshot_backend": "serve",
    "serve.restore_backend": "serve",
    "runtime.gc": "runtime.gc",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    """Nested spans with self-time accounting, kept in memory."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: ``id(obj) -> span name`` for methods patched with the ``"role"``
        #: name; objects not registered fall back to ``ingest.batch``.
        self.roles: Dict[int, str] = {}
        self._children_ns: List[int] = []
        self._starts_ns: List[int] = []

    def _enter(self) -> None:
        self._children_ns.append(0)
        self._starts_ns.append(time.perf_counter_ns())

    def _exit(self, name: str) -> None:
        duration = time.perf_counter_ns() - self._starts_ns.pop()
        children = self._children_ns.pop()
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - children
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._children_ns:
            self._children_ns[-1] += duration

    @contextmanager
    def span(self, name: str):
        """Time the ``with`` body as one call of span ``name``."""
        self._enter()
        try:
            yield
        finally:
            self._exit(name)

    def _on_gc(self, phase: str, info: dict) -> None:
        """Garbage collections are a span of their own, wherever they run."""
        if phase == "start":
            self._enter()
        else:
            self._exit("runtime.gc")

    def _wrap(self, function: Callable, name: str) -> Callable:
        span, roles = self.span, self.roles

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with span(roles.get(id(args[0]), "ingest.batch") if name == "role" else name):
                return function(*args, **kwargs)

        traced.__perfbench_traced__ = True
        return traced

    @contextmanager
    def installed(self):
        """Wrap every patch target (and time every garbage collection) for
        the ``with`` body, then restore everything."""
        undo: List[Tuple[object, str, object]] = []
        gc.callbacks.append(self._on_gc)
        try:
            for module_name, owner_name, attribute, name in LAYER_PATCHES:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = vars(owner)[attribute]
                if getattr(original, "__perfbench_traced__", False):
                    raise RuntimeError(
                        f"{module_name}.{owner_name or ''}.{attribute} is already traced"
                    )
                setattr(owner, attribute, self._wrap(original, name))
                undo.append((owner, attribute, original))
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)


def layer_seconds(self_ns: Dict[str, int]) -> Dict[str, float]:
    """Span self times (ns) summed per layer (module), in seconds."""
    layers: Dict[str, float] = {}
    for name, ns in self_ns.items():
        layer = LAYER_OF.get(name, name)
        layers[layer] = layers.get(layer, 0.0) + ns / 1e9
    return layers
