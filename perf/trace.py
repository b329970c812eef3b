"""Outside-in tracing: wrappers around the program's public callables.

The benchmark never edits ``src/``.  A traced run instead replaces a
fixed list of public methods with timing wrappers for as long as the
:class:`Tracer` is installed, and puts the originals back afterwards.

Two kinds of wrapper:

* **span** callables (one call per micro-batch, or per tuple at batch
  size 1) record ``(name, start, end, parent, batch)`` in memory and add
  their duration to the enclosing span's child time, so a layer's *self*
  time is its spans' duration minus what its child spans cover;
* **count** callables (B+-tree inserts and range searches: thousands of
  calls per batch) only add to a per-name call count and total time.
  They are a breakdown *inside* the span that calls them, not a layer.

Every second inside a top-level span therefore lands in the self time
of exactly one span layer.  Spans are written out as JSON lines when the
run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "LOCAL_TARGETS", "SIM_TARGETS", "SHARDED_TARGETS"]

_clock = time.perf_counter

#: (module, class or None for a module-level function, attribute, layer
#: name, kind) for the local operator.  ``range_search`` is a generator;
#: its wrapper drains it inside the timed region so the leaf scan is
#: charged to the tree, not the caller.
LOCAL_TARGETS: List[Tuple[str, Optional[str], str, str, str]] = [
    ("repro.core.arena", "ArenaSlice", "of", "core.arena.stamp", "span"),
    ("repro.core.spojoin", "SPOJoin", "process_many", "core.spojoin.process", "span"),
    ("repro.core.spojoin", "SPOJoin", "process", "core.spojoin.process", "span"),
    ("repro.core.spojoin", "SPOJoin", "merge", "core.spojoin.merge", "span"),
    ("repro.core.mutable", "MutableComponent", "insert_many", "core.mutable.insert", "span"),
    ("repro.core.mutable", "MutableComponent", "insert", "core.mutable.insert", "span"),
    ("repro.core.mutable", "MutableComponent", "evaluate_batch", "core.mutable.probe", "span"),
    ("repro.core.mutable", "MutableComponent", "evaluate", "core.mutable.probe", "span"),
    ("repro.core.mutable", "MutableComponent", "drain_runs", "core.mutable.drain", "span"),
    ("repro.core.pojoin", "POJoinList", "probe_all_batch", "core.pojoin.probe", "span"),
    ("repro.core.pojoin", "POJoinList", "probe_all", "core.pojoin.probe", "span"),
    ("repro.indexes.bptree", "BPlusTree", "insert", "indexes.bptree.insert", "count"),
    ("repro.indexes.bptree", "BPlusTree", "range_search", "indexes.bptree.range_search", "drain"),
]

#: The simulated topology is measured through ``RunResult`` and the
#: program's own ``Observer``; wrapping operator code would change the
#: service times the simulator charges, so only the run itself is a span.
SIM_TARGETS = [
    ("repro.dspe.engine", "Engine", "run", "dspe.engine.run", "span"),
]

SHARDED_TARGETS = [
    ("repro.parallel.executor", "ParallelExecutor", "run", "parallel.executor.run", "span"),
    ("repro.parallel", None, "reduce_sharded_result", "parallel.spo_shard.reduce", "span"),
]


class Tracer:
    """Collects spans and counts; installs and removes the wrappers."""

    def __init__(self) -> None:
        #: Finished spans: [name, start, end, parent index or -1, batch].
        self.spans: List[list] = []
        #: Per layer: [calls, total seconds, self seconds, max seconds].
        self.layers: Dict[str, List[float]] = {}
        #: Calls per wrapped attribute, e.g. ``"POJoinList.probe_all"``.
        self.calls: Dict[str, int] = {}
        #: The benchmark loop sets this so spans carry their batch index.
        self.batch = -1
        self._open: List[list] = []  # [span index, child seconds]
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _layer(self, name: str) -> List[float]:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = [0, 0.0, 0.0, 0.0]
        return layer

    def _span_wrapper(self, name: str, key: str, fn: Callable) -> Callable:
        spans, open_, layer = self.spans, self._open, self._layer(name)
        calls = self.calls
        calls.setdefault(key, 0)

        def traced(*args, **kwargs):
            parent = open_[-1][0] if open_ else -1
            span = [name, 0.0, 0.0, parent, self.batch]
            frame = [len(spans), 0.0]
            spans.append(span)
            open_.append(frame)
            span[1] = start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = end = _clock()
                open_.pop()
                took = end - start
                calls[key] += 1
                layer[0] += 1
                layer[1] += took
                layer[2] += took - frame[1]
                if took > layer[3]:
                    layer[3] = took
                if open_:
                    open_[-1][1] += took

        return traced

    def _count_wrapper(self, name: str, fn: Callable, drain: bool) -> Callable:
        layer = self._layer(name)

        def counted(*args, **kwargs):
            start = _clock()
            try:
                if drain:
                    return iter(list(fn(*args, **kwargs)))
                return fn(*args, **kwargs)
            finally:
                layer[0] += 1
                layer[1] += _clock() - start

        return counted

    # -- install / remove -----------------------------------------------
    def install(self, targets=LOCAL_TARGETS) -> None:
        """Replace each target attribute with its wrapper."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module, owner_name, attr, name, kind in targets:
            owner = importlib.import_module(module)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if kind == "span":
                wrapped = self._span_wrapper(name, f"{owner_name}.{attr}", fn)
            else:
                wrapped = self._count_wrapper(name, fn, drain=kind == "drain")
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, raw))

    def remove(self) -> None:
        """Put every original attribute back."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reading --------------------------------------------------------
    def calls_of(self, name: str) -> int:
        return int(self._layer(name)[0])

    def total_s(self, name: str) -> float:
        return self._layer(name)[1]

    def self_s(self, name: str) -> float:
        return self._layer(name)[2]

    def max_s(self, name: str) -> float:
        return self._layer(name)[3]

    def top_level_s(self) -> float:
        """Seconds covered by spans that have no parent."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def write_spans(self, path: str) -> int:
        with open(path, "w") as fh:
            for index, (name, start, end, parent, batch) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "batch": batch,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)
