"""Per-layer tracing from outside the program.

The benchmark measures ``repro`` without changing it, so the traced run
wraps the public entry points of each layer from here: module-level
functions are replaced in every ``repro`` module that imported them, and
methods are replaced on their class.  Each wrapper records a span (host
``perf_counter`` start and end) on a per-thread stack, so a layer's
*self* time excludes the time of traced layers it called, and a call
nested inside a call of the same layer (a sharded store delegating to a
shard, the resilient executor delegating to its backend) counts once.

Only the calling process is traced: task functions that a process pool
runs in its workers are not seen, so on the ``process`` backend the
``common.*`` counts are the parent's share of the accounting.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer).  An attribute path with a dot names a
#: method on a class of that module.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.mrbgraph.store", "MRBGStore.get_chunk", "mrbgraph.get_chunk"),
    ("repro.mrbgraph.store", "MRBGStore.put_chunk", "mrbgraph.put_chunk"),
    ("repro.mrbgraph.store", "MRBGStore.end_merge", "mrbgraph.end_merge"),
    ("repro.mrbgraph.sharding", "ShardedMRBGStore.get_chunk", "mrbgraph.get_chunk"),
    ("repro.mrbgraph.sharding", "ShardedMRBGStore.put_chunk", "mrbgraph.put_chunk"),
    ("repro.mrbgraph.sharding", "ShardedMRBGStore.end_merge", "mrbgraph.end_merge"),
    ("repro.common.sizeof", "record_size", "common.record_size"),
    ("repro.common.hashing", "partition_for", "common.partition_for"),
    ("repro.common.hashing", "map_key", "common.map_key"),
    ("repro.common.hashing", "stable_hash", "common.stable_hash"),
    ("repro.common.kvpair", "sort_records", "common.sort_records"),
    ("repro.common.kvpair", "merge_sorted_runs", "common.merge_sorted_runs"),
    ("repro.iterative.engine", "run_full_iteration", "iterative.run_full_iteration"),
    ("repro.execution.base", "ExecutionBackend.run_tasks", "execution.run_tasks"),
    ("repro.inciter.engine", "I2MREngine.run_incremental", "inciter.run_incremental"),
    ("repro.incremental.engine", "IncrMREngine.run_incremental", "incremental.run_incremental"),
    ("repro.dfs.filesystem", "DistributedFS.write", "dfs.write"),
    ("repro.serving.server", "QueryServer.publish", "serving.publish"),
    ("repro.serving.server", "QueryServer.publish_delta", "serving.publish"),
    ("repro.serving.server", "QueryServer.get", "serving.get"),
    ("repro.serving.server", "QueryServer.multi_get", "serving.multi_get"),
    ("repro.serving.server", "QueryServer.range_scan", "serving.range_scan"),
    ("repro.serving.server", "QueryServer.top_k", "serving.top_k"),
    ("repro.streaming.consumers", "IterativeStreamConsumer.state", "streaming.consumer_state"),
    ("repro.streaming.consumers", "OneStepStreamConsumer.state", "streaming.consumer_state"),
    ("repro.streaming.consumers", "IterativeStreamConsumer.process_batch", "streaming.process_batch"),
    ("repro.streaming.consumers", "OneStepStreamConsumer.process_batch", "streaming.process_batch"),
    ("repro.serving.server", "ServingBridge.__call__", "streaming.listeners"),
)

LAYERS = tuple(sorted({layer for _, _, layer in TARGETS}))
_SUPERSTEP = "iterative.run_full_iteration"


class LayerTotals:
    """Accumulated calls, self time and inclusive time of one layer."""

    __slots__ = ("calls", "self_s", "incl_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        #: layer-specific counters (tasks, shipped bytes, ...).
        self.extra: Dict[str, float] = {}

    def add_extra(self, name: str, amount: float) -> None:
        self.extra[name] = self.extra.get(name, 0.0) + amount

    def add(self, other: "LayerTotals") -> None:
        """Accumulate ``other`` into this total."""
        self.calls += other.calls
        self.self_s += other.self_s
        self.incl_s += other.incl_s
        for name, amount in other.extra.items():
            self.add_extra(name, amount)

    def minus(self, other: "LayerTotals") -> "LayerTotals":
        """What accumulated since ``other`` was snapshotted."""
        diff = LayerTotals()
        diff.calls = self.calls - other.calls
        diff.self_s = self.self_s - other.self_s
        diff.incl_s = self.incl_s - other.incl_s
        for name, amount in self.extra.items():
            diff.extra[name] = amount - other.extra.get(name, 0.0)
        return diff


class Tracer:
    """Installs and removes the layer wrappers; sums spans per layer."""

    def __init__(self) -> None:
        self._originals: List[Tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: List[Tuple[str, Dict[str, LayerTotals]]] = []
        self._hooks: Dict[str, _Hook] = {
            "execution.run_tasks": _RunTasksHook(),
            "dfs.write": _DFSWriteHook(),
        }

    # -------------------------------------------------------------- #
    # accounting                                                     #
    # -------------------------------------------------------------- #

    def _totals(self) -> Dict[str, LayerTotals]:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = {layer: LayerTotals() for layer in LAYERS}
            self._local.totals = totals
            self._local.stack = []
            with self._lock:
                self._per_thread.append((threading.current_thread().name, totals))
        return totals

    def snapshot(self, thread: Optional[str] = None) -> Dict[str, LayerTotals]:
        """Totals so far, of one named thread or summed over all."""
        merged = {layer: LayerTotals() for layer in LAYERS}
        with self._lock:
            threads = [t for name, t in self._per_thread if thread in (None, name)]
        for totals in threads:
            for layer, t in totals.items():
                merged[layer].add(t)
        return merged

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        tracer = self
        hook = self._hooks.get(layer)
        # run_tasks time spent inside a superstep, for the parent's serial share
        tasks_in_superstep = layer == "execution.run_tasks"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            totals = tracer._totals()
            stack = tracer._local.stack
            nested = bool(stack) and stack[-1][0] == layer
            # frame = [layer, child seconds]
            frame = [layer, 0.0]
            stack.append(frame)
            before = hook.before(args) if hook and not nested else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                t = totals[layer]
                t.self_s += elapsed - frame[1]
                if not nested:
                    t.calls += 1
                    t.incl_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
                    if tasks_in_superstep and not nested and any(
                        f[0] == _SUPERSTEP for f in stack
                    ):
                        totals[_SUPERSTEP].add_extra("run_tasks_s", elapsed)
            if hook and not nested:
                hook.after(t, args, result, before)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def settle(self) -> None:
        """Finish deferred hook work; call outside any timed region."""
        self._hooks["execution.run_tasks"].settle()

    # -------------------------------------------------------------- #
    # patching                                                       #
    # -------------------------------------------------------------- #

    def install(self) -> None:
        """Wrap every target; idempotent."""
        if self._originals:
            return
        functions: Dict[int, Callable] = {}
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._originals.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, layer))
            else:
                original = getattr(module, attr)
                functions[id(original)] = self._wrap(original, layer)
        # A module-level function is imported by name into its callers, so
        # every repro module's reference to it is replaced.
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapped = functions.get(id(value))
                if wrapped is not None and wrapped.__perfbench_original__ is value:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original; idempotent."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


class _Hook:
    """Layer-specific counters read around an outermost call.

    Hooks run outside the timed span and must stay cheap; costly work
    (pickling) is deferred to :meth:`Tracer.settle`.
    """

    def before(self, args: tuple) -> Any:
        return None

    def after(self, totals: LayerTotals, args: tuple, result: Any, before: Any) -> None:
        pass


class _RunTasksHook(_Hook):
    """Tasks, shipped payloads, in-process fallbacks and retries.

    ``args`` is ``(backend, fn, payloads[, picklable])``.  The outermost
    backend is usually a ``ResilientExecutor`` whose ``current_backend()``
    is the pool that ran the batch.
    """

    def __init__(self) -> None:
        self.shipped: List[Tuple[LayerTotals, Callable, List[Any]]] = []

    @staticmethod
    def _inner(backend: Any) -> Any:
        current = getattr(backend, "current_backend", None)
        return current() if callable(current) else backend

    def before(self, args: tuple) -> Any:
        backend = args[0]
        inner = self._inner(backend)
        return (
            backend.stats.retries,
            inner.stats.inproc_fallbacks,
            inner.stats.batches,
        )

    def after(self, totals: LayerTotals, args: tuple, result: Any, before: Any) -> None:
        backend, fn, payloads = args[0], args[1], args[2]
        inner = self._inner(backend)
        totals.add_extra("tasks", len(result))
        totals.add_extra("retries", backend.stats.retries - before[0])
        fallbacks = inner.stats.inproc_fallbacks - before[1]
        batches = inner.stats.batches - before[2]
        totals.add_extra("pool_batches", batches)
        totals.add_extra("inproc_fallbacks", fallbacks)
        if getattr(inner, "name", "") == "process" and batches > fallbacks:
            self.shipped.append((totals, fn, list(payloads)))

    def settle(self) -> None:
        """Size what the pool shipped: the task function and each payload."""
        for totals, fn, payloads in self.shipped:
            nbytes = len(pickle.dumps(fn)) * len(payloads)
            nbytes += sum(len(pickle.dumps(p)) for p in payloads)
            totals.add_extra("shipped_bytes", nbytes)
        self.shipped.clear()


class _DFSWriteHook(_Hook):
    """Bytes staged through ``DistributedFS.write``."""

    def after(self, totals: LayerTotals, args: tuple, result: Any, before: Any) -> None:
        totals.add_extra("bytes", result.size_bytes)
