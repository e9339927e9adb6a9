"""Spark-like in-memory baseline (§8.7).

A minimal RDD-style execution model: the structure data is loaded and
parsed once, co-partitioned with ``partitionBy`` and cached in memory;
each iteration maps over the cached partitions, shuffles contributions
and reduces into a *new* state RDD (RDDs are read-only, §8.7).

The cost model captures what Fig 12 measures:

- no per-iteration job startup (a lightweight scheduler tick instead);
- in-memory reads are free of disk cost while the working set fits the
  cluster's aggregate memory;
- when the working set (cached structure + a couple of live state RDD
  generations + shuffle buffers) exceeds aggregate memory, the excess
  fraction spills: it is written and re-read from disk every iteration
  with a serialization penalty — Spark's performance "is not
  satisfactory" on ClueWeb-l exactly because of this (§8.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.plainmr import RecompResult
from repro.cluster.cluster import Cluster
from repro.cluster.metrics import JobMetrics, StageTimes
from repro.common.sizeof import record_size
from repro.dfs.filesystem import DistributedFS
from repro.execution import ExecutorSelector, ExecutorSpec
from repro.iterative.engine import IterMapPayload, execute_iter_map_task

#: Spark keeps the current and previous state RDD generations (plus
#: lineage bookkeeping) alive across an iteration boundary.
_STATE_GENERATIONS = 2

#: Serialization/GC penalty multiplier on spilled bytes.
_SPILL_PENALTY = 3.0

#: Whole-iteration slowdown per unit of spill fraction: memory pressure
#: degrades everything (GC churn, eviction-driven recomputation), not
#: just the spilled bytes (§8.7: "the performance of Spark is not
#: satisfactory" once the working set exceeds memory).
_PRESSURE_SLOWDOWN = 6.0

#: Per-iteration scheduler overhead in seconds (no job startup).
_SCHEDULER_TICK_S = 0.5


@dataclass
class SparkRunStats:
    """Memory accounting of a Spark-like run."""

    structure_bytes: int = 0
    state_bytes: int = 0
    shuffle_bytes_per_iter: int = 0
    working_set_bytes: int = 0
    memory_bytes: int = 0
    spill_fraction: float = 0.0


class SparkLikeDriver:
    """Runs an :class:`IterativeAlgorithm` under the Spark cost model."""

    def __init__(
        self,
        cluster: Cluster,
        dfs: DistributedFS,
        executor: ExecutorSpec = None,
    ) -> None:
        self.cluster = cluster
        self.dfs = dfs
        self.executors = ExecutorSelector(executor)
        self.executor = self.executors.get()
        self.last_stats = SparkRunStats()

    def close(self) -> None:
        """Shut down any host worker pools the driver created."""
        self.executors.close()

    def run(
        self,
        algorithm: Any,
        dataset: Any,
        initial_state: Optional[Dict[Any, Any]] = None,
        max_iterations: int = 10,
        epsilon: Optional[float] = None,
        structure_path: Optional[str] = None,
    ) -> RecompResult:
        """Run the iterative computation in the in-memory model."""
        cost = self.cluster.cost_model
        workers = self.cluster.num_workers

        if structure_path is None:
            structure_path = f"/{algorithm.name}/spark-input"
        if not self.dfs.exists(structure_path):
            self.dfs.write(structure_path, algorithm.structure_records(dataset))
        dfs_file = self.dfs.file(structure_path)

        records = self.dfs.read_all(structure_path)
        groups: Dict[Any, List[Tuple[Any, Any]]] = {}
        for sk, sv in records:
            groups.setdefault(algorithm.project(sk), []).append((sk, sv))

        state = dict(
            initial_state if initial_state is not None else algorithm.initial_state(dataset)
        )

        metrics = JobMetrics()
        # Load + partitionBy: read and parse once, shuffle across workers.
        structure_bytes = dfs_file.size_bytes
        load = StageTimes()
        per_worker = structure_bytes / workers
        load.startup = (
            cost.disk_read_time(int(per_worker))
            + cost.parse_time(int(per_worker))
            + cost.net_time(int(per_worker * (workers - 1) / workers))
            + _SCHEDULER_TICK_S
        )
        metrics.times.add(load)

        per_iteration: List[JobMetrics] = []
        converged = False
        iterations = 0
        total_memory = cost.worker_memory * workers

        for it in range(max_iterations):
            iterations = it + 1
            times = StageTimes()
            # ----------------------------- map --------------------------- #
            # One RDD map task per contiguous slice of the cached
            # partitions, dispatched through the execution backend;
            # merging contributions in slice order reproduces exactly
            # the serial iteration order.
            joined = [(dk, state.get(dk), pairs) for dk, pairs in groups.items()]
            slice_size = max(1, -(-len(joined) // max(1, workers)))
            payloads = [
                IterMapPayload(
                    partition=i,
                    groups=joined[start : start + slice_size],
                    algorithm=algorithm,
                    num_partitions=1,
                    with_mk=False,
                )
                for i, start in enumerate(range(0, len(joined), slice_size))
            ]
            map_runs = self.executor.run_tasks(execute_iter_map_task, payloads)

            contributions: Dict[Any, List[Any]] = {}
            emitted_bytes = 0
            for run in sorted(map_runs, key=lambda r: r.partition):
                for k2, _, v2 in run.per_q[0]:
                    contributions.setdefault(k2, []).append(v2)
                emitted_bytes += run.emitted_bytes
            num_pairs = sum(len(pairs) for _, _, pairs in joined)
            times.map = cost.cpu_time(num_pairs, algorithm.map_cpu_weight) / workers

            # --------------------------- shuffle ------------------------- #
            remote = int(emitted_bytes * (workers - 1) / workers)
            times.shuffle = cost.net_time(remote, transfers=workers) / workers

            # --------------------------- reduce -------------------------- #
            outputs: List[Tuple[Any, Any]] = []
            replicated = getattr(algorithm, "dependency", None) is not None and (
                algorithm.dependency.value == "all-to-one"
            )
            if replicated:
                reduce_keys = sorted(contributions, key=repr)
            else:
                reduce_keys = sorted(set(state) | set(contributions), key=repr)
            values_processed = 0
            for k2 in reduce_keys:
                values = contributions.get(k2, [])
                outputs.append((k2, algorithm.reduce_instance(k2, values)))
                values_processed += len(values) + 1
            times.reduce = (
                cost.cpu_time(values_processed, algorithm.reduce_cpu_weight) / workers
            )

            new_state = dict(state)
            total_difference = 0.0
            prev_values = dict(state)
            algorithm.assemble_state(new_state, outputs)
            for dk, dv in new_state.items():
                old = prev_values.get(dk)
                if old is not None:
                    total_difference += algorithm.difference(dv, old)

            # ------------------------ memory model ----------------------- #
            state_bytes = sum(record_size(k, v) for k, v in new_state.items())
            working = (
                structure_bytes
                + state_bytes * _STATE_GENERATIONS
                + emitted_bytes
            )
            spill_fraction = 0.0
            if working > total_memory:
                spill_fraction = (working - total_memory) / working
                spilled = int(working * spill_fraction)
                per_worker_spill = spilled / workers
                times.merge = _SPILL_PENALTY * (
                    cost.disk_write_time(int(per_worker_spill))
                    + cost.disk_read_time(int(per_worker_spill))
                )
                pressure = 1.0 + _PRESSURE_SLOWDOWN * spill_fraction
                times.map *= pressure
                times.shuffle *= pressure
                times.reduce *= pressure
            times.startup = _SCHEDULER_TICK_S

            self.last_stats = SparkRunStats(
                structure_bytes=structure_bytes,
                state_bytes=state_bytes,
                shuffle_bytes_per_iter=emitted_bytes,
                working_set_bytes=working,
                memory_bytes=total_memory,
                spill_fraction=spill_fraction,
            )

            state = new_state
            metrics.times.add(times)
            iter_metrics = JobMetrics()
            iter_metrics.times.add(times)
            per_iteration.append(iter_metrics)
            if epsilon is not None and total_difference <= epsilon:
                converged = True
                break

        return RecompResult(
            state=state,
            iterations=iterations,
            converged=converged,
            metrics=metrics,
            per_iteration=per_iteration,
        )
