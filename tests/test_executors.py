"""Executor backends: parallel execution must be invisible in results.

The contract of :mod:`repro.execution` is that the backend choice only
changes host wall-clock: outputs, counters and simulated times must be
byte-identical under the serial, thread and process backends, across
every engine.  These tests run the same workloads under all three and
compare exact (not approximate) equality.
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.kmeans import Kmeans
from repro.algorithms.pagerank import PageRank
from repro.baselines.haloop import HaLoopDriver
from repro.baselines.plainmr import PlainMRDriver
from repro.baselines.spark import SparkLikeDriver
from repro.cluster.cluster import Cluster
from repro.common import config
from repro.common.errors import InvalidJobConf
from repro.common.kvpair import insert, update
from repro.datasets.graphs import mutate_web_graph, powerlaw_web_graph
from repro.datasets.points import gaussian_points
from repro.dfs.filesystem import DistributedFS
from repro.execution import (
    EXECUTOR_NAMES,
    ExecutorSelector,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_executor,
)
from repro.experiments.fig8_overall import run_workload
from repro.inciter.engine import I2MREngine, I2MROptions
from repro.incremental.api import SumReducer, delta_to_dfs_records
from repro.incremental.engine import IncrMREngine
from repro.iterative.api import IterativeJob
from repro.iterative.engine import IterMREngine
from repro.mapreduce.api import Mapper
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobConf

BACKEND_NAMES = list(EXECUTOR_NAMES)


def _square(x: int) -> int:
    return x * x


class TokenMapper(Mapper):
    """Emit ``(word, 1)`` per whitespace token."""

    def map(self, key, text, ctx):
        for word in text.split():
            ctx.emit(word, 1)


# ---------------------------------------------------------------------- #
# backend unit behaviour                                                 #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_run_tasks_preserves_order(name):
    backend = resolve_executor(name, max_workers=2)
    try:
        assert backend.run_tasks(_square, range(20)) == [x * x for x in range(20)]
        assert backend.run_tasks(_square, []) == []
    finally:
        backend.close()


def test_resolve_executor_accepts_aliases_and_instances():
    assert isinstance(resolve_executor("threads"), ThreadBackend)
    assert isinstance(resolve_executor("processes"), ProcessBackend)
    backend = SerialBackend()
    assert resolve_executor(backend) is backend
    assert isinstance(resolve_executor(None), SerialBackend)  # library default


def test_resolve_executor_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown executor"):
        resolve_executor("gpu")


def test_default_executor_comes_from_config():
    assert config.DEFAULT_EXECUTOR in ("serial", "thread", "process")
    assert resolve_executor(None).name == config.DEFAULT_EXECUTOR


def test_process_backend_falls_back_on_unpicklable_tasks():
    backend = ProcessBackend(max_workers=2)
    try:
        unpicklable = lambda x: x + 1  # noqa: E731 - the point of the test
        assert backend.run_tasks(unpicklable, [1, 2, 3]) == [2, 3, 4]
        assert backend.stats.inproc_fallbacks >= 1
    finally:
        backend.close()


def test_process_backend_honours_picklable_flag():
    backend = ProcessBackend(max_workers=2)
    try:
        assert backend.run_tasks(_square, [1, 2, 3], picklable=False) == [1, 4, 9]
        assert backend.stats.inproc_fallbacks == 1
    finally:
        backend.close()


def test_executor_selector_caches_and_closes():
    selector = ExecutorSelector("serial")
    a = selector.get("thread", 2)
    b = selector.get("thread", 2)
    assert a is b
    assert selector.get().name == "serial"
    provided = ThreadBackend(max_workers=1)
    assert selector.get(provided) is provided
    selector.close()


def test_jobconf_validates_executor():
    conf = JobConf("j", TokenMapper, SumReducer, inputs=["/x"], output="/y",
                   executor="gpu")
    with pytest.raises(InvalidJobConf):
        conf.validate()
    conf = JobConf("j", TokenMapper, SumReducer, inputs=["/x"], output="/y",
                   max_workers=0)
    with pytest.raises(InvalidJobConf):
        conf.validate()


def test_iterative_job_validates_executor():
    job = IterativeJob(PageRank(), None, executor="gpu")
    with pytest.raises(InvalidJobConf):
        job.validate()


def test_payloads_are_picklable():
    """The engine task functions and payload types must cross processes."""
    from repro.iterative.engine import (
        IterMapPayload,
        IterReducePayload,
        execute_iter_map_task,
        execute_iter_reduce_task,
    )
    from repro.mapreduce.engine import (
        MapTaskPayload,
        execute_map_task,
        execute_reduce_task,
    )

    for fn in (execute_map_task, execute_reduce_task,
               execute_iter_map_task, execute_iter_reduce_task):
        assert pickle.loads(pickle.dumps(fn)) is fn
    payload = MapTaskPayload(
        task_index=0, mapper_factory=TokenMapper, records=[(0, "a b")],
        size_bytes=3, num_reducers=2,
        partitioner=JobConf.__dataclass_fields__["partitioner"].default,
    )
    run = execute_map_task(pickle.loads(pickle.dumps(payload)))
    assert run.emitted_records == 2

    # The one prime Map kernel: a known DV and a None DV (initial value).
    iter_payload = IterMapPayload(
        partition=0,
        groups=[(0, 0.5, [(0, ((1, 2), ""))]), (3, None, [(3, ((4,), ""))])],
        algorithm=PageRank(), num_partitions=2, with_mk=True,
    )
    map_run = execute_iter_map_task(pickle.loads(pickle.dumps(iter_payload)))
    map_run = pickle.loads(pickle.dumps(map_run))
    per_source = list(map_run.per_source())
    assert [sorted(k2 for k2, _, _ in recs) for recs in per_source] == [[1, 2], [4]]
    assert map_run.emitted == 3
    records = [rec for recs in map_run.per_q for rec in recs]
    assert all(mk != 0 for _, mk, _ in records)
    assert sum(map_run.bytes_per_q) == map_run.emitted_bytes > 0

    # The one prime Reduce kernel, fed the map kernel's records.
    reduce_payload = IterReducePayload(
        partition=0, records=records, algorithm=PageRank(), extra_keys=[7],
        replicated=False, capture_chunks=True,
    )
    reduce_run = execute_iter_reduce_task(pickle.loads(pickle.dumps(reduce_payload)))
    reduce_run = pickle.loads(pickle.dumps(reduce_run))
    assert [k2 for k2, _ in reduce_run.outputs] == [1, 2, 4, 7]
    assert [k2 for k2, _ in reduce_run.chunk_list] == [1, 2, 4]


# ---------------------------------------------------------------------- #
# engine determinism across backends                                     #
# ---------------------------------------------------------------------- #


def _wordcount_run(executor):
    cluster = Cluster(num_workers=4, seed=7)
    dfs = DistributedFS(cluster, block_size=2048)
    docs = [(i, f"w{i % 17} w{(i * 3) % 11} common words") for i in range(400)]
    dfs.write("/docs", docs)
    engine = MapReduceEngine(cluster, dfs, executor=executor)
    conf = JobConf("wc", TokenMapper, SumReducer, inputs=["/docs"],
                   output="/counts", num_reducers=4)
    result = engine.run(conf)
    output = list(dfs.read("/counts"))
    engine.close()
    return {
        "output": output,
        "times": result.metrics.times.as_dict(),
        "counters": result.metrics.counters.as_dict(),
    }


def test_mapreduce_engine_identical_across_backends():
    reference = _wordcount_run("serial")
    for name in ("thread", "process"):
        assert _wordcount_run(name) == reference, name


def _itermr_run(executor):
    cluster = Cluster(num_workers=4, seed=7)
    dfs = DistributedFS(cluster, block_size=2048)
    graph = powerlaw_web_graph(300, 8.0, seed=3)
    engine = IterMREngine(cluster, dfs, executor=executor)
    result = engine.run(
        IterativeJob(PageRank(), graph, num_partitions=4, max_iterations=4)
    )
    engine.close()
    return {
        "state": result.state,
        "times": result.metrics.times.as_dict(),
        "counters": result.metrics.counters.as_dict(),
    }


def test_itermr_engine_identical_across_backends():
    reference = _itermr_run("serial")
    for name in ("thread", "process"):
        assert _itermr_run(name) == reference, name


def _itermr_replicated_run(executor):
    """Kmeans exercises the replicated-state (all-to-one) code path."""
    cluster = Cluster(num_workers=4, seed=7)
    dfs = DistributedFS(cluster, block_size=2048)
    points = gaussian_points(200, dim=3, k=3, seed=5)
    engine = IterMREngine(cluster, dfs, executor=executor)
    result = engine.run(
        IterativeJob(Kmeans(k=3, dim=3), points, num_partitions=4, max_iterations=3)
    )
    engine.close()
    return {"state": result.state, "times": result.metrics.times.as_dict()}


def test_itermr_replicated_state_identical_across_backends():
    reference = _itermr_replicated_run("serial")
    for name in ("thread", "process"):
        assert _itermr_replicated_run(name) == reference, name


def _incremental_run(executor):
    cluster = Cluster(num_workers=4, seed=7)
    dfs = DistributedFS(cluster, block_size=1024)
    docs = [(i, f"w{i % 13} shared w{(i * 7) % 19}") for i in range(200)]
    dfs.write("/docs", docs)
    engine = IncrMREngine(cluster, dfs, executor=executor)
    conf = JobConf("wc", TokenMapper, SumReducer, inputs=["/docs"],
                   output="/counts", num_reducers=4)
    initial, state = engine.run_initial(conf)
    delta = [insert(200, "brand new words"),
             *update(0, docs[0][1], "w0 shared w0")]
    dfs.write("/delta", delta_to_dfs_records(delta))
    incr = engine.run_incremental(conf, "/delta", state)
    output = sorted(dfs.read("/counts"))
    state.cleanup()
    engine.close()
    return {
        "output": output,
        "initial_times": initial.metrics.times.as_dict(),
        "incr_times": incr.metrics.times.as_dict(),
        "incr_counters": incr.metrics.counters.as_dict(),
    }


def test_incremental_engine_identical_across_backends():
    reference = _incremental_run("serial")
    for name in ("thread", "process"):
        assert _incremental_run(name) == reference, name


def _i2mr_run(executor):
    cluster = Cluster(num_workers=4, seed=7)
    dfs = DistributedFS(cluster, block_size=2048)
    graph = powerlaw_web_graph(250, 8.0, seed=3)
    delta = mutate_web_graph(graph, 0.1, seed=4)
    engine = I2MREngine(cluster, dfs, executor=executor)
    job = IterativeJob(PageRank(), graph, num_partitions=4,
                       max_iterations=8, epsilon=1e-6)
    initial, preserved = engine.run_initial(job)
    incr = engine.run_incremental(
        IterativeJob(PageRank(), delta.new_graph, num_partitions=4,
                     max_iterations=5),
        delta.records,
        preserved,
        I2MROptions(max_iterations=5, epsilon=1e-6),
    )
    summary = {
        "state": incr.state,
        "initial_times": initial.metrics.times.as_dict(),
        "incr_times": incr.metrics.times.as_dict(),
        "incr_counters": incr.metrics.counters.as_dict(),
    }
    preserved.cleanup()
    engine.close()
    return summary


def test_i2mr_engine_identical_across_backends():
    reference = _i2mr_run("serial")
    for name in ("thread", "process"):
        assert _i2mr_run(name) == reference, name


def _baseline_runs(executor):
    graph = powerlaw_web_graph(200, 8.0, seed=3)
    out = {}
    for label, driver_cls in (("plainmr", PlainMRDriver), ("haloop", HaLoopDriver),
                              ("spark", SparkLikeDriver)):
        cluster = Cluster(num_workers=4, seed=7)
        dfs = DistributedFS(cluster, block_size=2048)
        result = driver_cls(cluster, dfs, executor=executor).run(
            PageRank(), graph, max_iterations=3
        )
        out[label] = {
            "state": result.state,
            "times": result.metrics.times.as_dict(),
        }
    return out


def test_baselines_identical_across_backends():
    reference = _baseline_runs("serial")
    for name in ("thread", "process"):
        assert _baseline_runs(name) == reference, name


def test_fig8_workload_identical_simulated_metrics_serial_vs_process():
    """Acceptance: the fig8 workload's simulated times are backend-free."""
    serial = run_workload("pagerank", scale="test", executor="serial")
    process = run_workload("pagerank", scale="test", executor="process")
    assert process == serial
