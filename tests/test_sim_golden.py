"""Golden pin of the simulated clock.

Every other suite compares engines against each other (backend against
backend, workset against full sweep).  This one compares them against
fixed numbers: the exact per-stage simulated seconds, counters,
iteration counts and a digest of the final state of a handful of
small runs covering every prime Map / prime Reduce path:

- iterMR full sweep and workset iteration (PageRank, k-means);
- i2MR initial run plus one MRBGraph-maintained incremental run
  (delta-structure then delta-state iterations);
- an i2MR k-means incremental run that trips the P∆ auto-off;
- the Spark-like baseline, in memory and under memory pressure.

Floats are pinned by ``repr``, so any change to the simulated clock —
however small — fails here.  A deliberate cost-model change regenerates
the file with ``PYTHONPATH=src python tests/test_sim_golden.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

from repro.algorithms.kmeans import Kmeans
from repro.algorithms.pagerank import PageRank
from repro.baselines.spark import SparkLikeDriver
from repro.datasets.graphs import mutate_web_graph, powerlaw_web_graph
from repro.datasets.points import gaussian_points, mutate_points
from repro.inciter.engine import I2MREngine, I2MROptions
from repro.iterative.api import IterativeJob
from repro.iterative.engine import IterMREngine

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.conftest import fresh_cluster  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "sim_metrics.json"


def _canon(obj: Any) -> Any:
    """JSON-safe copy with every float replaced by its exact ``repr``."""
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


def _digest(state: Dict[Any, Any]) -> str:
    body = repr(sorted(state.items(), key=lambda kv: repr(kv[0])))
    return hashlib.sha256(body.encode()).hexdigest()


def _iteration(stats: Any) -> Dict[str, Any]:
    return {
        "times": stats.times.as_dict(),
        "changed_keys": stats.changed_keys,
        "propagated_kv_pairs": stats.propagated_kv_pairs,
        "total_difference": stats.total_difference,
        "scheduled_map_tasks": stats.scheduled_map_tasks,
        "scheduled_reduce_tasks": stats.scheduled_reduce_tasks,
        "touched_vertices": stats.touched_vertices,
        "workset_size": stats.workset_size,
    }


def _summary(result: Any) -> Dict[str, Any]:
    return {
        "times": result.metrics.times.as_dict(),
        "counters": result.metrics.counters.as_dict(),
        "iterations": result.iterations,
        "converged": result.converged,
        "state_sha256": _digest(result.state),
        "per_iteration": [_iteration(s) for s in result.per_iteration],
    }


# --------------------------------------------------------------------- #
# the pinned runs                                                       #
# --------------------------------------------------------------------- #


def _pagerank_job(workset: bool) -> IterativeJob:
    graph = powerlaw_web_graph(120, 4, seed=4)
    return IterativeJob(PageRank(), graph, num_partitions=4, max_iterations=6,
                        executor="serial", workset=workset)


def _kmeans_job(workset: bool) -> IterativeJob:
    points = gaussian_points(150, dim=3, k=3, seed=3)
    return IterativeJob(Kmeans(k=3, dim=3), points, num_partitions=4,
                        max_iterations=5, executor="serial", workset=workset)


def _itermr(job: IterativeJob) -> Dict[str, Any]:
    cluster, dfs = fresh_cluster()
    engine = IterMREngine(cluster, dfs)
    try:
        return _summary(engine.run(job))
    finally:
        engine.close()


def itermr_full_pagerank() -> Dict[str, Any]:
    return _itermr(_pagerank_job(workset=False))


def itermr_full_kmeans() -> Dict[str, Any]:
    return _itermr(_kmeans_job(workset=False))


def itermr_workset_pagerank() -> Dict[str, Any]:
    return _itermr(_pagerank_job(workset=True))


def itermr_workset_kmeans() -> Dict[str, Any]:
    return _itermr(_kmeans_job(workset=True))


def i2mr_pagerank() -> Dict[str, Any]:
    graph = powerlaw_web_graph(200, 5, seed=3)
    cluster, dfs = fresh_cluster(seed=3)
    engine = I2MREngine(cluster, dfs, executor="serial", num_shards=1)
    job = IterativeJob(PageRank(), graph, num_partitions=4,
                       max_iterations=30, epsilon=1e-7)
    initial, preserved = engine.run_initial(job)
    delta = mutate_web_graph(graph, 0.05, seed=4)
    try:
        # CPC keeps P∆ under the auto-off threshold: every iteration is
        # MRBGraph-maintained (delta structure, then delta state).
        incremental = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=1e-6, max_iterations=20, workset=False),
        )
        out = {"initial": _summary(initial), "incremental": _summary(incremental)}
        out["incremental"]["mrbg_disabled_at"] = incremental.mrbg_disabled_at
        return out
    finally:
        preserved.cleanup()
        engine.close()


def i2mr_kmeans_fallback() -> Dict[str, Any]:
    points = gaussian_points(160, dim=3, k=3, seed=8)
    cluster, dfs = fresh_cluster(seed=8)
    engine = I2MREngine(cluster, dfs, executor="serial", num_shards=1)
    job = IterativeJob(Kmeans(k=3, dim=3), points, num_partitions=4,
                       max_iterations=10, epsilon=1e-5)
    _, preserved = engine.run_initial(job)
    delta = mutate_points(points, 0.1, seed=9)
    try:
        result = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(max_iterations=10, epsilon=1e-5, workset=False),
        )
        out = _summary(result)
        out["mrbg_disabled_at"] = result.mrbg_disabled_at
        return out
    finally:
        preserved.cleanup()
        engine.close()


def _spark(**cost_overrides: Any) -> Dict[str, Any]:
    graph = powerlaw_web_graph(150, 4, seed=5)
    cluster, dfs = fresh_cluster(**cost_overrides)
    driver = SparkLikeDriver(cluster, dfs, executor="serial")
    try:
        result = driver.run(PageRank(), graph, max_iterations=5)
    finally:
        driver.close()
    stats = driver.last_stats
    return {
        "times": result.metrics.times.as_dict(),
        "counters": result.metrics.counters.as_dict(),
        "iterations": result.iterations,
        "converged": result.converged,
        "state_sha256": _digest(result.state),
        "per_iteration": [m.times.as_dict() for m in result.per_iteration],
        "shuffle_bytes_per_iter": stats.shuffle_bytes_per_iter,
        "working_set_bytes": stats.working_set_bytes,
        "spill_fraction": stats.spill_fraction,
    }


def spark_in_memory() -> Dict[str, Any]:
    return _spark()


def spark_memory_pressure() -> Dict[str, Any]:
    return _spark(worker_memory=2 * 1024)


RUNS: Dict[str, Callable[[], Dict[str, Any]]] = {
    fn.__name__: fn
    for fn in (
        itermr_full_pagerank,
        itermr_full_kmeans,
        itermr_workset_pagerank,
        itermr_workset_kmeans,
        i2mr_pagerank,
        i2mr_kmeans_fallback,
        spark_in_memory,
        spark_memory_pressure,
    )
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulated_metrics_match_golden(name: str) -> None:
    golden = json.loads(GOLDEN.read_text())
    assert name in golden, f"no golden entry for {name}; regenerate with --write"
    assert _canon(RUNS[name]()) == golden[name]


def test_golden_covers_every_run() -> None:
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(RUNS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_sim_golden.py --write")
    GOLDEN.write_text(
        json.dumps({name: _canon(fn()) for name, fn in RUNS.items()}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
