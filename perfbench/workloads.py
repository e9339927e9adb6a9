"""The three benchmark workloads: inputs, set-up and output checks.

Each workload builds its inputs from the seed *before* anything is timed
(the seeded mutators of :mod:`repro.datasets` run here, not in the
measured program), sets up a converged job bridged to a
:class:`repro.serving.QueryServer` (the timed ``setup_s``), and checks
the refreshed result against an independent reference afterwards.

- ``pagerank-stream``: fine-grain incremental PageRank (§5) on an
  evolving power-law web graph; the MRBG-Store path.
- ``kmeans-recompute``: k-means, where every changed point moves the one
  replicated state key, so P∆ = 100 % trips the auto-off (§5.2) and every
  batch is a full iterMR recompute on the process backend.
- ``wordcount-serve``: one-step accumulator WordCount (§3.5) whose every
  batch publishes a full-state epoch while a client queries it.
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List

from repro.algorithms.kmeans import STATE_KEY, Kmeans
from repro.algorithms.pagerank import PageRank
from repro.algorithms.wordcount import WordCountMapper, WordCountReducer
from repro.common.kvpair import Op, sort_key
from repro.datasets.graphs import WebGraph, mutate_web_graph, powerlaw_web_graph
from repro.datasets.points import PointsDataset, gaussian_points
from repro.datasets.text import zipf_tweets
from repro.experiments.harness import data_scale_for, make_cluster
from repro.inciter.engine import I2MROptions
from repro.iterative.api import IterativeJob
from repro.iterative.engine import IterMREngine
from repro.mapreduce.job import JobConf
from repro.mrbgraph.store import StoreMetrics
from repro.serving import EpochManager, QueryServer, ServingBridge
from repro.streaming import (
    ArrivedRecord,
    BatchPolicy,
    ContinuousPipeline,
    DeltaSource,
    IterativeStreamConsumer,
    OneStepStreamConsumer,
    StreamConsumer,
    SyntheticEvolvingSource,
    evolving_points_source,
    evolving_text_source,
)

#: seed of every workload's starting dataset and simulated cluster.  The
#: run's seed draws the delta stream only: a different power-law graph per
#: seed moves the per-batch work by a third (hub placement sets how far
#: CPC propagates), which would hide a regression of that size.
BASE_SEED = 2016

def stream_seed(seed: int) -> int:
    """The mutators' base seed for a run seed.

    Generation ``g`` mutates with ``base + g``, so consecutive run seeds
    would replay one mutation sequence shifted by a generation; spacing
    the bases further apart than any stream is long keeps runs apart.
    """
    return (seed * 10_007) % 2**31


#: simulated seconds between mutation generations; long enough that the
#: engine is always idle when a generation arrives (closed-loop replay).
PERIOD_S = 86_400.0


class FinishingBatcher(BatchPolicy):
    """Fixed-count batches; once finishing, the last batch ends a generation.

    A generation's records arrive together, so a change of arrival time
    marks a generation boundary.  While the run is timed every batch
    holds ``max_records`` records.  When the measured time is up the run
    sets :attr:`finishing` and the next batch also closes at the end of
    the generation it is in, so the run stops having applied whole
    updates only: a rewired page's delete and insert, or a deleted page
    and the in-links that pointed to it, are never split.
    """

    def __init__(self, max_records: int) -> None:
        self.max_records = max_records
        self.finishing = False
        self._last_arrival = 0.0

    def should_close(
        self,
        num_records: int,
        num_bytes: int,
        first_arrival_s: float,
        next_arrival_s: float,
        next_bytes: int,
    ) -> bool:
        # The pipeline admits a batch's first record without asking.
        if num_records == 1:
            self._last_arrival = first_arrival_s
        close = num_records >= self.max_records or (
            self.finishing and next_arrival_s != self._last_arrival
        )
        if not close:
            self._last_arrival = next_arrival_s
        return close


class PregeneratedSource(DeltaSource):
    """Replays records generated before the timed phase, resuming.

    ``ReplaySource`` would re-time the records at a fixed rate and lose
    the generation boundaries ``FinishingBatcher`` stops at.
    """

    def __init__(self, arrived: List[ArrivedRecord]) -> None:
        self.arrived = arrived
        self._position = 0

    def events(self) -> Iterator[ArrivedRecord]:
        while self._position < len(self.arrived):
            self._position += 1
            yield self.arrived[self._position - 1]


def state_digest(state: Dict[Any, Any]) -> str:
    """sha256 over a state's items in ``sort_key`` order."""
    items = sorted(state.items(), key=lambda kv: sort_key(kv[0]))
    return hashlib.sha256(repr(items).encode()).hexdigest()


@dataclass
class Inputs:
    """Everything a run needs, generated from the seed."""

    base: Any
    arrived: List[ArrivedRecord]


@dataclass
class Rig:
    """A set-up workload: pipeline → consumer → server."""

    consumer: StreamConsumer
    server: QueryServer
    pipeline: ContinuousPipeline

    def store_metrics(self) -> StoreMetrics:
        """Merged statistics of the consumer's MRBG-Stores so far."""
        preserved = getattr(self.consumer, "preserved", None)
        if preserved is None:
            preserved = self.consumer.prev.stores
        return preserved.store_metrics()

    def close(self) -> None:
        """Release the preserved state, its stores and engine pools."""
        self.pipeline.close()


class Workload:
    """Interface of one benchmark workload."""

    name = ""
    #: delta records per micro-batch (the run's last batch may hold fewer).
    batch_records = 0
    #: batches every run completes, however long they take; ``sim_refresh_s``
    #: sums these and the refresh tail is read at the percentile that
    #: leaves ten of them beyond it.
    min_batches = 0
    #: set-ups per run; ``setup_s`` is their median.  Short set-ups are
    #: repeated more, as their times spread wider.
    setup_repeats = 3
    #: time the reference kernel in this process (the work runs here and
    #: nothing else holds the interpreter lock) rather than in a helper.
    reference_in_process = False
    #: serving shards of the query server.
    serving_shards = 1
    #: whether a client queries during ingestion; without one the epochs
    #: are published with no readers.
    concurrent_queries = False
    #: queries every run with a client answers.
    min_queries = 0
    #: time a batch by the ingesting thread's CPU time rather than by
    #: wall time (see README.md, *End-to-end metrics*).
    refresh_cpu_time = False

    def generate(self, seed: int) -> Inputs:
        raise NotImplementedError

    def setup(self, inputs: Inputs) -> Rig:
        raise NotImplementedError

    def reference(self, rig: Rig, inputs: Inputs, applied: int) -> Any:
        """The expected result after ``applied`` delta records, computed
        independently of the measured pipeline."""
        raise NotImplementedError

    def compare(self, state: Dict[Any, Any], ref: Any) -> List[str]:
        """Failures of ``state`` against ``ref``; empty when it passes."""
        raise NotImplementedError

    def perturbations(self, state: Dict[Any, Any], ref: Any) -> List[tuple]:
        """``(what, copy of state)`` pairs, each with values changed so
        that the check must reject it (the self-test)."""
        raise NotImplementedError

    def _rig(self, consumer: StreamConsumer, inputs: Inputs) -> Rig:
        server = QueryServer(manager=EpochManager(num_shards=self.serving_shards))
        server.publish(consumer.state())
        pipeline = ContinuousPipeline(
            PregeneratedSource(inputs.arrived),
            FinishingBatcher(self.batch_records),
            consumer,
            batch_retries=1,
        )
        pipeline.add_batch_listener(ServingBridge(server))
        return Rig(consumer, server, pipeline)


def _close(a: Any, b: Any, rel_tol: float) -> bool:
    """Structural equality with floats compared to ``rel_tol``."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= rel_tol * max(abs(a), abs(b), 1.0)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_close(x, y, rel_tol) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rel_tol) for k in a)
    return a == b


def _apply(base: Dict[Any, Any], arrived: List[ArrivedRecord], applied: int, value=None):
    """``base`` with the first ``applied`` delta records applied."""
    out = dict(base)
    for item in arrived[:applied]:
        rec = item.record
        if rec.op is Op.DELETE:
            del out[rec.key]
        else:
            out[rec.key] = rec.value if value is None else value(rec.value)
    return out


# ---------------------------------------------------------------------- #
# pagerank-stream                                                        #
# ---------------------------------------------------------------------- #


class PageRankStream(Workload):
    """Fine-grain incremental PageRank; the MRBG-Store path."""

    name = "pagerank-stream"
    batch_records = 25
    min_batches = 60
    setup_repeats = 5
    reference_in_process = True
    vertices = 2000
    #: about 110 batches, 1.7 times what a 15 s run applies on a 2-core
    #: host; the tolerances below were measured over all of them.
    generations = 64
    partitions = 4
    filter_threshold = 0.01
    #: tolerances against an exact recompute, as relative errors: of the
    #: worst vertex, of the 99th-percentile vertex, and of the whole rank
    #: vector (L1).  CPC drops state changes below FT, so error builds up
    #: and decays from batch to batch; see README.md for the drift they
    #: were set from.  With CPC off the refresh is exact.
    vertex_tol = 1.2
    p99_tol = 0.25
    l1_tol = 0.1

    def generate(self, seed: int) -> Inputs:
        graph = powerlaw_web_graph(self.vertices, 8.0, seed=BASE_SEED, payload_bytes=300)
        source = SyntheticEvolvingSource(
            graph, functools.partial(mutate_web_graph, delete_fraction=0.0),
            0.01, self.generations, PERIOD_S, seed=stream_seed(seed),
        )
        return Inputs(graph, list(source))

    def _job(self, graph: WebGraph, max_iterations: int, epsilon: float) -> IterativeJob:
        return IterativeJob(
            PageRank(), graph, num_partitions=self.partitions,
            max_iterations=max_iterations, epsilon=epsilon, executor="serial",
        )

    def setup(self, inputs: Inputs) -> Rig:
        cluster, dfs = make_cluster(
            num_workers=4, seed=BASE_SEED,
            data_scale=data_scale_for("pagerank", self.vertices),
        )
        consumer = IterativeStreamConsumer.from_initial(
            cluster, dfs, self._job(inputs.base, 30, 1e-4),
            I2MROptions(
                filter_threshold=self.filter_threshold,
                max_iterations=10, epsilon=1e-6,
            ),
            executor="serial", num_shards=1,
        )
        return self._rig(consumer, inputs)

    def reference(self, rig: Rig, inputs: Inputs, applied: int) -> Any:
        links = _apply(inputs.base.out_links, inputs.arrived, applied, lambda v: v[0])
        cluster, dfs = make_cluster(num_workers=4, seed=0)
        engine = IterMREngine(cluster, dfs, executor="serial")
        try:
            return engine.run(
                self._job(WebGraph(links, inputs.base.payload), 300, 1e-8)
            ).state
        finally:
            engine.close()

    def compare(self, state: Dict[Any, Any], ref: Any) -> List[str]:
        if set(ref) != set(state):
            return [f"pagerank: {len(set(ref) ^ set(state))} vertices differ from the recompute"]
        failures = []
        errors = sorted((abs(state[v] - ref[v]) / ref[v], v) for v in ref)
        worst, vertex = errors[-1]
        if worst > self.vertex_tol:
            failures.append(
                f"pagerank: vertex {vertex} rank {state[vertex]:.6f} vs recompute "
                f"{ref[vertex]:.6f} ({worst:.1%} off)"
            )
        p99 = errors[int(0.99 * len(errors))][0]
        if p99 > self.p99_tol:
            failures.append(f"pagerank: p99 relative vertex error {p99:.4f} > {self.p99_tol}")
        l1 = sum(abs(state[v] - ref[v]) for v in ref) / sum(ref.values())
        if l1 > self.l1_tol:
            failures.append(f"pagerank: relative L1 error {l1:.5f} > {self.l1_tol}")
        return failures

    def perturbations(self, state: Dict[Any, Any], ref: Any) -> List[tuple]:
        # Each is twice a tolerance away from the recompute, on top of the
        # run's own drift, so the check must reject it whatever that was.
        low = min(ref, key=lambda v: (ref[v], v))
        hub = max(ref, key=lambda v: (ref[v], v))
        out = []
        for what, vertex in (("the lowest-ranked vertex", low), ("the top hub", hub)):
            bad = dict(state)
            bad[vertex] = ref[vertex] * (1.0 + 2.0 * self.vertex_tol)
            out.append((f"{what} {2 * self.vertex_tol:.0%} high", bad))
        worse = 2.0 * self.p99_tol
        shifted = dict(state)
        for v in sorted(ref, key=lambda v: (-ref[v], v))[: len(ref) // 50]:
            shifted[v] = ref[v] * (1.0 - worse)
        out.append((f"the top 2% of vertices {worse:.0%} low", shifted))
        return out


# ---------------------------------------------------------------------- #
# kmeans-recompute                                                       #
# ---------------------------------------------------------------------- #


class KmeansRecompute(Workload):
    """k-means where every batch takes the full iterMR recompute path."""

    name = "kmeans-recompute"
    batch_records = 40
    min_batches = 60
    setup_repeats = 9
    points = 4000
    dim = 4
    k = 4
    generations = 120
    partitions = 4
    #: every recompute runs exactly this many supersteps (no epsilon), so
    #: a batch's work does not depend on how far its centroids moved.
    iterations = 4
    #: the initial converged job of the set-up.
    initial_iterations = 30
    initial_epsilon = 1e-6
    #: the engine sums partial centroids per partition and the reference
    #: point by point, so equal means equal to the last few bits of a float.
    rel_tol = 1e-9

    def generate(self, seed: int) -> Inputs:
        points = gaussian_points(self.points, dim=self.dim, k=self.k, seed=BASE_SEED)
        source = evolving_points_source(
            points, 0.01, self.generations, PERIOD_S, seed=stream_seed(seed)
        )
        return Inputs(points, list(source))

    def _job(self, points: PointsDataset, max_iterations: int, epsilon: float):
        return IterativeJob(
            Kmeans(k=self.k, dim=self.dim), points,
            num_partitions=self.partitions, max_iterations=max_iterations,
            epsilon=epsilon, executor="process", max_workers=2,
        )

    def setup(self, inputs: Inputs) -> Rig:
        cluster, dfs = make_cluster(
            num_workers=4, seed=BASE_SEED,
            data_scale=data_scale_for("kmeans", self.points),
        )
        consumer = IterativeStreamConsumer.from_initial(
            cluster, dfs, self._job(inputs.base, self.initial_iterations, self.initial_epsilon),
            I2MROptions(filter_threshold=0.01, max_iterations=self.iterations),
            executor="process", num_shards=1,
        )
        return self._rig(consumer, inputs)

    def _points_after(self, inputs: Inputs, applied: int) -> PointsDataset:
        base = inputs.base
        points = _apply(base.points, inputs.arrived, applied)
        return PointsDataset(points, base.initial_centroids, base.dim, base.k)

    def reference(self, rig: Rig, inputs: Inputs, applied: int) -> Any:
        # A from-scratch Lloyd run on the final points may settle in
        # another local optimum, so the reference replays the paper's
        # recomputation baseline (§8.1.5) from the start, independently of
        # the measured engines: single-machine Lloyd iterations
        # (``Kmeans.reference_from``) to convergence on the initial points,
        # then each batch's supersteps on the points after that batch, each
        # from the reference's own centroids.
        batches = rig.pipeline.result.batches
        if not all(b.fell_back for b in batches):
            return None
        algorithm = Kmeans(k=self.k, dim=self.dim)
        state = algorithm.initial_state(inputs.base)
        for _ in range(self.initial_iterations):
            moved = algorithm.reference_from(inputs.base, state, 1)
            converged = algorithm.difference(
                moved[STATE_KEY], state[STATE_KEY]) <= self.initial_epsilon
            state = moved
            if converged:
                break
        done = 0
        for batch in batches:
            done += batch.num_records
            state = algorithm.reference_from(
                self._points_after(inputs, done), state, self.iterations
            )
        return state if done == applied else None

    def compare(self, state: Dict[Any, Any], ref: Any) -> List[str]:
        if ref is None:
            return ["kmeans: a batch did not take the recompute path"]
        if not _close(state, ref, self.rel_tol):
            return ["kmeans: centroids differ from the recomputation reference"]
        return []

    def perturbations(self, state: Dict[Any, Any], ref: Any) -> List[tuple]:
        out = dict(state)
        key = sorted(out, key=sort_key)[0]
        centroids = list(out[key])
        cid, coords = centroids[0]
        centroids[0] = (cid, (coords[0] + 1e-3,) + tuple(coords[1:]))
        out[key] = tuple(centroids)
        return [("one centroid coordinate moved by 1e-3", out)]


# ---------------------------------------------------------------------- #
# wordcount-serve                                                        #
# ---------------------------------------------------------------------- #


class WordCountServe(Workload):
    """Accumulator WordCount with a client querying every epoch."""

    name = "wordcount-serve"
    batch_records = 300
    min_batches = 200
    setup_repeats = 7
    tweets = 30_000
    vocab = 10_000
    generations = 200
    serving_shards = 4
    concurrent_queries = True
    min_queries = 5_000
    #: ingestion shares the interpreter lock with the client, so a batch's
    #: wall time carries the client's share of the lock, which host load
    #: moves: over ten seeds on a loaded host the wall-time refresh tail
    #: spread 0.68 and its CPU-time form 0.08.
    refresh_cpu_time = True

    def generate(self, seed: int) -> Inputs:
        tweets = zipf_tweets(self.tweets, vocab_size=self.vocab, seed=BASE_SEED)
        source = evolving_text_source(
            tweets, 0.01, self.generations, PERIOD_S, seed=stream_seed(seed)
        )
        return Inputs(tweets, list(source))

    def setup(self, inputs: Inputs) -> Rig:
        cluster, dfs = make_cluster(num_workers=4, seed=BASE_SEED)
        dfs.write("/tweets", sorted(inputs.base.tweets.items()))
        conf = JobConf(
            name="wordcount", mapper=WordCountMapper, reducer=WordCountReducer,
            inputs=["/tweets"], output="/counts", num_reducers=4,
        )
        consumer = OneStepStreamConsumer.from_initial(
            cluster, dfs, conf, accumulator=True, num_shards=1
        )
        return self._rig(consumer, inputs)

    def reference(self, rig: Rig, inputs: Inputs, applied: int) -> Any:
        tweets = _apply(inputs.base.tweets, inputs.arrived, applied)
        return dict(Counter(word for text in tweets.values() for word in text.split()))

    def compare(self, state: Dict[Any, Any], ref: Any) -> List[str]:
        if ref != state:
            diff = set(ref.items()) ^ set(state.items())
            return [f"wordcount: {len(diff)} counts differ from an exact recount"]
        return []

    def perturbations(self, state: Dict[Any, Any], ref: Any) -> List[tuple]:
        out = dict(state)
        key = sorted(out, key=sort_key)[0]
        out[key] += 1
        return [("one count off by one", out)]


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    PageRankStream.name: PageRankStream,
    KmeansRecompute.name: KmeansRecompute,
    WordCountServe.name: WordCountServe,
}
