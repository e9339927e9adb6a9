"""The timed phase: micro-batches through the pipeline, queries beside it.

One run of one workload: generate inputs (untimed), set up several times
(``setup_s`` is the median), replay micro-batches until ``--seconds`` have
passed and the workload's minimum batch count is reached (on
``wordcount-serve`` a client queries on the main thread meanwhile), then
check outputs against the workload's reference.

Before every batch the stdlib reference kernel is timed, so each run
carries its own measure of host speed.  With tracing, every other batch
runs with the layer wrappers installed: the traced batches give the
per-layer split and, against their untraced neighbours, the tracing
overhead.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from layers import Tracer
from refkernel import NOMINAL_MS, ReferenceHost, rolling_median, time_kernel
from repro.common.errors import EpochRetired, QueryTimeout
from repro.common.kvpair import sort_key
from repro.mrbgraph.store import StoreMetrics
from repro.serving import QueryMix
from workloads import BASE_SEED, Inputs, Rig, Workload, state_digest

#: every n-th query is re-read directly from its pinned epoch.
VERIFY_EVERY = 50
#: the live client must have seen at least this share of published epochs.
MIN_EPOCH_COVERAGE = 0.5
#: the live client yields the interpreter lock after querying this long,
#: as a client would while waiting on a network round trip.  A client
#: that never yields splits the lock with ingestion by chance, which
#: moved a run's refresh time by a quarter; one that yields after a fixed
#: query count takes a share that grows with the cost of its queries.
CLIENT_SLICE_S = 0.0005
#: queries per window of the query tail (see ``windowed_tail``).
QUERY_WINDOW = 2000
#: batch kernel timings a refresh time is normalised by (centred) and a
#: query time by (the latest).
REF_WINDOW = 5
#: samples a tail percentile leaves beyond it.
TAIL_BEYOND = 10


def tail_percentile(min_samples: int) -> float:
    """Highest percentile leaving ``TAIL_BEYOND`` of ``min_samples`` beyond."""
    return 100.0 * (min_samples - TAIL_BEYOND) / min_samples


def quantile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def windowed_tail(samples: List[float], pct: float) -> float:
    """Median over consecutive ``QUERY_WINDOW``-sample windows of each
    window's ``pct`` percentile.

    With ten samples beyond it, one window's tail rests on ten rare
    events (a collection, a preemption); the median over windows keeps
    that definition and repeats from run to run.
    """
    windows = [
        samples[i: i + QUERY_WINDOW]
        for i in range(0, len(samples) - QUERY_WINDOW + 1, QUERY_WINDOW)
    ]
    return statistics.median(quantile(w, pct) for w in windows)


class QueryClient:
    """A closed-loop client issuing the default :class:`QueryMix`.

    Key choice mirrors :class:`repro.serving.LoadGenerator`: 70 % of point
    reads go to the hottest tenth of the keys.  ``LoadGenerator`` reports
    aggregates only; the checks need every answer and the epoch it was
    pinned to.  Every ``VERIFY_EVERY``-th
    answer is compared, outside its timing, with a direct read of the
    epoch it was pinned to.
    """

    KINDS = ("point", "multi", "top_k", "range")

    def __init__(self, server: Any, keys: List[Any]) -> None:
        self.server = server
        self.keys = sorted(keys, key=sort_key)
        self.hot = self.keys[: max(1, len(self.keys) // 10)]
        self.mix = QueryMix()
        self.weights = [self.mix.point, self.mix.multi, self.mix.top_k, self.mix.range_scan]
        # The same traffic every run: the run's seed draws the data.
        self.rng = random.Random(BASE_SEED)
        #: the latest batch reference-kernel times (s); a query is
        #: normalised by their median.
        self.recent_refs: Deque[float] = deque(maxlen=REF_WINDOW)
        self.latencies: List[float] = []
        #: each latency divided by the reference time current when it ran.
        self.ratios: List[float] = []
        #: client-thread CPU seconds spent in queries, raw and divided by
        #: the reference time; waits for the interpreter lock excluded.
        self.cpu_s = 0.0
        self.cpu_ref = 0.0
        self.epochs: set = set()
        self.timeouts = 0
        self.errors: List[str] = []
        self.verified = 0
        self.unverifiable = 0
        self.mismatches: List[str] = []
        #: (kind, args, epoch, answer) of verified queries, for the self-test.
        self.samples: List[Tuple[str, tuple, int, Any]] = []

    def _pick(self) -> Any:
        if self.rng.random() < 0.7:
            return self.rng.choice(self.hot)
        return self.rng.choice(self.keys)

    def _query(self) -> Tuple[str, tuple]:
        kind = self.rng.choices(self.KINDS, self.weights)[0]
        if kind == "point":
            return kind, (self._pick(),)
        if kind == "multi":
            pool = self.hot if len(self.hot) >= self.mix.multi_size else self.keys
            wanted = min(self.mix.multi_size, len(pool))
            return kind, (tuple(sorted(self.rng.sample(pool, wanted), key=sort_key)),)
        if kind == "top_k":
            return kind, (self.mix.k,)
        start = self.rng.randrange(len(self.keys))
        stop = min(len(self.keys) - 1, start + self.mix.range_span)
        return kind, (self.keys[start], self.keys[stop])

    def _call(self, kind: str, args: tuple) -> Any:
        server = self.server
        if kind == "point":
            return server.get(args[0])
        if kind == "multi":
            return server.multi_get(args[0])
        if kind == "top_k":
            return server.top_k(args[0])
        return server.range_scan(args[0], args[1])

    @staticmethod
    def direct(snap: Any, kind: str, args: tuple) -> Any:
        """The answer read straight from a snapshot, bypassing server and cache."""
        if kind == "point":
            return snap.get(args[0])
        if kind == "multi":
            return {key: snap.get(key) for key in args[0]}
        if kind == "top_k":
            return snap.top_k(args[0])
        return snap.range_scan(args[0], args[1])

    def answer_matches(self, kind: str, args: tuple, epoch: int, answer: Any) -> Optional[bool]:
        """Whether ``answer`` equals a direct read of ``epoch`` (None: retired)."""
        try:
            with self.server.manager.pinned(epoch) as snap:
                return self.direct(snap, kind, args) == answer
        except EpochRetired:
            return None

    def issue(self) -> None:
        """Issue one query, time it, and sometimes verify it."""
        kind, args = self._query()
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            result = self._call(kind, args)
        except QueryTimeout:
            self.timeouts += 1
            return
        except Exception as exc:  # counted as a failed operation, not fatal
            self.errors.append(f"{kind}: {exc!r}")
            return
        elapsed = time.perf_counter() - start
        cpu = time.thread_time() - cpu
        ref = statistics.median(self.recent_refs)
        self.latencies.append(elapsed)
        self.ratios.append(elapsed / ref)
        self.cpu_s += cpu
        self.cpu_ref += cpu / ref
        self.epochs.add(result.epoch)
        if len(self.latencies) % VERIFY_EVERY == 0:
            ok = self.answer_matches(kind, args, result.epoch, result.value)
            if ok is None:
                self.unverifiable += 1
            elif ok:
                self.verified += 1
                self.samples.append((kind, args, result.epoch, result.value))
            else:
                self.mismatches.append(f"{kind}{args!r} at epoch {result.epoch}")

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.timeouts + len(self.errors)


@dataclass
class Samples:
    """Per-batch host samples of the timed phase."""

    refresh_s: List[float] = field(default_factory=list)
    ref_s: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)
    records: List[int] = field(default_factory=list)
    traced: List[bool] = field(default_factory=list)
    exhausted: bool = False
    #: digest of the state after the workload's minimum batch count.
    digest: Optional[str] = None
    #: MRBG-Store statistics accumulated over the traced batches.
    store: StoreMetrics = field(default_factory=StoreMetrics)


def _ingest(rig: Rig, wl: Workload, inputs: Inputs, seconds: float, host: ReferenceHost,
            tracer: Optional[Tracer], out: Samples,
            client: Optional["QueryClient"]) -> None:
    """Replay batches until time is up and the minimum count is reached,
    then on to the end of the mutation generation in progress."""
    batches = rig.pipeline.result.batches
    arrived = inputs.arrived
    applied = 0
    start = time.perf_counter()
    while True:
        done = (len(out.refresh_s) >= wl.min_batches
                and time.perf_counter() - start >= seconds)
        mid_generation = (0 < applied < len(arrived)
                          and arrived[applied].arrival_s == arrived[applied - 1].arrival_s)
        if done and not mid_generation:
            return
        rig.pipeline.policy.finishing = done
        n = len(batches)
        ref = host.time()
        if client is not None:
            client.recent_refs.append(ref)
        traced = tracer is not None and len(out.refresh_s) % 2 == 1
        if traced:
            store_before = rig.store_metrics()
            tracer.install()
        c0 = time.thread_time()
        t0 = time.perf_counter()
        rig.pipeline.run(max_batches=1)
        elapsed = time.perf_counter() - t0
        out.cpu_s.append(time.thread_time() - c0)
        if traced:
            tracer.uninstall()
            tracer.settle()
            rig.store_metrics().since(store_before).merged_into(out.store)
        if len(batches) == n:
            out.exhausted = True
            return
        out.refresh_s.append(elapsed)
        out.ref_s.append(ref)
        out.records.append(batches[-1].num_records)
        applied += batches[-1].num_records
        out.traced.append(traced)
        if len(out.refresh_s) == wl.min_batches:
            paused = time.perf_counter()
            out.digest = state_digest(rig.consumer.state())
            start += time.perf_counter() - paused


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One measured run; returns raw figures, counts and check results."""
    with ReferenceHost(wl.reference_in_process) as host:
        return _run(wl, seed, seconds, trace, host)


def _run(wl: Workload, seed: int, seconds: float, trace: bool,
         host: ReferenceHost) -> Dict[str, Any]:
    phases: Dict[str, float] = {}
    t_phase = time.perf_counter()
    inputs = wl.generate(seed)
    gc.collect()
    phases["generate"] = time.perf_counter() - t_phase

    setup_s: List[float] = []
    setup_ref: List[float] = []
    digests = set()
    rig: Optional[Rig] = None
    for _ in range(wl.setup_repeats):
        if rig is not None:
            rig.close()
            rig = None
        # the previous rig's garbage is collected here, not in the set-up
        gc.collect()
        # timed here, where the set-up runs: nothing else is running yet
        setup_ref.append(time_kernel())
        t0 = time.perf_counter()
        rig = wl.setup(inputs)
        setup_s.append(time.perf_counter() - t0)
        digests.add(state_digest(dict(rig.server.manager.latest().items())))
    failures: List[str] = []
    if len(digests) != 1:
        failures.append("epoch-0 state differs between repeated set-ups")

    tracer = Tracer() if trace else None
    layer_totals = query_totals = None
    samples = Samples()
    client = None
    if wl.concurrent_queries:
        client = QueryClient(rig.server, list(dict(rig.server.manager.latest().items())))
        client.recent_refs.append(host.time())
    epoch_before = rig.server.manager.latest_epoch
    cache_before = (rig.server.cache.stats.hits, rig.server.cache.stats.misses,
                    rig.server.cache.stats.invalidations)
    rebuilds_before = rig.server.manager.topk_rebuilds
    t_phase = time.perf_counter()
    try:
        if client is not None:
            crashed: List[BaseException] = []

            def ingest() -> None:
                try:
                    _ingest(rig, wl, inputs, seconds, host, tracer, samples, client)
                except BaseException as exc:  # re-raised on the main thread
                    crashed.append(exc)

            thread = threading.Thread(target=ingest, name="ingest")
            thread.start()
            try:
                slice_start = time.perf_counter()
                while thread.is_alive():
                    client.issue()
                    if time.perf_counter() - slice_start >= CLIENT_SLICE_S:
                        time.sleep(0)
                        slice_start = time.perf_counter()
            finally:
                thread.join()
            if crashed:
                raise crashed[0]
            if tracer is not None:
                layer_totals = tracer.snapshot("ingest")
                query_totals = tracer.snapshot(threading.current_thread().name)
        else:
            _ingest(rig, wl, inputs, seconds, host, tracer, samples, None)
            if tracer is not None:
                layer_totals = tracer.snapshot()

        phases["timed"] = time.perf_counter() - t_phase
        # before the checks, whose references hold graphs of their own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t_phase = time.perf_counter()
        batches = rig.pipeline.result.batches
        applied = sum(b.num_records for b in batches)
        published = rig.server.manager.latest_epoch - epoch_before
        state = rig.consumer.state()
        served = dict(rig.server.manager.latest().items())

        # ---- output checks ------------------------------------------
        if samples.exhausted and len(samples.refresh_s) < wl.min_batches:
            failures.append("input stream ran out before the minimum batch count")
        if served != state:
            failures.append("last served epoch differs from the consumer state")
        if published != len(batches):
            failures.append(f"{published} epochs published for {len(batches)} batches")
        ref = wl.reference(rig, inputs, applied)
        failures.extend(wl.compare(state, ref))
        for what, perturbed in wl.perturbations(state, ref):
            if not wl.compare(perturbed, ref):
                failures.append(f"self-test: a state with {what} passed the check")
        if client is not None:
            failures.extend(_query_failures(wl, client, published, epoch_before))
        phases["check"] = time.perf_counter() - t_phase
        phases["setup"] = sum(setup_s)

        stats = rig.server.cache.stats
        hits = stats.hits - cache_before[0]
        misses = stats.misses - cache_before[1]
        result = {
            "setup_s": setup_s,
            "setup_ref_s": setup_ref,
            "samples": samples,
            "sim_refresh_s": sum(b.processing_s for b in batches[: wl.min_batches]),
            "batches": len(batches),
            "batch_metrics": list(batches),
            "applied": applied,
            "dead_letters": len(rig.pipeline.dead_letters),
            "fell_back": sum(b.fell_back for b in batches),
            "client": client,
            "published": published,
            "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "invalidations": stats.invalidations - cache_before[2],
            "topk_rebuilds": rig.server.manager.topk_rebuilds - rebuilds_before,
            "failures": failures,
            "phases_s": phases,
            "layer_totals": layer_totals,
            "query_totals": query_totals,
            "peak_rss_mb": peak_rss_mb,
        }
    finally:
        rig.close()
    return result


def _query_failures(wl: Workload, client: QueryClient, published: int,
                    epoch_before: int) -> List[str]:
    """Failed checks of the live client's answers and coverage."""
    failures = []
    if len(client.latencies) < wl.min_queries:
        failures.append(
            f"{len(client.latencies)} queries answered, fewer than {wl.min_queries}"
        )
    failures.extend(f"query answer differs: {m}" for m in client.mismatches[:5])
    if client.samples:
        kind, args, epoch, answer = client.samples[-1]
        if client.answer_matches(kind, args, epoch, _perturb_answer(answer)):
            failures.append("self-test: a perturbed query answer passed the check")
    if client.verified < 0.9 * (client.verified + client.unverifiable):
        failures.append("too few query answers could be verified")
    seen = len([e for e in client.epochs if e > epoch_before])
    if seen < MIN_EPOCH_COVERAGE * published:
        failures.append(f"client saw {seen} of {published} published epochs")
    return failures


def _bump(value: Any) -> Any:
    """``value`` with one scalar inside it changed."""
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, tuple) and value:
        return (_bump(value[0]),) + value[1:]
    if isinstance(value, list) and value:
        return [_bump(value[0])] + value[1:]
    if isinstance(value, dict) and value:
        key = next(iter(value))
        return {**value, key: _bump(value[key])}
    return 1 if value is None else (value, 1)


def _perturb_answer(answer: Any) -> Any:
    """``answer`` with one value changed: for pairs, the value not the key."""
    if isinstance(answer, list) and answer:
        key, value = answer[0]
        return [(key, _bump(value))] + answer[1:]
    return _bump(answer)


def end_to_end(wl: Workload, r: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Raw and reference-normalised end-to-end figures of one run.

    A normalised time divides each sample by the median kernel time of
    the ``REF_WINDOW`` timings around it (host speed drifts within
    seconds), scaled to a host where the kernel takes ``NOMINAL_MS``.
    Refresh times are wall times, or the ingesting thread's CPU times on
    a workload with ``refresh_cpu_time``.
    """
    s: Samples = r["samples"]
    client: Optional[QueryClient] = r["client"]
    refresh_s = s.cpu_s if wl.refresh_cpu_time else s.refresh_s
    refresh_ms = [x * 1e3 for x in refresh_s]
    refs = rolling_median(s.ref_s, REF_WINDOW)
    refresh_ref = [x / y * NOMINAL_MS for x, y in zip(refresh_s, refs)]
    refresh_tail = tail_percentile(wl.min_batches)
    query_tail = tail_percentile(QUERY_WINDOW)
    records = sum(s.records)
    raw = {
        "setup_s": statistics.median(r["setup_s"]),
        "refresh_p50_ms": statistics.median(refresh_ms),
        "refresh_tail_ms": quantile(refresh_ms, refresh_tail),
        "delta_records_per_s": records / sum(refresh_s),
        "sim_refresh_s": r["sim_refresh_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    ref_kernel_ms = statistics.median(s.ref_s) * 1e3
    norm = {
        # each set-up by the kernel timed just before it, once the previous
        # set-up's garbage is collected: host speed moved set-ups of one
        # run by a third.
        "setup_s": statistics.median(
            x / k for x, k in zip(r["setup_s"], r["setup_ref_s"])
        ) * NOMINAL_MS / 1e3,
        "refresh_p50_ms": statistics.median(refresh_ref),
        "refresh_tail_ms": quantile(refresh_ref, refresh_tail),
        "delta_records_per_s": records / sum(refresh_ref) * 1e3,
    }
    if client is not None:
        query_us = [x * 1e6 for x in client.latencies]
        query_ref = [x * NOMINAL_MS * 1e3 for x in client.ratios]
        raw["query_p50_us"] = statistics.median(query_us)
        raw["query_tail_us"] = windowed_tail(query_us, query_tail)
        raw["queries_per_s"] = len(query_us) / client.cpu_s
        norm["query_p50_us"] = statistics.median(query_ref)
        norm["query_tail_us"] = windowed_tail(query_ref, query_tail)
        norm["queries_per_s"] = len(query_ref) / client.cpu_ref / NOMINAL_MS * 1e3
    return {
        "raw": raw,
        "norm": norm,
        "ref_kernel_ms": ref_kernel_ms,
        "percentiles": {"refresh_tail": refresh_tail, "query_tail": query_tail},
    }
