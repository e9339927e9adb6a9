"""Incremental-refresh benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload pagerank-stream --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with every other batch traced and prints the per-layer split.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's details (raw and reference-normalised figures, the reference
kernel median, percentiles used, digests, check results).  The exit code
is 0 only when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch space for MRBG-Stores and WALs, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: End-to-end metrics: unit, and whether the committed value is the raw
#: host figure or the reference-normalised one (see README.md).
END_TO_END = {
    "setup_s": ("s", "norm"),
    "refresh_p50_ms": ("ref_ms", "norm"),
    "refresh_tail_ms": ("ref_ms", "norm"),
    "delta_records_per_s": ("ref_1/s", "norm"),
    "sim_refresh_s": ("sim_s", "raw"),
    "peak_rss_mb": ("MB", "raw"),
}
#: Query metrics of the live client, reported on ``wordcount-serve`` (the
#: one workload with readers) and 0 elsewhere; per-layer, since every
#: end-to-end metric must be measured on every workload.
QUERY = {
    "query_p50_us": "ref_us",
    "query_tail_us": "ref_us",
    "queries_per_s": "ref_1/s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_environment(workdir: str) -> None:
    """Pin the program's knobs and keep its files inside the checkout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit(f"perfbench: no program to measure under {ROOT}/src")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    sys.path.insert(0, os.path.join(ROOT, "src"))


def per_layer(r, figures):
    """The traced run's per-layer metrics: {name: (value, unit)}."""
    s = r["samples"]
    traced = [i for i, t in enumerate(s.traced) if t]
    plain = [i for i, t in enumerate(s.traced) if not t]
    nb = len(traced)
    nrec = sum(s.records[i] for i in traced)
    lt = r["layer_totals"]
    qt = r["query_totals"]
    batches = r["batch_metrics"]
    out = {}

    def ms(layer, attr="self_s"):
        return getattr(lt[layer], attr) * 1e3 / nb

    store = s.store
    out["mrbgraph.get_chunk.ms"] = (ms("mrbgraph.get_chunk"), "ms")
    out["mrbgraph.put_chunk.ms"] = (ms("mrbgraph.put_chunk"), "ms")
    out["mrbgraph.end_merge.ms"] = (ms("mrbgraph.end_merge"), "ms")
    out["mrbgraph.get_chunk.calls_per_record"] = (lt["mrbgraph.get_chunk"].calls / nrec, "calls/record")
    out["mrbgraph.bytes_read_per_record"] = (store.bytes_read / nrec, "B/record")
    out["mrbgraph.bytes_written_per_record"] = (store.bytes_written / nrec, "B/record")
    out["mrbgraph.wal_bytes_per_record"] = (store.wal_bytes_written / nrec, "B/record")
    lookups = store.cache_hits + store.cache_misses
    out["mrbgraph.window_cache_hit_rate"] = (store.cache_hits / lookups if lookups else 0.0, "ratio")
    for fn in ("record_size", "partition_for", "map_key", "stable_hash"):
        out[f"common.{fn}.calls_per_record"] = (lt[f"common.{fn}"].calls / nrec, "calls/record")
        out[f"common.{fn}.ms"] = (ms(f"common.{fn}"), "ms")
    out["common.sort_records.ms"] = (ms("common.sort_records"), "ms")
    out["common.merge_sorted_runs.ms"] = (ms("common.merge_sorted_runs"), "ms")

    superstep = lt["iterative.run_full_iteration"]
    tasks = lt["execution.run_tasks"]
    out["iterative.run_full_iteration_ms"] = (ms("iterative.run_full_iteration", "incl_s"), "ms")
    out["iterative.parent_serial_ms"] = (
        (superstep.incl_s - superstep.extra.get("run_tasks_s", 0.0)) * 1e3 / nb, "ms"
    )
    out["execution.run_tasks_ms"] = (ms("execution.run_tasks", "incl_s"), "ms")
    out["execution.tasks_per_record"] = (tasks.extra.get("tasks", 0.0) / nrec, "tasks/record")
    out["execution.payload_bytes_per_record"] = (tasks.extra.get("shipped_bytes", 0.0) / nrec, "B/record")
    pool_batches = tasks.extra.get("pool_batches", 0.0)
    out["execution.inproc_fallback_ratio"] = (
        tasks.extra.get("inproc_fallbacks", 0.0) / pool_batches if pool_batches else 0.0, "ratio"
    )
    out["execution.retries"] = (tasks.extra.get("retries", 0.0), "count")

    traced_batches = [batches[i] for i in traced]
    out["inciter.run_incremental_ms"] = (ms("inciter.run_incremental", "incl_s"), "ms")
    iterative = lt["inciter.run_incremental"].calls > 0
    out["inciter.iterations_per_batch"] = (
        sum(b.iterations for b in traced_batches) / nb if iterative else 0.0, "iterations"
    )
    out["inciter.fallback_ratio"] = (
        sum(b.fell_back for b in traced_batches) / nb, "ratio"
    )
    out["incremental.run_incremental_ms"] = (ms("incremental.run_incremental", "incl_s"), "ms")
    out["dfs.write_ms"] = (ms("dfs.write", "incl_s"), "ms")
    out["dfs.bytes_staged_per_record"] = (lt["dfs.write"].extra.get("bytes", 0.0) / nrec, "B/record")
    out["serving.publish_ms"] = (ms("serving.publish", "incl_s"), "ms")
    out["streaming.consumer_state_ms"] = (ms("streaming.consumer_state", "incl_s"), "ms")

    for name, unit in QUERY.items():
        out[name] = (figures["norm"].get(name, 0.0), unit)
    for kind, layer in (("get", "serving.get"), ("multi_get", "serving.multi_get"),
                        ("range_scan", "serving.range_scan"), ("top_k", "serving.top_k")):
        t = qt[layer] if qt is not None else None
        out[f"serving.{kind}_us"] = (t.incl_s * 1e6 / t.calls if t and t.calls else 0.0, "us")
    out["serving.cache_hit_rate"] = (r["cache_hit_rate"], "ratio")
    out["serving.invalidations_per_epoch"] = (
        r["invalidations"] / r["published"] if r["published"] else 0.0, "1/epoch"
    )
    out["serving.topk_rebuilds"] = (r["topk_rebuilds"], "count")

    loop_s = sum(s.refresh_s[i] for i in traced)
    loop_s -= lt["streaming.process_batch"].incl_s + lt["streaming.listeners"].incl_s
    out["streaming.loop_overhead_ms"] = (loop_s * 1e3 / nb, "ms")
    out["host.ref_kernel_ms"] = (figures["ref_kernel_ms"], "ms")
    out["trace.overhead_ratio"] = (
        statistics.median(s.refresh_s[i] for i in traced)
        / statistics.median(s.refresh_s[i] for i in plain),
        "ratio",
    )
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    _prepare_environment(workdir)
    try:
        import measure
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                     f"choose from {', '.join(sorted(WORKLOADS))}")
        wl = WORKLOADS[args.workload]()
        r = measure.run_workload(wl, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    figures = measure.end_to_end(wl, r)
    client = r["client"]
    failures = r["failures"]
    attempted = len(r["samples"].refresh_s)
    failed = r["dead_letters"]
    if client is not None:
        attempted += client.attempted
        failed += client.timeouts + len(client.errors) + len(client.mismatches)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer(r, figures).items()}
    else:
        metrics = {}
        for name, (unit, form) in END_TO_END.items():
            value = figures["norm"][name] if form == "norm" else figures["raw"][name]
            metrics[name] = {"value": value, "unit": unit}
    details = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ref_kernel_ms": figures["ref_kernel_ms"],
        "normalized": sorted(n for n, (_, form) in END_TO_END.items() if form == "norm"),
        "refresh_clock": "thread_cpu" if wl.refresh_cpu_time else "wall",
        "raw": figures["raw"],
        "norm": figures["norm"],
        "percentiles": figures["percentiles"],
        "batches": r["batches"],
        "records": r["applied"],
        "fallback_batches": r["fell_back"],
        "stream_exhausted": r["samples"].exhausted,
        "epochs_published": r["published"],
        "state_digest_at_min_batches": r["samples"].digest,
        "failures": failures,
        "phases_s": r["phases_s"],
        "setup_runs_s": r["setup_s"],
        "setup_ref_kernel_ms": [x * 1e3 for x in r["setup_ref_s"]],
        "per_batch": {
            "refresh_ms": [x * 1e3 for x in r["samples"].refresh_s],
            "ref_kernel_ms": [x * 1e3 for x in r["samples"].ref_s],
            "cpu_ms": [x * 1e3 for x in r["samples"].cpu_s],
            "records": r["samples"].records,
            "sim_s": [b.processing_s for b in r["batch_metrics"]],
        },
    }
    if client is not None:
        details["queries"] = len(client.latencies)
        details["queries_verified"] = client.verified
        details["epochs_seen"] = len(client.epochs)
        details["query_metrics"] = {
            name: {"value": figures["norm"][name], "unit": unit}
            for name, unit in QUERY.items()
        }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
