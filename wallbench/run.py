"""Wall-clock benchmark of the Squirrel mediator: end to end and per layer.

Usage (from the root of a checkout)::

    python3 wallbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--workload`` is ``ingest``, ``hybrid_read`` or ``replicated`` (see
``wallbench/README.md``).  The run generates its inputs from ``--seed``,
measures for ``--seconds`` seconds of client operations, checks sampled
answers against a from-scratch recompute off the clock, and prints a
report line and then, as the last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` the layer entry points are wrapped (see
``tracing.py``) and the metrics are the per-layer ones.  A wrong answer,
a failed operation or a trace that does not reconcile exits with 1.

The measured phase is split into segments.  Each segment sets the whole
system up again from the seed (timed; ``setup_s`` is the median) and runs
rounds for its share of ``--seconds``.  Spreading the set-ups and the
measured rounds over the same stretch of the run keeps one burst of the
machine's speed from deciding ``setup_s`` or the latencies alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
perf = time.perf_counter

#: Untraced runs: segments, each with its own full set-up.
SEGMENTS = 20
#: Traced runs alternate untraced and traced segments (for the overhead).
TRACE_SEGMENTS = ("plain", "traced", "plain", "traced")

#: Rounds between two resident-memory readings in the report.
RSS_EVERY = 25

LATENCY_METRICS = (
    "commit_visible_ms", "query_stored_ms", "query_virtual_ms", "replica_visible_ms", "round_ms",
)


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": model,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_segment(workload_cls, seed, seconds, workdir, tracer, report, last):
    """Set up one system and run rounds for ``seconds`` on the clock.  The
    segments replay the same operations, so the end-of-run gate runs once,
    on the ``last`` segment's system."""
    gc.collect()
    started = perf()
    workload = workload_cls(seed, str(workdir))
    workload.setup()
    setup_s = perf() - started
    gc.collect()
    if tracer is not None:
        tracer.counters = workload.counters
        workload.ops = tracer
        tracer.install()
        tracer.start_window()
    on_clock = 0.0
    errors = []
    rss = []
    while on_clock < seconds:
        begin = perf()
        offclock = workload.offclock_s
        try:
            workload.round()
        except Exception as exc:  # a failed operation ends the segment
            errors.append(f"round {workload.round_no}: {type(exc).__name__}: {exc}")
            break
        finally:
            spent = perf() - begin - (workload.offclock_s - offclock)
            on_clock += spent
        workload.samples.add("round_ms", spent * 1e3, "round")
        workload.round_no += 1
        if workload.round_no % RSS_EVERY == 0:
            rss.append((workload.round_no, round(current_rss_mb(), 2)))
    if tracer is not None:
        if tracer.op is not None:
            tracer.end()
        tracer.stop_window()
        tracer.uninstall()
    problems = workload.final_check() if last and not errors else []
    workload.teardown()
    report.setdefault("segments", []).append({
        "setup_s": setup_s,
        "on_clock_s": on_clock,
        "rounds": workload.round_no,
        "ops": workload.samples.ops,
        "checks": workload.checks,
        "rss_mb_by_round": rss,
        "traced": tracer is not None,
    })
    return workload, setup_s, on_clock, errors + workload.wrong + problems


def best_of_replays(replays):
    """Every segment replays the same seeded operations on a freshly set-up
    system, so the i-th sample of a metric and class is the same operation
    in every segment.  Each operation's latency is its lowest over the
    replays.  The machine's speed swings by a fifth within seconds while
    its best speed holds within a few percent, so the best of several
    replays spread over the run measures the program, not the neighbours;
    work that every replay repeats (a slow class, a collector pause at the
    same allocation count) still shows in full."""
    out = {}
    for metric in LATENCY_METRICS:
        per_replay = [replay.get(metric, {}) for replay in replays]
        classes = sorted(set().union(*per_replay)) if per_replay else []
        merged = {}
        for cls in classes:
            runs = [replay.get(cls, ()) for replay in per_replay]
            # Only operations every replay reached: an operation with fewer
            # replays would get a worse best and crowd the upper quantiles.
            n = min(len(run) for run in runs)
            merged[cls] = [min(run[i] for run in runs) for i in range(n)]
        if merged:
            out[metric] = merged
    return out


def pooled(replays):
    """Every sample of every replay, per metric (for comparison only)."""
    out = {}
    for replay in replays:
        for metric, classes in replay.items():
            for values in classes.values():
                out.setdefault(metric, []).extend(values)
    return out


def latency_report(samples):
    """Quantiles per latency metric, plus each operation class's share and
    median so a quantile sitting on a class boundary is visible."""
    out = {}
    for metric in LATENCY_METRICS:
        classes = samples.get(metric)
        if not classes:
            continue
        values = [ms for v in classes.values() for ms in v]
        p50, p90 = percentile(values, 0.5), percentile(values, 0.9)
        out[metric] = {
            "n": len(values),
            "p50": p50,
            "p90": p90,
            "classes": {
                cls: {
                    "share": len(v) / len(values),
                    "p50": percentile(v, 0.5),
                    "below_p50": sum(x <= p50 for x in v) / len(v),
                    "below_p90": sum(x <= p90 for x in v) / len(v),
                }
                for cls, v in sorted(classes.items())
            },
        }
    return out


def layer_metrics(tracer, ops, traced_rate, plain_rate):
    """The per-layer metrics of the traced segments, and the reconciliation
    of span counts against the program's own counters."""
    from tracing import SPAN_KEYS

    attribution = tracer.attribute()
    self_s = attribution["self_s"]
    calls = tracer.calls()
    window = tracer.window
    ops = max(ops, 1)

    def ms(key):
        return self_s[key] * 1e3 / ops

    def per_op(count):
        return count / ops

    lookups = tracer.values("vap.lookup")
    hits = sum(1 for v in lookups if v)
    appended = [v for v in tracer.values("durability.wal_append")]
    flushed = tracer.values("update_queue.flush")
    applied = [v for v in tracer.values("replication.apply") if v]
    pushed = window.get("pushdown_queries", 0.0)
    fallback = window.get("fallback_queries", 0.0)
    metrics = {
        "sources.execute_ms": ms("sources.execute"),
        "sources.execute.calls": per_op(calls["sources.execute"]),
        "sources.announce_ms": ms("sources.announce"),
        "sources.announce.calls": per_op(calls["sources.announce"]),
        "sources.poll_ms": ms("sources.poll") + ms("sources.pushdown"),
        "sources.poll.calls": per_op(calls["sources.poll"]),
        "sources.pushdown_ratio": pushed / (pushed + fallback) if pushed + fallback else 0.0,
        "update_queue.flush_ms": ms("update_queue.flush"),
        "update_queue.flush.calls": per_op(calls["update_queue.flush"]),
        "update_queue.msgs_per_flush": sum(flushed) / len(flushed) if flushed else 0.0,
        "iup.txn_ms": tracer.inclusive_s("iup.txn") * 1e3 / ops,
        "iup.self_ms": ms("iup.txn"),
        "iup.txn.calls": per_op(calls["iup.txn"]),
        "rules.fire_ms": ms("rules.fire"),
        "rules.fire.calls": per_op(calls["rules.fire"]),
        "relalg.evaluate_ms": ms("relalg.evaluate"),
        "relalg.evaluate.calls": per_op(calls["relalg.evaluate"]),
        "relalg.rows_hashed_per_op": per_op(window.get("rows_hashed", 0.0)),
        "relalg.index_probes_per_op": per_op(window.get("index_probes", 0.0)),
        "local_store.apply_ms": ms("local_store.apply"),
        "local_store.apply.calls": per_op(calls["local_store.apply"]),
        "local_store.rows_applied_per_op": per_op(sum(tracer.values("local_store.apply"))),
        "vap.materialize_ms": ms("vap.materialize"),
        "vap.plan_ms": ms("vap.plan"),
        "vap.construct_ms": ms("vap.construct"),
        "vap.lookup_ms": ms("vap.lookup"),
        "vap.invalidate_ms": ms("vap.invalidate"),
        "vap.construct.calls": per_op(calls["vap.construct"]),
        "vap.cache_hit_ratio": hits / len(lookups) if lookups else 0.0,
        "query_processor.self_ms": ms("query_processor.query"),
        "query_processor.query.calls": per_op(calls["query_processor.query"]),
        "durability.commit_ms": ms("durability.commit"),
        "durability.wal_append_ms": ms("durability.wal_append"),
        "durability.checkpoint_ms": ms("durability.checkpoint"),
        "durability.checkpoint.calls": per_op(calls["durability.checkpoint"]),
        "durability.wal_bytes_per_txn": sum(appended) / len(appended) if appended else 0.0,
        "replication.tick_ms": ms("replication.tick"),
        "replication.apply_ms": ms("replication.apply"),
        "replication.route_ms": ms("replication.route"),
        "replication.records_per_txn": len(applied) / len(appended) if appended else 0.0,
        "trace.unattributed_share": (
            attribution["unattributed_s"] / attribution["ops_s"] if attribution["ops_s"] else 0.0
        ),
        "trace.overhead_ratio": plain_rate / traced_rate if traced_rate else 0.0,
        "trace.spans_per_op": per_op(len(tracer.spans)),
    }
    # Span counts against the program's own counters, over the same window.
    pairs = {
        "update_queue.flush calls = update transactions":
            (calls["update_queue.flush"], window.get("update_transactions", 0)),
        "rules.fire calls = rules fired": (calls["rules.fire"], window.get("rules_fired", 0)),
        "local_store.apply under iup = nodes processed":
            (tracer.under("local_store.apply", "iup.txn"), window.get("nodes_processed", 0)),
        "query_processor.query calls = queries":
            (calls["query_processor.query"], window.get("queries", 0)),
        "vap.lookup hits = cache hits": (hits, window.get("cache_hits", 0)),
        "vap.lookup misses = cache misses": (len(lookups) - hits, window.get("cache_misses", 0)),
        "sources.execute calls = source transactions":
            (calls["sources.execute"], window.get("source_txns", 0)),
        "sources.poll calls = link polls": (calls["sources.poll"], window.get("link_polls", 0)),
        "durability.wal_append calls = WAL records":
            (len(appended), window.get("wal_records", 0)),
        "durability.wal_append bytes = WAL bytes": (sum(appended), window.get("wal_bytes", 0)),
        "durability.checkpoint calls = checkpoints":
            (calls["durability.checkpoint"], window.get("checkpoints", 0)),
        "replication.apply applied = records applied":
            (len(applied), window.get("records_applied", 0)),
        "replication.route calls = routed reads":
            (calls["replication.route"], window.get("routed_reads", 0)),
    }
    mismatches = [
        f"{name}: spans {int(spans)} vs counter {int(counter)}"
        for name, (spans, counter) in pairs.items()
        if int(spans) != int(counter)
    ]
    if attribution["worst_reconcile_gap_s"] > 1e-9:
        mismatches.append(
            f"self times + unattributed differ from an operation's duration by "
            f"{attribution['worst_reconcile_gap_s']:.3g} s"
        )
    if attribution["bad_nesting"]:
        mismatches.append(f"{attribution['bad_nesting']} spans outside their parent")
    reconciliation = {
        "counter_pairs": {name: [int(a), int(b)] for name, (a, b) in pairs.items()},
        "worst_reconcile_gap_s": attribution["worst_reconcile_gap_s"],
        "unattributed_s": attribution["unattributed_s"],
        "ops_s": attribution["ops_s"],
        "self_s": {key: attribution["self_s"][key] for key in SPAN_KEYS},
        "mismatches": mismatches,
    }
    return metrics, reconciliation


def op_classes(tracer):
    """Duration share of each traced operation kind."""
    durations = {}
    for kind, start, end in tracer.ops:
        durations.setdefault(kind, []).append((end - start) * 1e3)
    total = sum(len(v) for v in durations.values()) or 1
    return {
        kind: {"share": len(v) / total, "p50_ms": percentile(v, 0.5), "p90_ms": percentile(v, 0.9)}
        for kind, v in sorted(durations.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import NOT_EXERCISED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    # Per process, so two runs in one checkout never share durability files.
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "not_exercised": list(NOT_EXERCISED),
    }
    problems = []
    replays = []  # samples of each untraced segment
    rates = {"plain": [], "traced": []}
    ops = 0
    setups = []
    tracer = None
    if args.trace:
        from tracing import LayerTracer

        tracer = LayerTracer(counters=dict)
        plan = TRACE_SEGMENTS
    else:
        plan = ("plain",) * SEGMENTS
    per_segment = args.seconds / len(plan)
    for index, mode in enumerate(plan):
        workload, setup_s, clock, segment_problems = run_segment(
            workload_cls, args.seed, per_segment, workdir,
            tracer if mode == "traced" else None, report, index == len(plan) - 1,
        )
        setups.append(setup_s)
        problems.extend(segment_problems)
        rates[mode].append(workload.samples.ops / clock if clock else 0.0)
        ops += workload.samples.ops
        if mode == "plain":
            replays.append(workload.samples.by_metric)
        del workload
        if segment_problems:
            break
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass

    latencies = best_of_replays(replays)
    report["latency"] = latency_report(latencies)
    report["latency_pooled"] = {
        metric: {"p50": percentile(v, 0.5), "p90": percentile(v, 0.9)}
        for metric, v in pooled(replays).items()
    }
    report["setup_s_samples"] = setups
    report["ops_per_s_by_segment"] = rates
    report["peak_rss_mb"] = peak_rss_mb()
    report["problems"] = problems[:20]

    rounds = sum(segment["rounds"] for segment in report["segments"])
    best_rounds = latencies.get("round_ms", {}).get("round", [])
    # Client operations per second over the best replay of each round.
    best_rate = (
        (ops / rounds) * len(best_rounds) / (sum(best_rounds) / 1e3) if best_rounds else 0.0
    )
    report["ops_per_s_best_of_replays"] = best_rate
    if tracer is None:
        commit = [ms for v in latencies.get("commit_visible_ms", {}).values() for ms in v]
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (best_rate, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "commit_visible_ms.p50": (percentile(commit, 0.5), "ms"),
            "commit_visible_ms.p90": (percentile(commit, 0.9), "ms"),
        }
    else:
        traced_rate = max(rates["traced"], default=0.0)
        plain_rate = max(rates["plain"], default=0.0)
        traced_ops = len(tracer.ops)
        layer, reconciliation = layer_metrics(tracer, traced_ops, traced_rate, plain_rate)
        values = {name: (value, unit_of(name)) for name, value in layer.items()}
        report["trace_reconciliation"] = reconciliation
        report["op_classes"] = op_classes(tracer)
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        spans_path = trace_dir / f"{args.workload}-{args.seed}.jsonl"
        tracer.write(str(spans_path))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        problems.extend(reconciliation["mismatches"])

    failed = len(problems)
    result = {
        "correct": failed == 0,
        "attempted": max(ops, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if "bytes" in name:
        return "B"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
