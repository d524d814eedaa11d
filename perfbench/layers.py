"""Per-layer accounting from the spans and metrics `sbi` already emits.

Each traced `sbi` process writes a Chrome trace_event file (--trace-out) and
a metrics registry dump (--metrics-out). Layer names follow the src/
modules. Durations are summed over every traced process of one pipeline,
and, where a layer runs on several threads, over threads.

The layers that add up to the pipeline's wall time are the spans that the
main thread of each process runs back to back: parse (which holds the VM
compile), plan_training, run_loop and label inside a campaign, then
corpus_ingest and analysis. What they do not cover is process start,
argument parsing, text rendering and output, and it is reported as
sbi.unattributed_ms.
"""

import json

EXEC_SPANS = ("interp_execute", "vm_execute")
# Every per-layer metric a traced run reports, with its unit.
UNITS = {
    "lang.parse_ms": "ms", "vm.compile_ms": "ms",
    "runtime.executions": "count", "runtime.steps": "count",
    "runtime.exec_ms": "ms", "runtime.us_per_execution": "us",
    "runtime.ns_per_step": "ns",
    "harness.training_ms": "ms", "harness.training_runs": "count",
    "harness.golden_reruns": "count", "harness.run_loop_ms": "ms",
    "harness.workers": "count", "harness.worker_busy_max_ms": "ms",
    "harness.worker_busy_mean_ms": "ms", "harness.overhead_us_per_run": "us",
    "harness.spill_ms": "ms", "harness.label_ms": "ms",
    "feedback.corpus_bytes": "bytes", "feedback.bytes_per_report": "bytes",
    "feedback.ingest_ms": "ms", "feedback.decode_ms": "ms",
    "feedback.merge_ms": "ms", "feedback.ingest_mb_per_s": "MB/s",
    "core.analysis_ms": "ms", "core.index_build_ms": "ms",
    "core.initial_scan_ms": "ms", "core.elimination_ms": "ms",
    "core.elimination_iters": "count", "core.selected": "count",
    "obs.spans": "count", "obs.trace_overhead_pct": "%",
    "sbi.unattributed_ms": "ms", "sbi.unattributed_pct": "%",
}
# Back-to-back main-thread layers; together with the residue they make up
# the wall time of a pipeline.
WALL_LAYERS = ("parse", "plan_training", "run_loop", "label",
               "corpus_ingest", "analysis")


class Trace:
    """The complete spans of one --trace-out file, by name and thread."""

    def __init__(self, path):
        with open(path) as f:
            doc = json.load(f)
        self.recorded = doc["otherData"]["recorded_events"]
        self.dropped = doc["otherData"]["dropped_events"]
        self.spans = [(e["name"], e["tid"], float(e["ts"]), float(e["dur"]))
                      for e in doc["traceEvents"] if e.get("ph") == "X"]

    def named(self, *names):
        return [s for s in self.spans if s[0] in names]

    def total_ms(self, *names):
        return sum(s[3] for s in self.named(*names)) / 1e3


def covered_us(intervals, lo, hi):
    """Length of [lo, hi) covered by the union of (start, end) intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def inside(spans, name, tid, start, end):
    """(start, end) of the spans called \\p name on \\p tid within [start, end]."""
    return [(s[2], s[2] + s[3]) for s in spans
            if s[0] == name and s[1] == tid and s[2] >= start
            and s[2] + s[3] <= end]


def read_metrics(path):
    with open(path) as f:
        return json.load(f)


def layer_metrics(traces, metrics, corpus_bytes, ingested_bytes, reports,
                  selected):
    """Per-layer figures of one pipeline from its traces and metrics dumps.

    \\p corpus_bytes is the on-disk size of the corpus the workload writes or
    reads, \\p ingested_bytes the bytes its analyses read back, \\p reports
    the runs in that corpus and \\p selected the predicates all its analyses
    printed.
    """
    def counter(name):
        return sum(m.get("counters", {}).get(name, 0) for m in metrics)

    out = {}
    compile_ms = sum(t.total_ms("vm_compile") for t in traces)
    out["lang.parse_ms"] = sum(t.total_ms("parse") for t in traces) - compile_ms
    out["vm.compile_ms"] = compile_ms

    executions = sum(len(t.named(*EXEC_SPANS)) for t in traces)
    steps = counter("interp.steps") + counter("vm.dispatches")
    exec_ms = sum(t.total_ms(*EXEC_SPANS) for t in traces)
    out["runtime.executions"] = executions
    out["runtime.steps"] = steps
    out["runtime.exec_ms"] = exec_ms
    out["runtime.us_per_execution"] = (exec_ms * 1e3 / executions
                                       if executions else 0.0)
    out["runtime.ns_per_step"] = exec_ms * 1e6 / steps if steps else 0.0

    runs = counter("campaign.runs_total")
    training_runs = counter("campaign.training_runs_total")
    out["harness.training_ms"] = sum(t.total_ms("plan_training")
                                     for t in traces)
    out["harness.training_runs"] = training_runs
    out["harness.golden_reruns"] = max(0, executions - runs - training_runs)
    out["harness.run_loop_ms"] = sum(t.total_ms("run_loop") for t in traces)

    # A run-loop thread is a worker span, or the run_loop span itself when
    # the loop ran on the calling thread. Its time outside executions and
    # shard spills is per-run harness work.
    busy, overhead_us, spill_self_us = [], 0.0, 0.0
    for t in traces:
        loops = t.named("worker") or t.named("run_loop")
        for _, tid, ts, dur in loops:
            busy.append(dur / 1e3)
            execs = inside(t.spans, "interp_execute", tid, ts, ts + dur) + \
                inside(t.spans, "vm_execute", tid, ts, ts + dur)
            spills = inside(t.spans, "spill_shard", tid, ts, ts + dur)
            overhead_us += dur - covered_us(execs + spills, ts, ts + dur)
            for lo, hi in spills:
                spill_self_us += (hi - lo) - covered_us(execs, lo, hi)
    out["harness.workers"] = len(busy)
    out["harness.worker_busy_max_ms"] = max(busy) if busy else 0.0
    out["harness.worker_busy_mean_ms"] = sum(busy) / len(busy) if busy else 0.0
    out["harness.overhead_us_per_run"] = overhead_us / runs if runs else 0.0
    out["harness.spill_ms"] = spill_self_us / 1e3
    out["harness.label_ms"] = sum(t.total_ms("label") for t in traces)

    out["feedback.corpus_bytes"] = corpus_bytes
    out["feedback.bytes_per_report"] = corpus_bytes / reports if reports else 0.0
    ingest_ms = sum(t.total_ms("corpus_ingest") for t in traces)
    merge_us = 0.0
    for t in traces:
        shards = [(s[2], s[2] + s[3]) for s in t.named("ingest_shard")]
        for _, _, ts, dur in t.named("corpus_ingest"):
            merge_us += dur - covered_us(shards, ts, ts + dur)
    out["feedback.ingest_ms"] = ingest_ms
    out["feedback.decode_ms"] = sum(t.total_ms("ingest_shard") for t in traces)
    out["feedback.merge_ms"] = merge_us / 1e3
    out["feedback.ingest_mb_per_s"] = (ingested_bytes / 1e6 / (ingest_ms / 1e3)
                                       if ingest_ms else 0.0)

    out["core.analysis_ms"] = sum(t.total_ms("analysis") for t in traces)
    out["core.index_build_ms"] = sum(t.total_ms("index_build") for t in traces)
    out["core.initial_scan_ms"] = sum(t.total_ms("initial_scan")
                                      for t in traces)
    out["core.elimination_ms"] = sum(t.total_ms("elimination") for t in traces)
    out["core.elimination_iters"] = sum(len(t.named("elimination_iter"))
                                        for t in traces)
    out["core.selected"] = selected
    out["obs.spans"] = sum(t.recorded for t in traces)
    return out


def wall_layers_ms(traces):
    """Sum of the back-to-back main-thread layers of the given traces."""
    return sum(t.total_ms(*WALL_LAYERS) for t in traces)
