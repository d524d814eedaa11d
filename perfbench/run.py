#!/usr/bin/env python3
"""End-to-end benchmark of the SBI pipeline, driven through the `sbi` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
`sbi` (and the independent corpus checker `sbicheck`) under .bench_build/;
later runs rebuild only what changed. Inputs, corpora and traces live under
.bench_work/ and are deleted before the run exits.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. Every check made, and every check that failed, is printed
above it. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

# The benchmark writes nothing into its own directory.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import layers  # noqa: E402

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
# Hard stop for one run, inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 11

# Each workload pins only the traffic: subject, runs, sampling scheme,
# discard policies and thread count. Every implementation choice (execution
# engine, analysis engine, shard size, training runs) is the program's
# default, so a change of default is measured as what users get.
WORKLOADS = {
    # The paper-shaped pipeline on the costliest subject: adaptive sampling
    # with serial training runs and golden-oracle reruns, spilled to a v2
    # corpus at 4 threads (4 default-size shards, so 4 workers), then a
    # streamed analysis.
    "moss-pipeline": dict(subject="moss", runs=4096, sampling="adaptive",
                          policies=("all",), threads=4, mode="spill",
                          setup_repeats=SETUP_REPEATS),
    # Analysis alone at twice paper scale: the corpus is spilled during
    # set-up, so ingest, index build and elimination carry the timed part
    # and no subject code runs in it.
    "exif-corpus-analyze": dict(subject="exif", runs=65536,
                                sampling="adaptive",
                                policies=("all", "failing", "relabel"),
                                threads=4, mode="corpus", setup_repeats=3),
    # A fresh in-memory campaign plus analysis of cheap runs on one thread:
    # per-run harness work and the in-memory report path show, and the
    # elimination loop runs to its selection cap.
    "rhythmbox-in-memory": dict(subject="rhythmbox", runs=24576,
                                sampling="uniform:0.01", policies=("all",),
                                threads=1, mode="memory",
                                setup_repeats=SETUP_REPEATS),
}


class Failure(Exception):
    pass


class Runner:
    """Starts `sbi` processes and accounts their wall, CPU and peak RSS."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.calls = 0

    def call(self, argv, traced=False):
        """Runs argv; returns a dict with its exit code, output and costs.
        A traced call also writes a trace and a metrics file."""
        self.calls += 1
        tag = f"{self.calls:04d}"
        if traced:
            trace = os.path.join(self.work, f"trace-{tag}.json")
            metrics = os.path.join(self.work, f"metrics-{tag}.json")
            argv = argv + [f"--trace-out={trace}", f"--metrics-out={metrics}"]
        out_path = os.path.join(self.work, f"out-{tag}.txt")
        err_path = os.path.join(self.work, f"err-{tag}.txt")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            # A watchdog kills the process at the run's deadline; wait4 then
            # still reaps it and gives its own resource usage.
            watchdog = threading.Timer(
                max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            watchdog.cancel()
        # wait4 reaped the process; record that so Popen does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise Failure(f"run budget exceeded during {' '.join(argv[1:3])}")
        with open(out_path) as f:
            stdout = f.read()
        result = dict(code=proc.returncode, start=start, end=end,
                      cpu=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss * 1024 / 1e6, stdout=stdout)
        if traced:
            result.update(trace=trace, metrics=metrics)
        if proc.returncode != 0:
            with open(err_path) as f:
                sys.stderr.write(f"sbi {' '.join(argv[1:])} exited "
                                 f"{proc.returncode}:\n{f.read()[-2000:]}")
        return result


def build(root):
    """Configures (once) and builds sbi and sbicheck under .bench_build/."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise Failure("not the root of an sbi source checkout "
                      "(no CMakeLists.txt and src/)")
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(os.path.join(build_dir, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        fresh = not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt"))
        if fresh:
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "--target", "sbi",
                      "sbicheck", "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log, env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise Failure(f"build step failed: {' '.join(step)}")
    return (fresh, os.path.join(build_dir, "sbi", "tools", "sbi"),
            os.path.join(build_dir, "sbicheck"))


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


class Workload:
    def __init__(self, name, seed, sbi, sbicheck, runner):
        self.cfg = WORKLOADS[name]
        self.seed = seed
        self.sbi = sbi
        self.sbicheck = sbicheck
        self.runner = runner
        self.corpus = os.path.join(runner.work, "corpus")
        self.bug_ids = []
        self.setup_calls = []

    def traffic(self, threads=None):
        c = self.cfg
        return [f"--subject={c['subject']}", f"--runs={c['runs']}",
                f"--seed={self.seed}", f"--sampling={c['sampling']}",
                f"--threads={threads or c['threads']}"]

    def analyze_corpus(self, policy, traced=False):
        c = self.cfg
        return dict(self.runner.call(
            [self.sbi, "analyze", f"--subject={c['subject']}",
             f"--corpus={self.corpus}", f"--policy={policy}",
             f"--threads={c['threads']}", "--affinity", "--bugs"], traced),
            analysis=True)

    def spill(self, traced=False, threads=None, extra=()):
        shutil.rmtree(self.corpus, ignore_errors=True)
        return self.runner.call([self.sbi, "run"] + self.traffic(threads) +
                                [f"--corpus={self.corpus}", *extra], traced)

    # --- set-up -----------------------------------------------------------
    def setup_once(self, traced):
        """Prepares the workload's inputs: the subject's seeded bugs and,
        for the analysis-only workload, its corpus."""
        # Removing the previous set-up's corpus is not part of preparing
        # this one.
        shutil.rmtree(self.corpus, ignore_errors=True)
        start = time.perf_counter()
        listing = self.runner.call([self.sbi, "subjects"])
        if listing["code"] != 0:
            raise Failure("sbi subjects failed")
        self.bug_ids = subject_bugs(listing["stdout"], self.cfg["subject"])
        self.setup_calls = [listing]
        if self.cfg["mode"] == "corpus":
            spilled = self.spill(traced)
            if spilled["code"] != 0:
                raise Failure("set-up spill failed")
            self.setup_calls.append(spilled)
        return time.perf_counter() - start

    # --- one timed pipeline ---------------------------------------------
    def pipeline(self, traced):
        """One diagnosis: from the first sbi invocation to the last ranked
        output. Returns the calls it made."""
        c = self.cfg
        calls = []
        if c["mode"] == "spill":
            calls.append(self.spill(traced))
            if calls[-1]["code"] == 0:
                calls.append(self.analyze_corpus(c["policies"][0], traced))
        elif c["mode"] == "corpus":
            for policy in c["policies"]:
                calls.append(self.analyze_corpus(policy, traced))
                if calls[-1]["code"] != 0:
                    break
        else:
            calls.append(dict(self.runner.call(
                [self.sbi, "analyze"] + self.traffic() +
                [f"--policy={c['policies'][0]}", "--affinity", "--bugs"],
                traced), analysis=True))
        return calls

    @staticmethod
    def analyses(calls):
        """The analyze printouts of one pipeline, in policy order."""
        return [call["stdout"] for call in calls if call.get("analysis")]

    # --- checks -----------------------------------------------------------
    def check(self, c, last, history):
        """Checks the last successful pipeline against the run data."""
        cfg = self.cfg
        printouts = self.analyses(last["calls"])
        c.check("pipeline.analyses_printed",
                len(printouts) == len(cfg["policies"]),
                f"{len(printouts)} of {len(cfg['policies'])}")
        c.check("pipeline.output_deterministic",
                all(self.analyses(p["calls"]) == printouts for p in history),
                f"{len(history)} pipelines")
        metrics_source = None
        if cfg["mode"] == "spill":
            spilled = checks.parse_spill(last["calls"][0]["stdout"])
            if last["calls"][0].get("metrics"):
                metrics_source = last["calls"][0]["metrics"]
        elif cfg["mode"] == "corpus":
            spilled = checks.parse_spill(self.setup_calls[-1]["stdout"])
            metrics_source = self.setup_calls[-1].get("metrics")
        else:
            # The in-memory campaign is re-created through the corpus path,
            # outside the timed part, with the same seeded runs. Its metrics
            # give the sampling rates.
            metrics_source = os.path.join(self.runner.work, "ref-metrics.json")
            # Shard bytes do not depend on the thread count, so the copy is
            # made at 4 threads.
            ref = self.spill(threads=4,
                             extra=[f"--metrics-out={metrics_source}"])
            if not c.check("memory.corpus_path_spilled", ref["code"] == 0):
                return
            spilled = checks.parse_spill(ref["stdout"])
            streamed = self.analyze_corpus(cfg["policies"][0])
            c.check("memory.same_output_as_corpus_path",
                    streamed["code"] == 0 and printouts
                    and streamed["stdout"] == printouts[0])
        if spilled is None:
            c.check("corpus.spilled", False, "no spill summary printed")
            return
        tally_run = subprocess.run(
            [self.sbicheck, f"--subject={cfg['subject']}",
             f"--corpus={self.corpus}"], capture_output=True, text=True)
        if not c.check("corpus.decoded_independently",
                       tally_run.returncode == 0, tally_run.stderr.strip()):
            return
        tally = json.loads(tally_run.stdout)
        c.check("corpus.spill_counts_match",
                spilled["reports"] == tally["runs"]
                and spilled["failing"] == tally["failing"],
                f"spill printed {spilled['reports']}/{spilled['failing']}, "
                f"corpus {tally['runs']}/{tally['failing']}")
        checks.check_failures_have_bugs(c, "corpus", tally)
        for policy, text in zip(cfg["policies"], printouts):
            tag = f"analysis.{policy}"
            printed = checks.parse_analysis(text, len(self.bug_ids))
            if not c.check(f"{tag}.parsed", printed is not None):
                continue
            checks.check_counts(c, tag, printed, tally, cfg["runs"])
            checks.check_selected(c, tag, printed, tally, policy)
            if cfg["subject"] == "exif":
                checks.check_majority_bugs(c, tag, printed, self.bug_ids)
        if metrics_source:
            checks.check_sampling(c, "campaign", layers.read_metrics(
                metrics_source), tally)


def subject_bugs(listing, subject):
    bugs, current = [], None
    for line in listing.splitlines():
        if line and not line.startswith(" "):
            current = line.split()[0]
        elif current == subject and line.strip().startswith("#"):
            bugs.append(int(line.split()[0][1:]))
    if not bugs:
        raise Failure(f"subject {subject} lists no seeded bugs")
    return bugs


def pipeline_record(calls):
    """A pipeline's wall time runs from the start of its first sbi call to
    the end of its last."""
    ok = bool(calls) and all(call["code"] == 0 for call in calls)
    return dict(calls=calls, ok=ok,
                wall=calls[-1]["end"] - calls[0]["start"],
                cpu=sum(call["cpu"] for call in calls),
                rss=max(call["rss_mb"] for call in calls))


def traced_layers(w, record, c):
    """Per-layer figures of one traced pipeline (plus, for the analysis-only
    workload, its traced set-up)."""
    calls = record["calls"]
    extra = [s for s in w.setup_calls if s.get("trace")]
    traces = [layers.Trace(call["trace"]) for call in calls + extra]
    metrics = [layers.read_metrics(call["metrics"]) for call in calls + extra]
    dropped = sum(t.dropped for t in traces)
    c.check("trace.no_spans_dropped", dropped == 0, f"{dropped} dropped")
    cfg = w.cfg
    corpus_bytes = dir_bytes(w.corpus) if cfg["mode"] != "memory" else 0
    ingested = corpus_bytes * len(cfg["policies"])
    printouts = [checks.parse_analysis(text, len(w.bug_ids))
                 for text in w.analyses(calls)]
    selected = sum(p["selected"] for p in printouts if p)
    out = layers.layer_metrics(traces, metrics, corpus_bytes, ingested,
                               cfg["runs"], selected)
    timed_traces = traces[:len(calls)]
    attributed_ms = layers.wall_layers_ms(timed_traces)
    wall_ms = record["wall"] * 1e3
    out["sbi.unattributed_ms"] = wall_ms - attributed_ms
    out["sbi.unattributed_pct"] = 100.0 * (wall_ms - attributed_ms) / wall_ms
    c.check("trace.layers_within_wall", attributed_ms <= wall_ms,
            f"layers {attributed_ms:.1f} ms of {wall_ms:.1f} ms wall")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    try:
        fresh, sbi, sbicheck = build(root)
    except Failure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    # The first run of a checkout builds from scratch and may take long; its
    # run budget starts after the build.
    deadline = (time.monotonic() if fresh else started) + RUN_BUDGET_S
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, sbi, sbicheck, Runner(work, deadline))
    except Failure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass


def measure(args, sbi, sbicheck, runner):
    w = Workload(args.workload, args.seed, sbi, sbicheck, runner)
    traced_mode = bool(args.trace)
    # Set-up. A traced run sets up once, traced, and reports no set-up time.
    repeats = 1 if traced_mode else w.cfg["setup_repeats"]
    setup_times = [w.setup_once(traced_mode) for _ in range(repeats)]

    # Timed part: whole pipelines until the time is up. A traced run
    # alternates untraced and traced pipelines, at least one of each.
    history = []
    start = time.perf_counter()
    while True:
        traced = traced_mode and len(history) % 2 == 1
        history.append(dict(pipeline_record(w.pipeline(traced)),
                            traced=traced))
        elapsed = time.perf_counter() - start
        need_traced = traced_mode and not any(p["traced"] for p in history)
        if elapsed >= args.seconds and not need_traced:
            break
    good = [p for p in history if p["ok"]]
    if not good:
        raise Failure("no pipeline completed")

    c = checks.Checks()
    w.check(c, good[-1], good)
    untraced = [p for p in good if not p["traced"]]
    if traced_mode:
        traced = [p for p in good if p["traced"]]
        if not traced or not untraced:
            raise Failure("a traced run needs a traced and an untraced "
                          "pipeline")
        per_pipeline = [traced_layers(w, p, c) for p in traced]
        metrics = {name: statistics.median(p[name] for p in per_pipeline)
                   for name in per_pipeline[0]}
        plain = statistics.median(p["wall"] for p in untraced)
        with_trace = statistics.median(p["wall"] for p in traced)
        metrics["obs.trace_overhead_pct"] = 100.0 * (with_trace - plain) / plain
        units = layers.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": statistics.median(p["wall"] for p in untraced),
            "cpu_s": statistics.median(p["cpu"] for p in untraced),
            "peak_rss_mb": statistics.median(p["rss"] for p in untraced),
        }
        units = {"setup_s": "s", "pipeline_s": "s", "cpu_s": "s",
                 "peak_rss_mb": "MB"}
    c.report(sys.stdout)
    print(f"pipelines: {len(history)} ({len(good)} completed); set-ups: "
          f"{len(setup_times)}")
    print(json.dumps({
        "correct": not c.failed(),
        "attempted": len(history),
        "failed": len(history) - len(good),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
