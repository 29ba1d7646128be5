#!/usr/bin/env python3
"""gainbalance benchmark.

    python3 perfbench/run.py --workload balance|classify|atlas|survey \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout; the library is imported from
``src/``.  One run is one process and one closed-loop client: operations run
back to back, in whole passes over the seeded corpus, until another pass
would overrun ``--seconds``.

End-to-end metrics (``--trace 0``):

* ``ops_per_s``: successful operations of a pass divided by the time of a
  typical pass: the operations' latencies plus the median time a pass spent
  outside them (enumeration, checks).
* ``op_p50_ms``, ``op_tail_ms``: the median, and the highest percentile with
  10 operations beyond it, of the operations' latencies.
* ``peak_rss_mb``: peak resident set size of the process.
* ``setup_s``: the median of eleven set-ups, each importing the library afresh,
  generating the inputs and writing the input files.
* ``ok_ratio``: successful operations divided by attempted ones.  An
  operation fails if it raises, exits nonzero, overruns its time limit or
  gives output its workload's check rejects.

The machine is shared, and its speed changes by up to 2.6x from one minute
to the next with the load of other tenants, which the best or median of a
30-second run does not average out.  So every timing is also taken against a
fixed reference computation of the benchmark's own (``speed_reference``: pure
Python graph code, like the library's, that never calls the library), timed
between operations whenever ``PROBE_EVERY_S`` has passed since its last
timing, and a few times around each set-up.  A timing is reported in
reference-speed units: its wall time times ``REFERENCE_S`` over the median
reference time of the probes within ``PROBE_WINDOW_S`` of it, that is, the
time it would take on a machine that runs the reference in ``REFERENCE_S``.
A change to the library moves the timings and not the reference; a slower
machine moves both.  The raw wall-clock figures are in the details line.

An operation's latency is its median over the passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans.py`` with ``--trace 1``.  The
line before it holds the details: sample count, tail percentile, fail ratio,
failures, raw wall-clock figures, pass times, the reference timings, and the
corpus digest.

``--workload all`` runs every workload untraced and traced, each in its own
process, prints every metric by name with its unit and the tracing overhead,
and checks that the corpus generators are deterministic.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

PROCESS_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

import corpus as corpus_mod  # noqa: E402  (sibling modules of this script)
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 11  # set-up is repeated and its median reported
OP_LIMIT_S = 10.0  # an operation running longer is stopped and counted as failed
RUN_LIMIT_S = 150.0  # no operation starts later than this after the process started
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
PROBE_EVERY_S = 0.02  # the reference is timed before an operation once this long has passed since its last timing
PROBE_WINDOW_S = 1.0  # a timing is scaled by the reference timings this close to it
SETUP_PROBES = 10  # reference timings just before each set-up
REFERENCE_S = 0.0004  # reference time on a calm 2-vCPU Xeon VM, Python 3.11; reported times are scaled to it
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
)


class OpTimeout(BaseException):
    """Raised by the interval timer inside an operation that overran its limit.

    A BaseException, so that no ``except Exception`` in the library swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def time_limit(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class RunLimit(BaseException):
    """Ends a run that has used up RUN_LIMIT_S, mid-pass if need be."""


class Runner:
    """Times operations, applies the per-operation limit and the checks, and
    counts failures."""

    def __init__(self, tracer, speed: Speedometer) -> None:
        self.tracer = tracer
        self.speed = speed
        self.timed: list[tuple[int, int, float, float]] = []  # (operation key, pass, start, end) of each operation run
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []  # failed checks outside any operation
        self.passes = 0
        self.pass_spans: list[tuple[float, float, float]] = []  # (start, end, time outside operations and probes) of each whole pass

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.op = f"{name}-{self.passes}"

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def op(self, key: int, label: str, fn, check) -> None:
        if time.perf_counter() > PROCESS_START + RUN_LIMIT_S:
            raise RunLimit()
        self.speed.probe_if_due()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        error = None
        start = time.perf_counter()
        try:
            with time_limit(OP_LIMIT_S):
                result = fn()
        except OpTimeout:
            error = "timeout"
        except Exception as exc:  # the operation failed; record and go on
            error = type(exc).__name__
        self.timed.append((key, self.passes, start, time.perf_counter()))
        if error is None:
            try:
                with time_limit(OP_LIMIT_S):
                    if not check(result):
                        error = "wrong output"
            except OpTimeout:
                error = "check timeout"
            except Exception as exc:  # malformed output is a wrong answer
                error = f"check {type(exc).__name__}"
        if error is not None:
            self.failed += 1
            self.failures[f"{label}: {error}"] += 1


def import_library() -> types.SimpleNamespace:
    """Import every library module afresh (dropping earlier imports first)."""
    for name in [m for m in sys.modules if m == "gainbalance" or m.startswith("gainbalance.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"gainbalance.{m}") for m in spans.MODULES})


def corpus_digest(corpus) -> str:
    h = hashlib.sha256(corpus.manifest().encode())
    for name in sorted(corpus.files):
        h.update(f"\0{name}\0".encode())
        h.update(corpus.files[name].encode())
    return h.hexdigest()


def setup(workload: str, seed: int, directory: Path):
    """Imports, input generation and writing the input files: the timed set-up."""
    start = time.perf_counter()
    lib = import_library()
    corpus = corpus_mod.CORPORA[workload](seed)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in corpus.files.items():
        (directory / name).write_text(text)
    (directory / "ops.json").write_text(corpus.manifest())
    return time.perf_counter() - start, lib, corpus


REFERENCE_EDGES = corpus_mod.grid_edges(4, 4)


def speed_reference() -> None:
    """The fixed computation that gauges the machine's speed: a spanning tree,
    its fundamental circles and switched gains on Grid(4,4), by the corpus
    generator's own code."""
    rng = random.Random(0)
    tree = corpus_mod.random_spanning_tree(rng, REFERENCE_EDGES)
    corpus_mod.fundamental_basis(REFERENCE_EDGES, tree)
    corpus_mod.switched_gains(rng, corpus_mod.GROUPS["Z2xZ3"], REFERENCE_EDGES, None)


class Speedometer:
    """Times ``speed_reference`` now and then, and scales wall times to
    reference speed with the timings taken close to them."""

    def __init__(self) -> None:
        self.at: list[float] = []  # start of each reference timing
        self.took: list[float] = []  # its duration
        self.busy_s = 0.0  # time spent timing the reference

    def probe(self) -> None:
        gc.disable()  # the library's garbage is not the reference's to collect
        try:
            start = time.perf_counter()
            speed_reference()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.at.append(start)
        self.took.append(end - start)
        self.busy_s += time.perf_counter() - start

    def probe_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reference time near [start, end]."""
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        if lo == hi:  # no timing that close: the nearest one
            i = min(max(lo, 1), len(self.at)) - 1
            lo, hi = i, i + 1
        return REFERENCE_S / statistics.median(self.took[lo:hi])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def run_workload(args) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    directory = WORK / f"{args.workload}-{os.getpid()}"
    try:
        speed = Speedometer()
        setup_spans, digests = [], set()
        for _ in range(SETUP_RUNS):
            gc.collect()  # a fresh process has none of the last set-up's garbage
            for _ in range(SETUP_PROBES):
                speed.probe()
            setup_start = time.perf_counter()
            seconds, lib, corpus = setup(args.workload, args.seed, directory)
            setup_spans.append((setup_start, setup_start + seconds))
            digests.add(corpus_digest(corpus))
        for _ in range(SETUP_PROBES):
            speed.probe()
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(lib)
        runner = Runner(tracer, speed)
        run_pass = workloads.PASSES[args.workload]
        inputs = workloads.Inputs(corpus, directory, args.seed)
        start = time.perf_counter()
        while True:
            speed.probe()
            pass_start, probe_s, first_op = time.perf_counter(), speed.busy_s, len(runner.timed)
            try:
                run_pass(lib, inputs, runner)
            except RunLimit:
                runner.problems.append(f"run stopped after {RUN_LIMIT_S:.0f} s, in pass {runner.passes + 1}")
                break
            runner.passes += 1
            now = time.perf_counter()
            in_ops = sum(end - begin for _, _, begin, end in runner.timed[first_op:])
            runner.pass_spans.append((pass_start, now, now - pass_start - in_ops - (speed.busy_s - probe_s)))
            if now - start + (now - pass_start) > args.seconds:
                break
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    if len(digests) != 1:
        runner.problems.append("corpus generation is not deterministic")
    n = runner.attempted
    ok = n - runner.failed
    # every timing twice: as measured, and scaled to reference speed
    raw: dict[int, list[float]] = {}
    scaled: dict[int, list[float]] = {}
    for key, _, begin, end in runner.timed:
        raw.setdefault(key, []).append(end - begin)
        scaled.setdefault(key, []).append((end - begin) * speed.scale(begin, end))
    latencies = [statistics.median(samples) for samples in scaled.values()]
    raw_latencies = [statistics.median(samples) for samples in raw.values()]
    outside_raw = [outside for _, _, outside in runner.pass_spans] or [0.0]
    outside = [outside * speed.scale(begin, end) for begin, end, outside in runner.pass_spans] or [0.0]
    setup_raw = [end - begin for begin, end in setup_spans]
    setup_s = [(end - begin) * speed.scale(begin, end) for begin, end in setup_spans]
    tail_value, tail_pct = tail(latencies)
    # the time of a typical pass, put together part by part
    pass_s = sum(latencies) + statistics.median(outside)
    raw_pass_s = sum(raw_latencies) + statistics.median(outside_raw)
    ok_per_pass = len(latencies) * ok / n
    ops_per_s = ok_per_pass / pass_s
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": runner.passes,
        "elapsed_s": elapsed,
        "samples": len(latencies),
        "tail_percentile": tail_pct,
        "fail_ratio": runner.failed / n,
        "ops_per_s": ops_per_s,
        "typical_pass_s": pass_s,
        "raw": {
            "ops_per_s": ok_per_pass / raw_pass_s,
            "op_p50_ms": statistics.median(raw_latencies) * 1000,
            "op_tail_ms": tail(raw_latencies)[0] * 1000,
            "setup_s": statistics.median(setup_raw),
            "typical_pass_s": raw_pass_s,
            "pass_s": [end - begin for begin, end, _ in runner.pass_spans],
            "setup_runs_s": setup_raw,
        },
        "reference_ms": {
            "timings": len(speed.took),
            "quartiles": [t * 1000 for t in statistics.quantiles(speed.took, n=4)],
            "overhead_s": speed.busy_s,
        },
        "setup_runs_s": setup_s,
        "corpus_sha256": digests.pop() if len(digests) == 1 else sorted(digests),
        "failures": dict(runner.failures.most_common(20)),
        "problems": runner.problems,
    }
    if tracer is not None:
        spans_file = WORK / f"spans-{args.workload}.jsonl"
        tracer.write(spans_file)
        detail["spans"] = {"recorded": tracer.span_count, "written": len(tracer.spans),
                           "file": str(spans_file.relative_to(ROOT))}
        metrics = tracer.metrics()
        metrics["traced.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    else:
        values = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail_value * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_s),
            "ok_ratio": ok / n,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"detail": detail}))
    correct = runner.failed == 0 and not runner.problems
    print(json.dumps({"correct": correct, "attempted": n, "failed": runner.failed, "metrics": metrics}))
    return 0


def self_check(seed: int) -> list[str]:
    """Each generator gives a byte-identical corpus for one seed and a
    different one for another seed, and ``BENCHMARK.json`` lists the metrics
    and workloads this script reports."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {
        "workloads": list(corpus_mod.CORPORA),
        "end_to_end": [name for name, _ in END_TO_END],
        "per_layer": [m["name"] for m in spans.metric_specs()] + ["traced.ops_per_s"],
    }
    for key, names in reported.items():
        if [entry["name"] for entry in declared[key]] != names:
            problems.append(f"BENCHMARK.json {key} differ from what run.py reports")
    for name, make in corpus_mod.CORPORA.items():
        a, b, c = (corpus_digest(make(s)) for s in (seed, seed, seed + 1))
        if a != b:
            problems.append(f"{name}: seed {seed} gave two different corpora")
        if a == c:
            problems.append(f"{name}: seeds {seed} and {seed + 1} gave the same corpus")
    return problems


def run_all(args) -> int:
    problems = self_check(args.seed)
    print(f"corpus self-check: {'ok' if not problems else '; '.join(problems)}")
    for workload in corpus_mod.CORPORA:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                break
            results[trace] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
        if len(results) < 2:
            continue
        (detail, result), (tdetail, tresult) = results[0], results[1]
        print(f"\n== {workload}: {workloads.WHY[workload]}")
        for name, metric in result["metrics"].items():
            print(f"  {name:14s} {metric['value']:14.4f} {metric['unit']}")
        print(f"  fail_ratio     {detail['fail_ratio']:14.4f} ratio ({result['failed']} of {result['attempted']} failed)")
        print(f"  samples {detail['samples']}, tail percentile p{detail['tail_percentile']:.2f}, "
              f"passes {detail['passes']}, timed {detail['elapsed_s']:.1f} s")
        overhead = detail["ops_per_s"] / tdetail["ops_per_s"] if tdetail["ops_per_s"] else float("inf")
        print(f"  traced ops_per_s {tdetail['ops_per_s']:.4f} 1/s (tracing overhead {overhead:.2f}x), "
              f"spans in {tdetail['spans']['file']}")
        busiest = sorted(((m, v["value"]) for m, v in tresult["metrics"].items() if m.endswith(".self_s")),
                         key=lambda kv: -kv[1])[:6]
        print("  most self time: " + ", ".join(f"{m[:-7]} {v:.2f} s" for m, v in busiest))
        for r, d in ((result, detail), (tresult, tdetail)):
            if not r["correct"]:
                problems.append(f"{workload} trace={d['trace']}: failures {d['failures']} problems {d['problems']}")
    print("\nall checks passed" if not problems else "\nFAILED:\n  " + "\n  ".join(problems))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*corpus_mod.CORPORA, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gainbalance" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'gainbalance'}; run from a gainbalance checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
