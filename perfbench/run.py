#!/usr/bin/env python3
"""Benchmark of digitaudit: one workload per call, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 28 --trace 0

The workloads and metric names live in BENCHMARK.json; workloads.py says
why each workload exists. A run generates its inputs from --seed, then
splits --seconds among a few fresh worker processes, run one after
another, with import-only probes between them. Each worker times
``import digitaudit`` and runs operations back to back (one caller, closed
loop). Its first operation is the cold one; the rest are warm. Every
operation's output is checked; a failed or wrong operation counts against
``failed`` and never stops the run.

--trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
untraced operations and prints the per-layer metrics: self time and counts
per layer, per warm traced operation, from spans recorded around the program's layer
boundaries by the benchmark's own wrappers (tracer.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Run details (seed, input digests,
versions, load average, a machine-speed probe) go to the line before it and to
.perfbench_work/<workload>/run.json. The numbers come from whatever
machine runs this, untuned (no pinning, no cache drops), and are noisy on
a shared VM.

Exits 2 without a result when the checkout holds no digitaudit sources.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 41  # import timings per run: one per worker plus import-only probes
RUN_LIMIT_S = 170  # every child is stopped before the run exceeds this
TAIL_MIN_SAMPLES = 20  # fewer warm operations report the slowest one as the tail
TAIL_BEYOND = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import digitaudit, digitaudit.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile that
    leaves TAIL_BEYOND samples beyond it, or the slowest sample when the
    run has fewer than TAIL_MIN_SAMPLES."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def median(values, default=0.0):
    return statistics.median(values) if values else default


def machine_probe() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs right now.

    Recorded beside the metrics so that drift of a shared machine between
    runs can be told apart from a change in the program.
    """
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "digitaudit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


class Runner:
    """Starts the run's child processes, one at a time, under one deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, cmd) -> subprocess.CompletedProcess:
        """Run cmd to completion; past the deadline, kill its whole process group."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the worker and any law-table child
                proc.communicate()
                raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)

    def probe_import(self) -> float | None:
        try:
            done = self.run([sys.executable, "-s", "-c", IMPORT_PROBE])
        except subprocess.TimeoutExpired:
            return None
        return float(done.stdout) if done.returncode == 0 else None

    def worker(self, index: int, spec: dict) -> dict | None:
        spec_path = self.work / f"worker{index}.json"
        spec = dict(spec, out=str(self.work / f"worker{index}.out.json"))
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            done = self.run([sys.executable, "-s", str(HERE / "worker.py"), str(spec_path)])
        except subprocess.TimeoutExpired:
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-2000:])
            return None
        return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


def end_to_end(workload, workers, setups):
    first = [w["ops"][0]["wall"] for w in workers]
    warm = [op for w in workers for op in w["ops"][1:]]
    walls = [op["wall"] for op in warm] or first
    every = [op["wall"] for w in workers for op in w["ops"]]
    value, percentile, beyond = tail(walls)
    metrics = {
        "setup_s": median(setups),
        "first_op_s": median(first),
        "op_s.p50": median(walls),
        "op_s.tail": value,
        "rows_per_s": workload.rows_per_op * len(every) / sum(every),
        "cpu_s.p50": median([op["cpu"] for op in warm]),
        "peak_rss_mb": median([w["peak_rss_mb"] for w in workers]),
    }
    details = {"tail_percentile": percentile, "tail_samples_beyond": beyond,
               "warm_ops": len(walls), "cold_ops": len(first)}
    return metrics, details


def per_layer(workers):
    """Per-operation self times and counts over the warm traced operations.

    The cold first operation pays one-time costs (lazy imports, cached
    laws); its self times go to the run details, not the metrics.
    """
    from tracer import COUNT_METRICS, SELF_TIME_METRICS

    layers = [layer for w in workers for layer in w["layers"] if layer["op"] > 0]
    cold = [layer for w in workers for layer in w["layers"] if layer["op"] == 0]
    ops = max(1, len(layers))
    self_s = {name: 0.0 for name in SELF_TIME_METRICS}
    counts = {name: 0.0 for name in COUNT_METRICS}
    for layer in layers:
        for name, seconds in layer["self"].items():
            if name in self_s:
                self_s[name] += seconds
        for name, value in layer["counts"].items():
            counts[name] += value
    metrics = {SELF_TIME_METRICS[name]: total / ops for name, total in self_s.items()}
    metrics.update({name: total / ops for name, total in counts.items()
                    if name != "digit_extract.reals"})  # reported as real_share
    values = counts["digit_extract.values"]
    metrics["digit_extract.real_share"] = counts["digit_extract.reals"] / values if values else 0.0
    scales = counts["imperfect_fit.scales"]
    metrics["imperfect_fit.s_per_scale"] = self_s["imperfect_fit"] / scales if scales else 0.0

    warm = [op for w in workers for op in w["ops"][1:]]
    traced = [op["wall"] for op in warm if op["traced"]]
    untraced = [op["wall"] for op in warm if not op["traced"]]
    metrics["trace.overhead_s"] = median(traced) - median(untraced)

    traced_wall = sum(op["wall"] for op in warm if op["traced"])
    shares = {name: round(self_s[name] / traced_wall, 4) for name in self_s
              if self_s[name] and traced_wall}
    cold_self_s = {SELF_TIME_METRICS[name]: median([layer["self"].get(name, 0.0) for layer in cold])
                   for name in SELF_TIME_METRICS}
    return metrics, {"traced_ops": len(layers), "self_time_share": shares,
                     "cold_self_s": {name: value for name, value in cold_self_s.items() if value}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "digitaudit" / "__init__.py").is_file():
        print(f"error: no digitaudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    compileall.compile_dir(str(SRC / "digitaudit"), quiet=1)  # the build: byte-compile once
    load_before, probe_before = os.getloadavg(), machine_probe()
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepared = workload.prepare(work, args.seed, ROOT, reference)
    runner = Runner(work)

    probes = 0 if args.trace else SETUP_SAMPLES - workload.workers
    spec = dict(prepared.spec, kind=workload.kind, src=str(SRC), trace=bool(args.trace),
                min_ops=3 if args.trace else 2)
    setups, workers, attempted, failed, reasons = [], [], 0, 0, []
    start = time.monotonic()
    for index in range(workload.workers):
        # import probes are spread over the run, so set-up meets the machine the operations do
        for _ in range(probes // workload.workers + (index < probes % workload.workers)):
            sample = runner.probe_import()
            if sample is not None:
                setups.append(sample)
        left = args.seconds - (time.monotonic() - start)
        result = runner.worker(index, dict(spec, budget_s=left / (workload.workers - index)))
        if result is None:
            attempted += 1
            failed += 1
            reasons.append(f"worker {index} produced no result")
            continue
        workers.append(result)
        setups.append(result["setup_s"])
        for op in result["ops"]:
            attempted += 1
            reason = op["error"] or prepared.check(op["summary"])
            if reason:
                failed += 1
                reasons.append(reason)

    if workers and args.trace:
        metrics, details = per_layer(workers)
    elif workers:
        metrics, details = end_to_end(workload, workers, setups)
    else:
        metrics = {m["name"]: 0.0 for m in declared}
        details = {}
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1

    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": prepared.inputs, **prepared.details, **details,
        "workers": len(workers), "fail_ratio": failed / attempted,
        "failures": reasons[:5],
        "python": platform.python_version(),
        "numpy": workers[0]["numpy"] if workers else None,
        "kernel_backend": workers[0]["kernel_backend"] if workers else None,
        "unwrapped": sorted({name for w in workers for name in w["unwrapped"]}),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "machine_probe_s": [probe_before, machine_probe()],
        "note": "untuned shared machine (no pinning, no cache drops): numbers are noisy",
    }
    (work / "run.json").write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=1),
                                   encoding="utf-8")
    if args.trace:
        spans = [dict(span, worker=i) for i, w in enumerate(workers) for span in w["spans"]]
        (work / "trace.json").write_text(json.dumps(spans), encoding="utf-8")

    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print("run " + json.dumps(meta))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
