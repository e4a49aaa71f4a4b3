"""One measuring process of the benchmark.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's ``src``. It times the import of digitaudit (set-up), then runs
operations of one workload back to back, one caller in a closed loop,
until its time slice is spent, and writes every operation's wall time,
CPU time and output summary to a JSON file. run.py checks the summaries.

    python3 worker.py SPEC.json
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time

from tracer import Tracer, layer_patches


def _cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class CliAudit:
    """``digitaudit analyze`` through the in-process CLI entry point."""

    def __init__(self, spec, digitaudit, tracer):
        self.argv = spec["argv"]
        self.outdir = spec["outdir"]
        self.cli = digitaudit.cli

    def prepare(self):
        shutil.rmtree(self.outdir, ignore_errors=True)

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(self.argv)  # looked up per call so a wrapper is seen

    def summarize(self, rc):
        files = {}
        if os.path.isdir(self.outdir):
            files = {name: _sha256(os.path.join(self.outdir, name))
                     for name in sorted(os.listdir(self.outdir))}
        return {"rc": rc, "files": files, "regime_counts": self._regime_counts()}

    def _regime_counts(self):
        path = os.path.join(self.outdir, "audit_report.txt")
        if not os.path.isfile(path):
            return {}
        counts, section = {}, None
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line.startswith("["):
                    name = line[1:-1]
                    section = name if name.endswith(".regime_counts") else None
                    if section:
                        counts[section] = {}
                elif section and " = " in line:
                    key, value = line.split(" = ", 1)
                    counts[section][key] = int(value)
        return counts


class Battery:
    """Library path: load_csv, load_regimes, then run_battery per series."""

    def __init__(self, spec, digitaudit, tracer):
        self.csv = spec["csv"]
        self.regimes = spec["regimes"]
        self.da = digitaudit

    def prepare(self):
        pass

    def run(self):
        da = self.da  # names looked up per call so a wrapper is seen
        loaded = da.load_csv(self.csv)
        regimes = da.load_regimes(self.regimes)
        return [da.run_battery(series, da.TransformKind.theil(), regimes)
                for series in loaded.series]

    def summarize(self, results):
        out = {}
        for result in results:
            variants = {}
            for name, battery in result.variants.items():
                hists = {}
                for position, hist in battery.histograms.items():
                    hists[str(position)] = {
                        "counts": {str(d): hist.count(d) for d in hist.domain()},
                        "breakdown": {regime: {str(d): c for d, c in counts}
                                      for regime, counts in hist.regime_breakdown or ()},
                    }
                variants[name] = {
                    "excluded": battery.excluded,
                    "histograms": hists,
                    "tests": {key: [res.statistic, res.verdict]
                              for key, res in battery.tests.items()},
                }
            out[result.label] = variants
        return out


class LawTable:
    """A fresh interpreter per operation, computing the law table."""

    def __init__(self, spec, digitaudit, tracer):
        self.lawop = spec["lawop"]
        self.tracer = tracer

    def prepare(self):
        pass

    def run(self):
        traced = self.tracer is not None and self.tracer.in_op
        cmd = [sys.executable, "-s", self.lawop, "1" if traced else "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"law-table child exited {done.returncode}: {done.stderr[-500:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if traced:
            for n, start, end in result["spans"]:
                self.tracer.add(f"digit_laws.n{n}", start, end)
        return result

    def summarize(self, result):
        return {"values": result["values"]}


KINDS = {"cli": CliAudit, "battery": Battery, "law": LawTable}


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    start = time.perf_counter()
    import digitaudit
    import digitaudit.cli
    setup_s = time.perf_counter() - start

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(digitaudit.__file__).startswith(src + os.sep):
        raise SystemExit(f"digitaudit was imported from {digitaudit.__file__}, not {src}")

    tracer = Tracer() if spec["trace"] else None
    patches = layer_patches() if tracer is not None else []
    workload = KINDS[spec["kind"]](spec, digitaudit, tracer)

    ops, layers = [], []
    budget, min_ops = spec["budget_s"], spec["min_ops"]
    loop_start = time.perf_counter()
    while True:
        # in a traced run, even operations (the cold one first) are traced
        traced = tracer is not None and len(ops) % 2 == 0
        workload.prepare()
        saved = tracer.install(patches) if traced else None
        root = tracer.begin_op(len(ops)) if traced else None
        error, result = None, None
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = workload.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        if traced:
            layers.append(tracer.end_op(root))
            tracer.uninstall(saved)
        summary = None
        if error is None:
            try:
                summary = workload.summarize(result)
            except Exception as exc:
                error = f"summary failed: {type(exc).__name__}: {exc}"
        ops.append({"wall": wall, "cpu": cpu, "traced": traced, "error": error,
                    "summary": summary})
        elapsed = time.perf_counter() - loop_start
        if len(ops) >= min_ops and elapsed + wall > budget:
            break

    numpy = sys.modules.get("numpy")
    backend = getattr(digitaudit, "kernel_backend", None)
    out = {
        "setup_s": setup_s,
        "ops": ops,
        "layers": layers,
        "peak_rss_mb": _peak_rss_mb(),
        "numpy": getattr(numpy, "__version__", None),
        "kernel_backend": backend() if callable(backend) else None,
        "spans": tracer.spans if tracer is not None else [],
        "unwrapped": tracer.unwrapped if tracer is not None else [],
    }
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1])
