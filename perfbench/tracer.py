"""Span tracer for the benchmark's per-layer run.

The tracer wraps public functions at the points where the orchestrators
(``digitaudit.cli.main``, ``digitaudit.report.run_audit`` and
``digitaudit.gof_tests.run_battery``) call into each layer. It patches the
names those orchestrators look up at call time, from the benchmark's own
files, so nothing under ``src/`` changes. Every span records its layer,
the operation it belongs to, start, end and the span that caused it; a
layer's self time is its span's duration minus the time its child spans
cover. Counts are recorded at the same boundaries.

Wrappers are installed only around traced operations and removed after
each one, so untraced operations in the same process run the program's
own functions.
"""

from __future__ import annotations

import functools
import math
import time

#: Span layer -> per-layer metric name for its self time.
SELF_TIME_METRICS = {
    "ingest": "ingest.self_s",
    "series": "series.self_s",
    "transforms": "transforms.self_s",
    "digit_extract": "digit_extract.self_s",
    "gof_tests.histogram": "gof_tests.histogram_s",
    "gof_tests.chi2": "gof_tests.chi2_s",
    "imperfect_fit": "imperfect_fit.self_s",
    "report.render": "report.render_s",
    "cli": "cli.self_s",
    **{f"digit_laws.n{n}": f"digit_laws.nth_s.n{n}" for n in range(2, 9)},
}

COUNT_METRICS = (
    "ingest.rows",
    "transforms.points",
    "transforms.excluded",
    "digit_extract.values",
    "digit_extract.reals",
    "gof_tests.tests",
    "imperfect_fit.fits",
    "imperfect_fit.scales",
    "report.bytes",
)


class Tracer:
    """In-memory spans and counts of the traced operations of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.unwrapped: list[str] = []
        self._stack: list[int] = []
        self._op = None

    # spans -------------------------------------------------------------
    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"layer": layer, "op": self._op, "start": time.perf_counter(),
                           "end": None, "parent": parent})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def add(self, layer: str, start: float, end: float) -> None:
        """Record a finished span measured elsewhere (a child process)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"layer": layer, "op": self._op, "start": start,
                           "end": end, "parent": parent})

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # operations --------------------------------------------------------
    @property
    def in_op(self) -> bool:
        """True between begin_op() and end_op()."""
        return self._op is not None

    def begin_op(self, op: int) -> int:
        self._op = op
        self.counts = {}
        return self.open("op")

    def end_op(self, root: int) -> dict:
        """Close the operation; return its per-layer self times and counts."""
        self.close(root)
        op, self._op = self._op, None
        spans = self.spans[root:]
        child_time = [0.0] * len(spans)
        for span in spans[1:]:
            child_time[span["parent"] - root] += span["end"] - span["start"]
        self_times: dict[str, float] = {}
        for span, covered in zip(spans, child_time):
            layer = span["layer"]
            self_times[layer] = self_times.get(layer, 0.0) + (span["end"] - span["start"]) - covered
        return {"op": op, "self": self_times, "counts": dict(self.counts)}

    # wrapping ----------------------------------------------------------
    def wrap(self, fn, layer: str, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, patches) -> list:
        """Replace each (owner, name, layer, counter) with a wrapper.

        Returns what uninstall() needs to put the originals back. Names
        missing from the program are listed in self.unwrapped.
        """
        saved = []
        for owner, name, layer, counter in patches:
            if not hasattr(owner, name):
                label = f"{getattr(owner, '__name__', owner)}.{name}"
                if label not in self.unwrapped:
                    self.unwrapped.append(label)
                continue
            if isinstance(owner, type):
                raw = owner.__dict__[name]
                setattr(owner, name, staticmethod(self.wrap(getattr(owner, name), layer, counter)))
            else:
                raw = getattr(owner, name)
                setattr(owner, name, self.wrap(raw, layer, counter))
            saved.append((owner, name, raw))
        return saved

    @staticmethod
    def uninstall(saved) -> None:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_rows(tracer, args, kwargs, result):
    tracer.count("ingest.rows", result.rows)


def _count_transform(tracer, args, kwargs, result):
    tracer.count("transforms.points", len(result.points))
    tracer.count("transforms.excluded", result.excluded_for_analysis)


def _count_extract(tracer, args, kwargs, result):
    points = _arg(args, kwargs, 0, "points")
    exact = _arg(args, kwargs, 1, "exact")
    tracer.count("digit_extract.values", len(points))
    if not exact:
        tracer.count("digit_extract.reals", len(points))


def _count_tests(tracer, args, kwargs, result):
    tracer.count("gof_tests.tests", len(result))


def _count_fit(tracer, args, kwargs, result):
    total = int(round(_arg(args, kwargs, 0, "hist").total))
    tracer.count("imperfect_fit.fits", 1)
    tracer.count("imperfect_fit.scales", 2 * total - math.ceil(total / 2) + 1)


def _count_bytes(tracer, args, kwargs, result):
    tracer.count("report.bytes", len(result.encode("utf-8")))


def layer_patches():
    """The call boundaries the per-layer run wraps, as install() takes them."""
    import digitaudit
    from digitaudit import cli, digit_laws, gof_tests, report

    return [
        (cli, "main", "cli", None),
        (report, "load_csv", "ingest", _count_rows),
        (report, "load_regimes", "ingest", None),
        (digitaudit, "load_csv", "ingest", _count_rows),
        (digitaudit, "load_regimes", "ingest", None),
        (report, "partition_series", "series", None),
        (gof_tests, "partition_series", "series", None),
        (report, "apply_transform", "transforms", _count_transform),
        (gof_tests, "apply_transform", "transforms", _count_transform),
        (report, "digits_of_points", "digit_extract", _count_extract),
        (gof_tests, "digits_of_points", "digit_extract", _count_extract),
        (gof_tests.DigitHistogram, "from_digits", "gof_tests.histogram", None),
        (report, "battery_on_histograms", "gof_tests.chi2", _count_tests),
        (gof_tests, "battery_on_histograms", "gof_tests.chi2", _count_tests),
        (report, "fit_imperfect", "imperfect_fit", _count_fit),
        (digit_laws, "second_digit_probs", "digit_laws.n2", None),
        (report, "render_report", "report.render", _count_bytes),
        (report, "render_histogram_csv", "report.render", _count_bytes),
    ]
