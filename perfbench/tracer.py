"""Spans and memory peaks recorded around the benchmark's calls into ncqmlab.

A span holds (name, start, end, parent, pass).  Spans stay in memory and
are written out once, when the run ends.  A span's self time is its
duration minus the part covered by its direct children.  Spans are timed
in process CPU seconds, the clock of the end-to-end ``solve_s``.  A peak is the
tracemalloc peak of the allocations made inside one ``peak`` block, in MB.

``NullTracer`` has the same interface and records nothing, so untraced runs
pay one no-op context manager per call.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import tracemalloc

_NULL = contextlib.nullcontext()


class NullTracer:
    """Records nothing; used for the untraced, end-to-end runs."""

    def begin_pass(self, index: int) -> None:
        pass

    def span(self, name: str):
        return _NULL

    def peak(self, metric: str):
        return _NULL


class Tracer:
    """In-memory span and peak recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.peaks: list[dict] = []
        self._stack: list[int] = []
        self._pass = -1

    def begin_pass(self, index: int) -> None:
        self._pass = index

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.process_time(), "end": None,
                  "parent": parent, "pass": self._pass}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.process_time()
            self._stack.pop()

    @contextlib.contextmanager
    def peak(self, metric: str):
        if tracemalloc.is_tracing():
            raise RuntimeError("peak blocks must not nest")
        tracemalloc.start()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks.append({"metric": metric, "pass": self._pass,
                               "mb": peak / 2**20})

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self, names, passes: int) -> dict:
        """Median over passes of each named per-layer metric.

        ``<stem>_s`` sums the self time of the spans named ``<stem>`` in a
        pass; ``<name>_peak_mb``-style metrics take the largest peak recorded
        under that name in a pass.  A layer the pass never called reads 0.
        """
        per_pass = {name: [0.0] * passes for name in names}
        for s, own in zip(self.spans, self.self_times()):
            metric = s["name"] + "_s"
            if metric in per_pass and 0 <= s["pass"] < passes:
                per_pass[metric][s["pass"]] += own
        for p in self.peaks:
            if p["metric"] in per_pass and 0 <= p["pass"] < passes:
                row = per_pass[p["metric"]]
                row[p["pass"]] = max(row[p["pass"]], p["mb"])
        return {name: statistics.median(values)
                for name, values in per_pass.items()}

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans,
                       "peaks": self.peaks}, fh)
