"""Spans and counters recorded from outside the program.

Each public function is wrapped where its caller looks the name up (for
example ``prodflow.cli.fit_productivity`` or ``prodflow.ingest.parse_model``),
only while a traced op runs.  Spans are (name, start, end, parent) rows kept
in memory; a span's self time is its duration minus the time its direct
children cover.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# (module whose global is patched, as an attribute of workloads.Lib;
#  the global; span name)
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "fit_fdp", "identify.fit_fdp"),
    ("cli", "fit_productivity", "identify.fit_productivity"),
    ("cli", "ingest_run", "ingest.ingest_run"),
    ("cli", "write_run_csv", "ingest.write_run_csv"),
    ("cli", "ingest_cases", "ingest.ingest_cases"),
    ("cli", "read_sample_csv", "ingest.read_sample_csv"),
    ("cli", "read_chain_csv", "ingest.read_chain_csv"),
    ("cli", "load_model", "ingest.load_model"),
    ("cli", "step_response", "transient.step_response"),
    ("cli", "build_report", "report.build_report"),
    ("cli", "write_report_csv", "report.write_report_csv"),
    ("cli", "emit_step_plot", "svgplot.emit_step_plot"),
    ("cli", "sample_metrics", "spc.sample_metrics"),
    ("cli", "propagate_chain", "flowchain.propagate_chain"),
    ("cli", "format_model", "model.format_model"),
    ("report", "settling_time", "transient.settling_time"),
    ("ingest", "parse_model", "model.parse_model"),
    ("transient", "trapezoid_convolve", "transient.trapezoid_convolve"),
    # the library chain that validate_long calls itself
    ("ingest", "ingest_run", "ingest.ingest_run"),
    ("identify", "fit_fdp", "identify.fit_fdp"),
    ("identify", "goodness_of_fit", "identify.goodness_of_fit"),
    ("transient", "simulate_response", "transient.simulate_response"),
)


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.fit_calls: list[tuple] = []  # (run, cfg) of every traced fit_productivity
        self._saved: list[tuple] = []

    def span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Patch every wrapped name; undo with ``remove``."""
        after = {
            "identify.fit_productivity": self._keep_fit,
            "ingest.ingest_run": self._count_rows,
            "ingest.read_sample_csv": self._count_rows,
            "ingest.read_chain_csv": self._count_rows,
            "svgplot.emit_step_plot": self._count_plot,
        }
        for mod, attr, name in SPANS:
            module = getattr(self.lib, mod)
            self._patch(module, attr, self.span(name, getattr(module, attr), after.get(name)))
        # convolutions made from identify are counted, not spanned: their
        # time stays in identify, where the refinement loop spends it
        ident = self.lib.identify
        self._patch(ident, "trapezoid_convolve", self.counter("identify.convolutions", ident.trapezoid_convolve))

    def _keep_fit(self, args, kwargs, result) -> None:
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg", self.lib.identify.FitConfig())
        self.fit_calls.append((args[0], cfg))

    def _count_rows(self, args, kwargs, result) -> None:
        # a ProcessRun, a sample array or a list of chain nodes
        rows = len(result.output) if hasattr(result, "output") else len(result)
        self.counts["ingest.rows_read"] += rows

    def _count_plot(self, args, kwargs, result) -> None:
        curves, path = args[0], args[1]
        self.counts["svgplot.points"] += sum(len(ts) for _, ts in curves)
        self.counts["svgplot.bytes"] += os.path.getsize(path)

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out
