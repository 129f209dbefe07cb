"""Spans and counters recorded from outside the program.

Public functions are replaced, for the length of a traced run, at the
module attribute where callers look them up (``cli.index_tree``,
``catalog.build_index``, ``reports.stem``, ``VirtualFS.apply``, ...), so
the program itself is unchanged.  Coarse calls become spans kept in memory
(name, layer, job id, parent, start, end); hot calls that run thousands of
times per job (stemming, similarity, schedule runs, filesystem ops) only
bump counters, and their time stays in the calling span.  Every span also
counts its calls as ``<name>.calls``.
"""

from __future__ import annotations

import json
import logging
import time
from collections import Counter, defaultdict
from pathlib import Path

clock = time.perf_counter

LAYERS = ("reports", "stem", "catalog", "csource", "retrieval", "mining",
          "harness", "vfs", "testcases", "metrics", "cli")


class Tracer:
    def __init__(self) -> None:
        # span: [name, layer, job, parent index or -1, start, end, child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.job = -1
        self._undo: list[tuple[object, str, object]] = []
        self._filters: list[tuple[logging.Logger, logging.Filter]] = []

    # --- recording ---------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job

    def end_job(self) -> None:
        """Fold this job's distinct-value sets into the counters."""
        for name, values in self.distinct.items():
            self.counts[name] += len(values)
            values.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, layer: str, after=None) -> None:
        fn = getattr(owner, attr)
        spans, stack = self.spans, self.stack

        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            idx = len(spans)
            rec = [name, layer, self.job, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            spans.append(rec)
            stack.append(idx)
            rec[4] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = end = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][6] += end - start
            if after is not None:
                after(self.counts, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str, key=None) -> None:
        fn = getattr(owner, attr)
        counts, distinct = self.counts, self.distinct[name + ".distinct"]

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if key is not None:
                distinct.add(key(args))
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        while self._filters:
            logger, filt = self._filters.pop()
            logger.removeFilter(filt)

    # --- summaries ---------------------------------------------------------

    def self_ms(self) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """(self ms by layer, total ms by span name, self ms by span name)."""
        layer, total, own = Counter(), Counter(), Counter()
        for name, lay, _job, _parent, start, end, child in self.spans:
            layer[lay] += (end - start - child) * 1e3
            total[name] += (end - start) * 1e3
            own[name] += (end - start - child) * 1e3
        return layer, total, own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for i, (name, lay, job, parent, start, end, _child) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "layer": lay, "job": job,
                                      "parent": parent, "start": start, "end": end}) + "\n")
            out.write(json.dumps({"counters": dict(sorted(self.counts.items()))}) + "\n")


class _CountWarnings(logging.Filter):
    def __init__(self, counts: Counter) -> None:
        super().__init__()
        self.counts = counts

    def filter(self, record: logging.LogRecord) -> bool:
        if record.levelno >= logging.WARNING:
            self.counts["mining.warnings"] += 1
        return True


def _index_counts(counts, args, index) -> None:
    counts["csource.files_indexed"] += len(index.docs)
    counts["csource.functions_indexed"] += len(index.functions)
    counts["csource.tokens_indexed"] += sum(len(t) for d in index.docs for t in d.fields.values())


def _points_counts(counts, args, points) -> None:
    counts["mining.points_emitted"] += len(points)
    counts["mining.distinct_sites"] += len({(p.file, p.function, p.line) for p in points})


def install(tracer: Tracer, rr) -> None:
    """Wrap the public entry points of every layer; ``rr`` maps module names."""
    cli, metrics, catalog, csource = rr["cli"], rr["metrics"], rr["catalog"], rr["csource"]
    retrieval, mining, harness, reports = rr["retrieval"], rr["mining"], rr["harness"], rr["reports"]
    testcases, vfs = rr["testcases"], rr["vfs"]

    def tokens_out(counts, args, tokens):
        counts["reports.tokens_out"] += len(tokens)

    def docs_in(counts, args, _index):
        counts["retrieval.docs_indexed"] += len(args[0])

    def explored(counts, args, results):
        counts["harness.interleavings_explored"] += len(results)

    tracer.span(cli, "main", "cli.main", "cli")
    tracer.span(metrics, "run_fixture", "metrics.run_fixture", "metrics")
    for mod in (cli, metrics):
        tracer.span(mod, "load_report", "reports.load_report", "reports")
        tracer.span(mod, "index_tree", "csource.index_tree", "csource", _index_counts)
    for mod in (catalog, retrieval):
        tracer.span(mod, "preprocess", "reports.preprocess", "reports", tokens_out)
        tracer.span(mod, "build_index", "retrieval.build_index", "retrieval", docs_in)
    tracer.span(catalog, "extract", "catalog.extract", "catalog")
    tracer.span(catalog, "extract_derived", "catalog.extract_derived", "catalog")
    tracer.span(catalog, "bundled_catalog", "catalog.bundled_catalog", "catalog")
    tracer.span(retrieval, "rank_basic", "retrieval.rank_basic", "retrieval")
    tracer.span(retrieval, "rank_structured", "retrieval.rank_structured", "retrieval")
    tracer.span(mining, "rank_interleavings", "mining.rank_interleavings", "mining")
    for mod in (mining, metrics):
        tracer.span(mod, "locate", "mining.locate", "mining", _points_counts)
    tracer.span(testcases, "parse_tsl", "testcases.parse_tsl", "testcases")
    tracer.span(testcases, "expand_tsl", "testcases.expand_tsl", "testcases")
    tracer.span(harness, "load_scenario", "harness.load_scenario", "harness")
    tracer.span(harness, "reproduce", "harness.reproduce", "harness")
    tracer.span(harness, "enumerate_interleavings", "harness.enumerate_interleavings",
                "harness", explored)
    tracer.span(harness, "random_baseline", "harness.random_baseline", "harness")

    tracer.count(reports, "stem", "stem.calls", key=lambda a: a[0])
    tracer.count(retrieval, "similarity", "retrieval.similarity.calls")
    tracer.count(harness, "run_schedule", "harness.run_schedule.calls",
                 key=lambda a: tuple(a[1].steps))
    tracer.count(vfs.VirtualFS, "apply", "vfs.apply.calls")

    logger, warn_filter = logging.getLogger(mining.__name__), _CountWarnings(tracer.counts)
    logger.addFilter(warn_filter)
    tracer._filters.append((logger, warn_filter))
