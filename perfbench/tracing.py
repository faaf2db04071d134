"""Benchmark-side tracing: spans and counts around the program's public calls.

The program carries no instrumentation of its own.  While a :class:`Tracer`
is installed (``with tracer:``) a fixed set of public methods and functions
is replaced by wrappers that record spans — name, start, end, parent — and
counts; leaving the block restores the originals, so untraced runs execute
unmodified code.  Everything stays in memory until :func:`layer_metrics`
reduces one run to the per-layer metrics listed in ``BENCHMARK.json``.

Layers that run inside worker processes (the ``processes`` backend) are seen
master-side only: the pool's ``run`` span, plus counts taken from the public
results the program returns (``ApplyReport``, feature blocks, the label
matrix).  Worker-side times are not reported.
"""

from __future__ import annotations

import functools
import operator
import os
import time
from collections import Counter
from dataclasses import dataclass

#: Bytes one label or feature triple carries back from a worker: an int64
#: row offset, an int64 column and an 8-byte value.
TRIPLE_BYTES = 24


@dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span's index, -1 for a root."""

    name: str
    start: float
    end: float
    parent: int


def covered_length(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.end - span.start - covered_length(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def outermost_seconds(spans: list[Span], name: str) -> float:
    """Summed duration of ``name`` spans, skipping those nested in another ``name`` span."""
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != name:
            parent = spans[parent].parent
        if parent < 0:
            total += span.end - span.start
    return total


def label_nnz(matrix) -> int:
    """Non-abstain entries of a :class:`repro.labeling.matrix.LabelMatrix`."""
    storage = matrix.storage
    return int(storage.nnz) if matrix.is_sparse else int((storage != 0).sum())


def _bytes_written() -> int:
    """Bytes this process has passed to ``write`` calls so far (Linux ``wchar``)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


class Tracer:
    """Spans and counts of one traced run; each ``with tracer:`` block is one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        #: Point-in-time values (last write wins), e.g. the compiled-LF split.
        self.gauges: dict[str, float] = {}
        #: Worker pools seen during the run, for their lifetime spawn count.
        self.pools: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []
        self._io_depth = 0
        self._paused = False

    # ----------------------------------------------------------------- spans
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    # --------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, replacement) -> None:
        own = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if own else getattr(owner, attr, None)
        self._patches.append((owner, attr, own or not isinstance(owner, type), original))
        setattr(owner, attr, replacement)

    def timed(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` in a ``name`` span; ``after(result, *args)`` adds counts."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                tracer._paused = True
                try:
                    after(result, *args, **kwargs)
                finally:
                    tracer._paused = False
            return result

        self._patch(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        """Start a fresh run: drop the previous run's spans and counts, install the wrappers."""
        self.spans = []
        self.counts = Counter()
        self.gauges = {}
        self._stack = []
        self._install()
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, restore, original = self._patches.pop()
            if restore:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ---------------------------------------------------------- the patch set
    def _install(self) -> None:
        from repro.context.corpus import Corpus
        from repro.context.extraction import CandidateExtractor
        from repro.db.query import Query
        from repro.db.storage import Database
        from repro.discriminative.featurizers import RelationFeaturizer
        from repro.discriminative.logistic import NoiseAwareLogisticRegression
        from repro.discriminative.softmax import NoiseAwareSoftmaxRegression
        from repro.labeling import pushdown
        from repro.labeling.applier import LFApplier
        from repro.labeling.blockstore import BlockStore
        from repro.labeling.engine import WorkerPool, tasks
        from repro.labeling.lf import LabelingFunction
        from repro.labelmodel.generative import GenerativeModel
        from repro.labelmodel.online import OnlineGenerativeModel
        from repro.labelmodel.optimizer import ModelingStrategyOptimizer
        from repro.labelmodel.structure import StructureLearner
        from repro.pipeline.snorkel import SnorkelPipeline

        counts = self.counts

        # pipeline
        self.timed(SnorkelPipeline, "run", "pipeline.run")
        self.timed(SnorkelPipeline, "run_streams", "pipeline.run")

        # context
        self.timed(Corpus, "add_document", "context.ingest")
        self.timed(CandidateExtractor, "extract", "context.extract")

        def materialized(result, *args, **kwargs):
            counts["context.candidates"] += len(result)

        self.timed(Corpus, "candidates", "context.materialize", after=materialized)

        # db: every terminal query call is one query; rows scanned are the
        # rows the table scan yields, rows returned what the caller receives.
        def returned(measure):
            def after(result, *args, **kwargs):
                counts["db.queries"] += 1
                counts["db.rows_returned"] += measure(result)

            return after

        for attr, measure in (
            ("all", len),
            ("values", len),
            ("join", len),
            ("one", lambda row: 1),
            ("first", lambda row: 0 if row is None else 1),
            ("count", int),
            ("__iter__", operator.length_hint),
        ):
            self.timed(Query, attr, "db.query", after=returned(measure))

        def lookup(result, *args, **kwargs):
            found = 0 if result is None else 1
            counts["db.queries"] += 1
            counts["db.rows_scanned"] += found
            counts["db.rows_returned"] += found

        self.timed(Database, "get", "db.query", after=lookup)
        self.timed(Database, "get_or_none", "db.query", after=lookup)
        scan = Database.scan

        def counted_scan(database, table_name):
            # Drained up front so counting adds no per-row Python work.
            rows = list(scan(database, table_name))
            counts["db.rows_scanned"] += len(rows)
            return iter(rows)

        self._patch(Database, "scan", counted_scan)

        # labeling
        call = LabelingFunction.__call__

        def counted_call(lf, candidate):
            counts["labeling.lf_calls"] += 1
            return call(lf, candidate)

        self._patch(LabelingFunction, "__call__", counted_call)

        def applied(result, applier, *args, **kwargs):
            report = applier.last_report
            matrix, blocks = result if isinstance(result, tuple) else (result, ())
            counts["labeling.chunks"] += report.num_chunks
            counts["labeling.lf_errors"] += report.num_errors
            interpreted = sum(report.lf_seconds.values())
            if report.pushdown is not None:
                counts["labeling.pushdown.kernel_s"] += report.pushdown.compiled_seconds
                interpreted -= report.pushdown.compiled_seconds
                self.gauges["labeling.pushdown.compiled_lfs"] = len(report.pushdown.compiled)
                self.gauges["labeling.pushdown.fallback_lfs"] = len(report.pushdown.fallback)
            counts["labeling.lf_s"] += interpreted
            if report.transport is not None:
                counts["labeling.engine.transport_s"] += report.transport.transport_seconds
            feature_nnz = sum(int(block.indptr[-1]) for block in blocks)
            counts["discriminative.feature_nnz"] += feature_nnz
            if report.backend == "processes":
                counts["labeling.engine.result_bytes"] += TRIPLE_BYTES * (
                    label_nnz(matrix) + feature_nnz
                )

        self.timed(LFApplier, "apply", "labeling.apply", after=applied)
        self.timed(LFApplier, "apply_with_features", "labeling.apply", after=applied)
        self.timed(pushdown, "build_plan", "labeling.pushdown.compile")

        # engine: spawns inside attach/run of a warm pool are respawns.
        for attr in ("attach", "run"):
            original = getattr(WorkerPool, attr)

            def pool_call(pool, *args, _original=original, _attr=attr, **kwargs):
                self.pools.add(pool)
                before = pool.total_spawned
                index = self.open("labeling.engine.pool_run") if _attr == "run" else None
                try:
                    return _original(pool, *args, **kwargs)
                finally:
                    if index is not None:
                        self.close(index)
                    counts["labeling.engine.retries"] += pool.total_spawned - before

            self._patch(WorkerPool, attr, pool_call)

        # block store: write traffic is the ``wchar`` growth inside the
        # store's public mutators (outermost call only), against the array
        # bytes handed to ``put``.
        def io_accounted(original, name=None, before=None):
            def wrapper(*args, **kwargs):
                outer = self._io_depth == 0
                start_bytes = _bytes_written() if outer else 0
                self._io_depth += 1
                if before is not None:
                    before(*args, **kwargs)
                index = self.open(name) if name is not None else None
                try:
                    return original(*args, **kwargs)
                finally:
                    if index is not None:
                        self.close(index)
                    self._io_depth -= 1
                    if outer:
                        counts["labeling.blockstore.bytes_written"] += (
                            _bytes_written() - start_bytes
                        )

            return wrapper

        def put_arrays(store, key, arrays, *args, **kwargs):
            counts["labeling.blockstore.puts"] += 1
            counts["labeling.blockstore.logical_bytes"] += sum(
                int(array.nbytes) for array in arrays.values()
            )

        self._patch(
            BlockStore,
            "put",
            io_accounted(BlockStore.put, "labeling.blockstore.put", before=put_arrays),
        )
        for attr in ("__init__", "delete", "prune", "clear"):
            self._patch(BlockStore, attr, io_accounted(getattr(BlockStore, attr)))

        def got(result, *args, **kwargs):
            counts["labeling.blockstore.gets"] += 1

        self.timed(BlockStore, "get", "labeling.blockstore.get", after=got)
        fsync = os.fsync

        def counted_fsync(fd):
            counts["labeling.blockstore.fsyncs"] += 1
            return fsync(fd)

        self._patch(os, "fsync", counted_fsync)

        # discriminative
        self.timed(tasks, "featurize_chunk", "discriminative.featurize")

        def featurized(result, *args, **kwargs):
            nnz = result.indptr[-1] if hasattr(result, "indptr") else (result != 0).sum()
            counts["discriminative.feature_nnz"] += int(nnz)

        self.timed(RelationFeaturizer, "transform", "discriminative.featurize", after=featurized)
        for model in (NoiseAwareLogisticRegression, NoiseAwareSoftmaxRegression):
            self.timed(model, "fit", "discriminative.fit")
            self.timed(model, "fit_stream", "discriminative.fit")
            self.timed(model, "predict_proba", "discriminative.predict")

        # label model
        self.timed(ModelingStrategyOptimizer, "choose", "labelmodel.optimizer")
        self.timed(StructureLearner, "fit", "labelmodel.structure")
        self.timed(StructureLearner, "refit_nodes", "labelmodel.structure")
        self.timed(GenerativeModel, "fit", "labelmodel.fit")
        self.timed(GenerativeModel, "predict_proba", "labelmodel.predict")

        def folded(result, *args, **kwargs):
            counts["labelmodel.online.updates"] += 1

        self.timed(OnlineGenerativeModel, "update", "labelmodel.online.update", after=folded)
        self.timed(OnlineGenerativeModel, "drain", "labelmodel.online.drain")


#: Per-layer metrics that are summed span durations (outermost per name).
SPAN_SECONDS = {
    "context.ingest_s": "context.ingest",
    "context.extract_s": "context.extract",
    "context.materialize_s": "context.materialize",
    "db.query_s": "db.query",
    "labeling.pushdown.compile_s": "labeling.pushdown.compile",
    "labeling.engine.pool_run_s": "labeling.engine.pool_run",
    "labeling.blockstore.put_s": "labeling.blockstore.put",
    "labeling.blockstore.get_s": "labeling.blockstore.get",
    "discriminative.featurize_s": "discriminative.featurize",
    "discriminative.fit_s": "discriminative.fit",
    "discriminative.predict_s": "discriminative.predict",
    "labelmodel.optimizer_s": "labelmodel.optimizer",
    "labelmodel.structure_s": "labelmodel.structure",
    "labelmodel.fit_s": "labelmodel.fit",
    "labelmodel.predict_s": "labelmodel.predict",
    "labelmodel.online.update_s": "labelmodel.online.update",
    "labelmodel.online.drain_s": "labelmodel.online.drain",
}

#: Per-layer metrics that are self times (span minus child coverage).
SELF_SECONDS = {
    "labeling.apply_s": "labeling.apply",
    "pipeline.self_s": "pipeline.run",
}

#: Per-layer metrics read straight from the counters.
COUNTS = (
    "context.candidates",
    "db.queries",
    "db.rows_scanned",
    "labeling.chunks",
    "labeling.lf_calls",
    "labeling.lf_s",
    "labeling.lf_errors",
    "labeling.pushdown.kernel_s",
    "labeling.engine.transport_s",
    "labeling.engine.result_bytes",
    "labeling.engine.retries",
    "labeling.blockstore.puts",
    "labeling.blockstore.fsyncs",
    "labeling.blockstore.bytes_written",
    "labeling.blockstore.gets",
    "discriminative.feature_nnz",
    "labelmodel.online.updates",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce one traced run to its per-layer metrics (``trace.overhead_frac``
    and the run-level extras are added by the caller)."""
    spans = tracer.spans
    counts = tracer.counts
    metrics: dict[str, float] = {
        metric: outermost_seconds(spans, name) for metric, name in SPAN_SECONDS.items()
    }
    own = self_times(spans)
    for metric, name in SELF_SECONDS.items():
        metrics[metric] = sum(t for span, t in zip(spans, own) if span.name == name)
    for metric in COUNTS:
        metrics[metric] = float(counts[metric])
    for gauge in ("labeling.pushdown.compiled_lfs", "labeling.pushdown.fallback_lfs"):
        metrics[gauge] = float(tracer.gauges.get(gauge, 0))
    scanned, returned = counts["db.rows_scanned"], counts["db.rows_returned"]
    metrics["db.rows_scanned_per_returned"] = scanned / returned if returned else 0.0
    written = counts["labeling.blockstore.bytes_written"]
    logical = counts["labeling.blockstore.logical_bytes"]
    metrics["labeling.blockstore.write_amp"] = written / logical if logical else 0.0
    metrics["labeling.engine.workers_spawned"] = float(
        sum(pool.total_spawned for pool in tracer.pools)
    )
    return metrics
