"""Pluggable chunk executors and the engine's top-level ``run_plan``.

Three executors implement the same contract — consume a lazy chunk stream,
run a **chunk task** on each unit, and feed every result into a
:class:`CSRAccumulator`.  A chunk task is any picklable callable with the
:func:`repro.labeling.engine.accumulator.apply_chunk` signature
``task(payload, fault_tolerant, index, start_row, candidates) ->
ChunkResult``; ``apply_chunk`` (the LF suite) is the default, and
:mod:`repro.labeling.engine.tasks` adds featurization and fused
label+featurize tasks that ride the same executors.  The executors are:

* :class:`SequentialExecutor` — the in-process loop (no pool overhead);
* :class:`ThreadPoolChunkExecutor` — ``concurrent.futures`` threads, the
  right choice for latency-bound LFs (I/O, external services) where workers
  overlap waiting rather than computation;
* :class:`ProcessPoolChunkExecutor` — CPU-bound work on the **persistent
  worker runtime** (:mod:`repro.labeling.engine.runtime`): a pool of
  long-lived processes shared by every run in this master process.  The
  task payload (LF list, featurizer, ...) is attached once as a
  :class:`~repro.labeling.engine.runtime.TaskSpec` (pickled when possible,
  inherited via ``fork`` respawn otherwise, so closures still work); the
  candidate chunks then travel as pickled bytes over each worker's pipe
  and must be picklable.

The pool executors use windowed submission: at most ``plan.pending_limit()``
chunks are in flight, so a generator-fed run keeps bounded memory no matter
how large the stream is — chunks are drawn from the iterator only as workers
free up.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Executor, Future, wait
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import cycle guard
    from repro.labeling.blockstore import ChunkCheckpointer
    from repro.labeling.engine.runtime import TaskSpec

import numpy as np

from repro.exceptions import LabelingError
from repro.labeling.engine.accumulator import (
    ChunkResult,
    CSRAccumulator,
    LFErrorDetail,
    apply_chunk,
)
from repro.labeling.engine.plan import Chunk, ExecutionPlan, iter_chunks


#: Signature of a chunk task: ``(payload, fault_tolerant, index, start_row,
#: candidates) -> ChunkResult``.  Must be picklable (a module-level function)
#: for the process backend.
ChunkTask = Callable[[object, bool, int, int, list], ChunkResult]


@dataclass
class EngineResult:
    """Everything one engine run produced (triples + execution statistics)."""

    num_candidates: int
    num_chunks: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    errors: dict[str, int]
    error_details: dict[str, LFErrorDetail]
    chunk_seconds: list[float]
    backend: str
    num_workers: int
    #: Per-LF wall-clock totals (summed over chunks; empty when the task
    #: does not report them, e.g. pure featurization).
    lf_seconds: dict[str, float] = field(default_factory=dict)
    #: Per-chunk serialization seconds, in chunk order — disjoint from
    #: ``chunk_seconds`` (pure compute), so transport overhead is
    #: attributable per run (all zeros for in-process backends).
    transport_seconds: list[float] = field(default_factory=list)


class SequentialExecutor:
    """Runs chunks one after another in the calling process."""

    def execute(
        self,
        plan: ExecutionPlan,
        payload: object,
        chunks: Iterator[Chunk],
        accumulator: CSRAccumulator,
        task: ChunkTask = apply_chunk,
        spec: Optional["TaskSpec"] = None,
    ) -> None:
        for chunk in chunks:
            accumulator.add(
                task(payload, plan.fault_tolerant, chunk.index, chunk.start_row, chunk.candidates)
            )


def _windowed_submit(
    pool: Executor,
    submit: Callable[[Chunk], Future],
    chunks: Iterator[Chunk],
    accumulator: CSRAccumulator,
    limit: int,
) -> None:
    """Submit chunks with a bounded in-flight window; merge as they complete.

    On the first chunk failure the remaining stream is abandoned and queued
    work is cancelled, so a non-fault-tolerant run aborts promptly.
    """
    pending: set[Future] = set()
    try:
        for chunk in chunks:
            while len(pending) >= limit:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    accumulator.add(future.result())
            pending.add(submit(chunk))
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                accumulator.add(future.result())
    finally:
        for future in pending:
            future.cancel()


class ThreadPoolChunkExecutor:
    """Executes chunks on a ``ThreadPoolExecutor``."""

    def execute(
        self,
        plan: ExecutionPlan,
        payload: object,
        chunks: Iterator[Chunk],
        accumulator: CSRAccumulator,
        task: ChunkTask = apply_chunk,
        spec: Optional["TaskSpec"] = None,
    ) -> None:
        with ThreadPoolExecutor(max_workers=plan.effective_workers()) as pool:
            _windowed_submit(
                pool,
                lambda chunk: pool.submit(
                    task,
                    payload,
                    plan.fault_tolerant,
                    chunk.index,
                    chunk.start_row,
                    chunk.candidates,
                ),
                chunks,
                accumulator,
                plan.pending_limit(),
            )


class ProcessPoolChunkExecutor:
    """Executes chunks on the persistent worker runtime.

    Workers are **not** created per call: the executor borrows the
    per-process :func:`~repro.labeling.engine.runtime.get_global_pool` for
    ``plan.effective_workers()``, attaches the task/payload as a
    :class:`~repro.labeling.engine.runtime.TaskSpec` (a no-op when the same
    suite was attached before), and streams only pickled chunk payloads over
    each worker's pipe.  Under the ``fork`` start method unpicklable
    payloads (closure LFs, compiled pushdown plans) still work — the pool
    respawns its workers once so the spec is inherited by memory.  Under
    ``spawn`` (macOS / Windows) the spec itself must be picklable.
    """

    def execute(
        self,
        plan: ExecutionPlan,
        payload: object,
        chunks: Iterator[Chunk],
        accumulator: CSRAccumulator,
        task: ChunkTask = apply_chunk,
        spec: Optional["TaskSpec"] = None,
    ) -> None:
        from repro.labeling.engine import runtime

        if spec is None:
            spec = runtime.TaskSpec(task=task, payload=payload)
        spec = replace(spec, fault_tolerant=plan.fault_tolerant)
        pool = runtime.get_global_pool(plan.effective_workers())
        pool.run(
            spec,
            chunks,
            accumulator,
            pending_limit=plan.pending_limit(),
            chunk_timeout=plan.chunk_timeout,
        )


_EXECUTORS = {
    "sequential": SequentialExecutor,
    "threads": ThreadPoolChunkExecutor,
    "processes": ProcessPoolChunkExecutor,
}


def get_executor(backend: str):
    """Instantiate the executor implementing ``backend``."""
    try:
        return _EXECUTORS[backend]()
    except KeyError:
        raise LabelingError(
            f"unknown executor backend {backend!r}; expected one of {sorted(_EXECUTORS)}"
        ) from None


def run_plan(
    payload: object,
    candidates: Iterable,
    plan: ExecutionPlan,
    transform: Callable[[ChunkResult], ChunkResult] | None = None,
    task: ChunkTask = apply_chunk,
    spec: Optional["TaskSpec"] = None,
    checkpoint: Optional["ChunkCheckpointer"] = None,
) -> EngineResult:
    """Execute a chunk task over a candidate iterable under ``plan``.

    ``task`` defaults to :func:`apply_chunk` (the LF suite, with ``payload``
    the LF list); :mod:`repro.labeling.engine.tasks` provides featurization
    and fused label+featurize tasks for the same executors.  The candidate
    iterable is consumed lazily (chunk in, CSR triple block out); only the
    emitted triples, per-chunk statistics, and the bounded in-flight window
    are held in memory.  ``transform`` (see :class:`CSRAccumulator`) lets
    the caller consume each block's triples on arrival instead of keeping
    them for the final merge.

    ``spec`` is the worker-shippable description of the task for the
    processes backend (see :class:`~repro.labeling.engine.runtime.TaskSpec`)
    — callers whose master-side ``payload`` cannot cross a pipe (e.g. a
    compiled pushdown plan) pass a spec whose ``builder`` re-derives the
    payload worker-side from shipped configuration.  In-process backends run
    ``task(payload, ...)`` directly and ignore it.

    ``checkpoint`` (a :class:`repro.labeling.blockstore.ChunkCheckpointer`)
    makes the run crash-safe and resumable: every fresh result is recorded
    durably *before* ``transform`` consumes it, and chunks the store already
    holds are never handed to the executor — they are replayed from disk
    into the accumulator, through the same ``transform``, which is what
    makes a resumed run bit-identical to an uninterrupted one.  Chunking is
    deterministic (fixed ``chunk_size`` over the same stream), so chunk
    indices are stable identities across runs.
    """
    if checkpoint is not None:
        inner = transform

        def transform(result: ChunkResult) -> ChunkResult:
            checkpoint.record(result)
            return inner(result) if inner is not None else result

    accumulator = CSRAccumulator(transform=transform)
    chunks = iter_chunks(candidates, plan.chunk_size)
    if checkpoint is not None and checkpoint.completed:

        def replay_or_yield(stream):
            # Replayed results enter through accumulator.add, so they run
            # the identical transform chain as fresh ones (record() is a
            # no-op for indices already durable).
            for chunk in stream:
                if chunk.index in checkpoint.completed:
                    accumulator.add(checkpoint.load(chunk.index))
                else:
                    yield chunk

        chunks = replay_or_yield(chunks)
    executor = get_executor(plan.backend)
    executor.execute(plan, payload, chunks, accumulator, task, spec=spec)
    merged = accumulator.merge()
    return EngineResult(
        num_candidates=merged.num_candidates,
        num_chunks=merged.num_chunks,
        rows=merged.rows,
        cols=merged.cols,
        values=merged.values,
        errors=merged.errors,
        error_details=merged.error_details,
        chunk_seconds=merged.chunk_seconds,
        backend=plan.backend,
        num_workers=plan.effective_workers(),
        lf_seconds=merged.lf_seconds,
        transport_seconds=merged.transport_seconds,
    )
