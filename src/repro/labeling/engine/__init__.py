"""The streaming, parallel labeling-function execution engine.

The engine splits LF application into three orthogonal pieces:

* a **plan** (:class:`ExecutionPlan`) — chunking/partitioning policy, backend
  choice, worker count, and fault policy;
* an **executor** (``sequential`` / ``threads`` / ``processes``, see
  :mod:`repro.labeling.engine.executors`) — how chunks are scheduled, with
  windowed submission bounding in-flight memory;
* an **accumulator** (:class:`CSRAccumulator`) — per-chunk CSR triple blocks
  merged deterministically into one global triple set.

:func:`run_plan` wires them together: candidates stream in (any iterable —
lists, generators, database cursors), chunks fan out to workers, triple
blocks fan back in, and the result is identical for every backend.  The
:class:`repro.labeling.applier.LFApplier` facade is the main consumer.
"""

from repro.labeling.engine.accumulator import ChunkResult, CSRAccumulator, apply_chunk
from repro.labeling.engine.executors import (
    ChunkTask,
    EngineResult,
    ProcessPoolChunkExecutor,
    SequentialExecutor,
    ThreadPoolChunkExecutor,
    get_executor,
    run_plan,
)
from repro.labeling.engine.plan import (
    BACKENDS,
    Chunk,
    ExecutionPlan,
    available_workers,
    iter_chunks,
)
from repro.labeling.engine.runtime import (
    TaskSpec,
    WorkerCrashError,
    WorkerPool,
    WorkerTimeoutError,
    get_global_pool,
    run_attached_chunk,
    shutdown_pools,
)
from repro.labeling.engine.tasks import featurize_chunk, label_and_featurize_chunk

__all__ = [
    "BACKENDS",
    "Chunk",
    "ChunkResult",
    "ChunkTask",
    "CSRAccumulator",
    "EngineResult",
    "ExecutionPlan",
    "ProcessPoolChunkExecutor",
    "SequentialExecutor",
    "TaskSpec",
    "ThreadPoolChunkExecutor",
    "WorkerCrashError",
    "WorkerPool",
    "WorkerTimeoutError",
    "apply_chunk",
    "available_workers",
    "featurize_chunk",
    "get_executor",
    "get_global_pool",
    "iter_chunks",
    "label_and_featurize_chunk",
    "run_attached_chunk",
    "run_plan",
    "shutdown_pools",
]
