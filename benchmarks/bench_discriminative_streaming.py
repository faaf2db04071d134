"""Out-of-core discriminative stage: streaming vs materialized pipeline runs.

The PR-5 BENCH section.  One synthetic text task (planted vote tokens +
class-indicative features, :func:`repro.datasets.synthetic.
stream_text_candidates`) is run end-to-end twice:

* **materialized** — the default :class:`repro.pipeline.SnorkelPipeline`
  path: candidate lists, a dense ``(m, d)`` feature matrix, in-memory
  end-model training;
* **streaming** — ``PipelineConfig(streaming=True)`` fed by generators: one
  fused apply+featurize engine pass per split, CSR feature blocks, minibatch
  ``fit_stream`` training.  No candidate list, no dense feature matrix.

Besides wall-clock throughput the record carries **peak traced memory** for
each path (``tracemalloc``, which numpy allocations report into, measured
in a separate untimed run so tracing never inflates the timings) — the
number that motivates the whole subsystem: the materialized peak grows with
``m·d`` while the streaming peak grows with the feature nnz — and the
value-parity deltas (training probs, end-model weights) that the
differential suite guarantees at test sizes, re-checked here at benchmark
scale.

``run_discriminative_streaming_benchmark`` is importable —
``scripts/run_benchmarks.py`` calls it to write the
``discriminative_streaming`` section of the ``BENCH_*.json`` snapshot,
whose ``*_seconds`` metrics the ``--compare`` regression gate checks.  The
default workload is the acceptance-scale 50k-candidate run; CI's
``--compare --quick`` smoke shrinks it.
"""

import numpy as np
from _measure import peak_bytes, timed

from repro.datasets.synthetic import (
    stream_text_candidates,
    stream_text_gold,
    text_vote_lfs,
)
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

DEFAULT_NUM_CANDIDATES = 50_000
DEFAULT_NUM_TEST = 5_000
DEFAULT_NUM_LFS = 20
DEFAULT_NUM_FEATURES = 512


def run_discriminative_streaming_benchmark(
    num_candidates: int = DEFAULT_NUM_CANDIDATES,
    num_test: int = DEFAULT_NUM_TEST,
    num_lfs: int = DEFAULT_NUM_LFS,
    num_features: int = DEFAULT_NUM_FEATURES,
    generative_epochs: int = 5,
    discriminative_epochs: int = 5,
    seed: int = 0,
):
    """Run the materialized and streaming pipelines on one synthetic task."""
    lfs = text_vote_lfs(num_lfs)
    test_gold = stream_text_gold(num_test, seed=seed + 1)

    def train_stream():
        return stream_text_candidates(
            num_points=num_candidates, num_lfs=num_lfs, seed=seed
        )

    def test_stream():
        return stream_text_candidates(
            num_points=num_test, num_lfs=num_lfs, seed=seed + 1
        )

    def make_config(streaming: bool) -> PipelineConfig:
        return PipelineConfig(
            use_optimizer=False,
            generative_epochs=generative_epochs,
            discriminative_epochs=discriminative_epochs,
            num_features=num_features,
            streaming=streaming,
            seed=seed,
        )

    def run_materialized():
        pipeline = SnorkelPipeline(lfs=lfs, config=make_config(streaming=False))
        # The materialized path needs real lists and TaskDataset plumbing;
        # run_streams accepts lists too, so both paths share the driver and
        # differ exactly in config.streaming — but here we hand the
        # materialized run its lists explicitly to charge it for them.
        from repro.datasets.base import TaskDataset

        task = TaskDataset(
            name="stream-bench",
            candidates={"train": list(train_stream()), "test": list(test_stream())},
            gold={"test": test_gold},
            lfs=lfs,
        )
        return pipeline.run(task)

    def run_streaming():
        pipeline = SnorkelPipeline(lfs=lfs, config=make_config(streaming=True))
        return pipeline.run_streams(train_stream(), test_stream(), test_gold)

    materialized, materialized_seconds = timed(run_materialized)
    streaming, streaming_seconds = timed(run_streaming)
    materialized_peak = peak_bytes(run_materialized)
    streaming_peak = peak_bytes(run_streaming)

    max_prob_diff = float(
        np.abs(materialized.training_probs - streaming.training_probs).max()
    )
    max_weight_diff = float(
        np.abs(
            materialized.discriminative_model.weights
            - streaming.discriminative_model.weights
        ).max()
    )
    return {
        "num_candidates": num_candidates,
        "num_test": num_test,
        "num_lfs": num_lfs,
        "num_features": num_features,
        "discriminative_epochs": discriminative_epochs,
        "materialized_seconds": materialized_seconds,
        "streaming_seconds": streaming_seconds,
        "materialized_peak_mb": materialized_peak / 1e6,
        "streaming_peak_mb": streaming_peak / 1e6,
        "peak_memory_ratio": materialized_peak / max(streaming_peak, 1),
        "materialized_candidates_per_second": num_candidates
        / max(materialized_seconds, 1e-12),
        "streaming_candidates_per_second": num_candidates
        / max(streaming_seconds, 1e-12),
        "max_training_prob_diff": max_prob_diff,
        "max_end_model_weight_diff": max_weight_diff,
        "materialized_f1": float(materialized.discriminative_f1),
        "streaming_f1": float(streaming.discriminative_f1),
    }


def format_record(record) -> str:
    return (
        f"{record['num_candidates']} candidates x {record['num_lfs']} LFs "
        f"(d={record['num_features']}): materialized "
        f"{record['materialized_seconds']:.2f}s / {record['materialized_peak_mb']:.0f}MB peak, "
        f"streaming {record['streaming_seconds']:.2f}s / "
        f"{record['streaming_peak_mb']:.0f}MB peak "
        f"({record['peak_memory_ratio']:.1f}x less memory); "
        f"max Δprobs {record['max_training_prob_diff']:.2e}, "
        f"max Δweights {record['max_end_model_weight_diff']:.2e}"
    )


def test_discriminative_streaming_parity(run_once):
    record = run_once(
        run_discriminative_streaming_benchmark,
        num_candidates=1_500,
        num_test=400,
        discriminative_epochs=4,
    )
    print("\n[Discriminative streaming] " + format_record(record))
    assert record["max_training_prob_diff"] == 0.0
    assert record["max_end_model_weight_diff"] < 1e-8
    assert record["streaming_peak_mb"] < record["materialized_peak_mb"]
