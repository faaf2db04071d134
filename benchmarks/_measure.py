"""Shared measurement helpers for the pipeline benches.

``tracemalloc`` slows allocation-heavy Python several-fold, so a bench
takes wall time from an untraced run (:func:`timed`) and peak memory from a
separate, untimed traced run (:func:`peak_bytes`).  Benches import this
module by name: pytest puts ``benchmarks/`` on ``sys.path`` for files it
collects there, and ``scripts/run_benchmarks.py`` adds it before loading a
bench by path.
"""

import time
import tracemalloc


def timed(func):
    """Run ``func`` untraced; return (result, wall seconds)."""
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def peak_bytes(func) -> int:
    """Peak traced allocation of a separate, untimed run of ``func``."""
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
