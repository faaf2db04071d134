"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload text_stream --seed 1 --seconds 10 --trace 0

One process is one closed-loop client: each run starts after the previous
one has finished and been checked.  In order, the process

1. imports the program;
2. generates the workload's inputs from ``--seed`` (timed apart, reported as
   ``input_generation_s``);
3. sets the workload up ``SETUPS`` times and times the program's import in
   as many fresh interpreters; ``setup_s`` is the sum of the two medians;
4. computes the correctness oracles once;
5. with ``--trace 0``: makes one untimed run under the memory sampler
   (``peak_rss_mb``), then repeats timed runs for ``--seconds`` seconds and
   reports the median throughput at the reference host speed: each run's
   rate is scaled by :func:`host_speed_probe` taken before and after it
   over ``REFERENCE_PROBE_S`` (the record adds the unscaled median, the run
   count and the slow tail); with ``--trace 1``: alternates untraced
   and traced runs for ``--seconds`` seconds and reports the medians of the
   per-layer metrics plus the tracing overhead.

Every run is checked against the oracles; a run that raises, fails a check,
or logs an engine retry (EN100/EN101/EN102) counts as failed.  The next to
last line of output is a self-describing record (seed, sizes, CPUs,
versions, the workload-specific end-to-end metrics); the last line is the
result object the metric names in ``BENCHMARK.json`` refer to.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-ups per process; ``setup_s`` is their median plus import time.
SETUPS = 3
#: Fewest timed runs per process, however long each takes.
MIN_RUNS = 3
#: Times the program's import in a fresh interpreter, for ``setup_s``.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import perfbench.workloads; "
    "print(time.perf_counter() - start)"
)


#: Probe seconds ``candidates_per_s`` is quoted at: a round figure near the
#: probe's median on a 2-vCPU Intel Xeon virtual machine.  It sets only the
#: metric's scale.
REFERENCE_PROBE_S = 0.030
PROBE_LOOPS = 300_000


def host_speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    A shared host's speed drifts by up to 1.7x over tens of seconds, which
    moves every run of a process alike; the probe is independent of the
    program, so scaling a run by the probes around it removes that drift and
    nothing the program does.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def slow_tail(rates: list[float]) -> dict:
    """The rate the slowest runs fall to: the lowest percentile with at
    least ten runs below it (``None`` with fewer than eleven runs)."""
    if len(rates) <= 10:
        return {"runs": len(rates), "percentile": None, "candidates_per_s": None}
    ordered = sorted(rates)
    share = 10 / len(rates)
    return {
        "runs": len(rates),
        "percentile": round(100 * share, 1),
        "candidates_per_s": ordered[10],
    }


def fresh_import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program and its dependencies."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(probe.stdout.strip().splitlines()[-1])


class Runner:
    """Runs and checks one workload, counting attempts and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def once(self, tracer=None):
        """One checked run; returns ``(outcome, seconds)``, ``(None, None)`` if it raised.

        With a ``tracer`` the run (not its check) is traced.
        """
        workload = self.workload
        workload.prepare()
        outcome = seconds = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with tracer or contextlib.nullcontext():
                    start = time.perf_counter()
                    outcome = workload.run()
                    seconds = time.perf_counter() - start
                problems = workload.check(outcome)
            except Exception as exc:  # a failed run is counted, not fatal
                problems = [f"raised {type(exc).__name__}: {exc}"]
        problems += [
            f"engine retry: {warning.message}"
            for warning in caught
            if "EN10" in str(warning.message)
        ]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            print(f"perfbench: run {self.attempted} failed: {problems}", file=sys.stderr)
        return outcome, seconds


def measure(workload, runner: Runner, seconds: float, trace: bool) -> dict[str, float]:
    """Timed (or traced) runs for ``seconds``; returns the raw metric values."""
    from perfbench.memory import PeakRss
    from perfbench.tracing import Tracer, label_nnz, layer_metrics
    from perfbench.workloads import end_epochs

    metrics: dict[str, float] = {}
    if not trace:
        with PeakRss() as peak:
            runner.once()
        metrics["peak_rss_mb"] = peak.bytes / 1e6
        rates, unscaled, probes = [], [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(rates) < MIN_RUNS:
            before = host_speed_probe()
            outcome, run_seconds = runner.once()
            if run_seconds is not None:
                probes.append((before + host_speed_probe()) / 2)
                unscaled.append(outcome.candidates / run_seconds)
                rates.append(unscaled[-1] * probes[-1] / REFERENCE_PROBE_S)
            elif runner.attempted > 10 * MIN_RUNS and not rates:
                break
        if rates:
            metrics["candidates_per_s"] = statistics.median(rates)
            metrics["unscaled"] = statistics.median(unscaled)
            metrics["probe"] = statistics.median(probes)
        metrics["run_rates"] = rates
        return metrics

    tracer = Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < 2:
        _, run_seconds = runner.once()
        if run_seconds is not None:
            plain.append(run_seconds)
        outcome, run_seconds = runner.once(tracer)
        if run_seconds is not None:
            traced.append(run_seconds)
            sample = layer_metrics(tracer)
            sample["labelmodel.lambda_nnz"] = float(label_nnz(outcome.label_matrix))
            sample["discriminative.epochs"] = float(
                end_epochs(outcome.end_model) if outcome.end_model is not None else 0
            )
            layers.append(sample)
        if runner.attempted > 20 * MIN_RUNS and not traced:
            break
    if layers:
        for name in layers[0]:
            metrics[name] = statistics.median(sample[name] for sample in layers)
    if plain and traced:
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input size factor (below 1 for smoke tests)"
    )
    return parser.parse_args(argv)


def stop_helper_processes() -> None:
    """Stop the worker pools and the shared-memory resource tracker, and wait for them."""
    from multiprocessing import resource_tracker

    from repro.labeling.engine import shutdown_pools

    shutdown_pools()
    # The tracker is a child process the pool starts; stopping it here
    # (private API, Python >= 3.8) lets the benchmark wait for it to end.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import numpy
    import scipy

    from perfbench.workloads import WORKLOADS

    import_seconds = time.perf_counter() - start
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, scale=args.scale)
    runner = Runner(workload)
    try:
        start = time.perf_counter()
        workload.generate()
        generation_seconds = time.perf_counter() - start
        setups, imports = [], []
        for attempt in range(1 if args.trace else SETUPS):
            if attempt:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            if not args.trace:
                imports.append(fresh_import_seconds())
        workload.reference()
        metrics = measure(workload, runner, args.seconds, bool(args.trace))
        reported = workload.reported() if runner.attempted > runner.failed else {}
    finally:
        workload.teardown()
        stop_helper_processes()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if imports:
        metrics["setup_s"] = statistics.median(imports) + statistics.median(setups)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": workload.sizes(),
        "available_cpus": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "input_generation_s": generation_seconds,
        "import_s": import_seconds,
        "fresh_import_samples_s": imports,
        "setup_samples_s": setups,
        "candidates_per_s_unscaled": metrics.pop("unscaled", None),
        "host_probe_s": metrics.pop("probe", None),
        "candidates_per_s_tail": slow_tail(metrics.get("run_rates", [])),
        "candidates_per_s_samples": metrics.pop("run_rates", []),
        "reported": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in {
                **reported,
                "failed_frac": (runner.failed / max(runner.attempted, 1), "frac"),
            }.items()
        },
        "problems": runner.problems[:20],
    }
    print(json.dumps(record))
    missing = [metric["name"] for metric in listed if metric["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in listed
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
