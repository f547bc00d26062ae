"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload auth --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``,
``ops_per_s``, ``p50_ms``, ``peak_rss_mb``); ``--trace 1``
prints the per-layer split measured with span tracing installed (see
``perfbench/README.md`` for every metric and what it should move).
Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness check
passed and no operation failed.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run: at least ``SETUP_REPEATS``, and more until they took
#: ``SETUP_SECONDS`` together, so a quick set-up is timed often enough
#: for its median to hold still.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_CAP = 20
LATENCY_PARTS = 20
TRACE_DIR = Path(".perfbench")


def _pin_threads() -> None:
    """One BLAS/OpenMP thread: the load generator and the front end's
    drain thread already fill the host's cores."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def _one_malloc_arena() -> None:
    """Let every thread allocate from glibc's main arena.  With a second
    arena for the front end's drain thread, peak RSS depended on thread
    timing and split into two levels from run to run."""
    M_ARENA_MAX = -8
    try:
        ctypes.CDLL(ctypes.util.find_library("c")).mallopt(M_ARENA_MAX, 1)
    except (OSError, AttributeError, TypeError):
        pass  # not glibc


def _freeze_heap() -> None:
    """Move everything built so far out of the collector's reach, so a
    full collection in the timed part scans what the run allocates, not
    the set-up states (tens of ms per pass otherwise)."""
    gc.collect()
    gc.freeze()


def _environment() -> dict:
    import numpy as np
    from repro.kernels import current_backend_name

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernel_backend": current_backend_name(),
    }


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _median_latency(values) -> float:
    """Mean over ``LATENCY_PARTS`` consecutive parts of the run of each
    part's median.  A shared host runs fast and slow in turns of a
    fraction of a second to seconds, so latencies have one mode per
    speed: the median of a whole run can fall between the modes and
    jump when their mix shifts a little, while the mean of short parts'
    medians moves in proportion to the mix."""
    import numpy as np

    n_parts = max(1, min(LATENCY_PARTS, len(values)))
    parts = np.array_split(np.asarray(values), n_parts)
    return statistics.fmean(_percentile(part, 50) for part in parts)


def end_to_end(outcome, setup_s: float) -> dict:
    """The end-to-end metrics of one untraced run."""
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (outcome.ops_per_s, "1/s"),
        "p50_ms": (_median_latency(outcome.latencies_ms), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def per_layer(tracer, outcome, baseline, wall: float, shed: int) -> dict:
    """The per-layer metrics of one traced run (zero where a layer idles)."""
    from tracing import LAYERS

    counters, samples = tracer.counters, tracer.samples
    ops = max(outcome.attempted, 1)

    def per(total, count, scale=1.0):
        return total * scale / count if count else 0.0

    self_by_name = tracer.self_times()
    self_by_layer = tracer.layer_self_times()

    select_calls, select_s = tracer.inclusive("selection.select")
    read_calls, read_s = tracer.inclusive("silicon.read")
    match_calls, match_s = tracer.inclusive("codebook.match_packed")
    sync_calls, sync_s = tracer.inclusive("codebook.sync")
    identify_calls, _ = tracer.inclusive("server.identify_many")
    chunk_calls, _ = tracer.inclusive("engine.chunk")
    soft_calls, soft_s = tracer.inclusive("engine.soft_counts")
    parity_calls, _ = tracer.inclusive("crp.parity")
    enroll_calls, enroll_s = tracer.inclusive("enroll.enroll_chip")
    digest_s = self_by_name.get("audit.digests", 0.0)
    mutation_calls, mutation_s = tracer.inclusive(
        "server.register", "server.retighten", "server.revoke"
    )
    batches = counters["frontend.batches.paced"]
    waits = samples.get("frontend.queue_wait_s.paced", [])
    fits = samples.get("enroll.fit_s", [])
    # Coverage is judged where the program is never idle: the saturated
    # phase of the front-end workloads, the whole run otherwise.
    window = tracer.phase_window("saturated")
    if window is None:
        covered = per(sum(self_by_layer.values()), wall)
    else:
        covered = per(sum(tracer.self_times(*window).values()), window[1] - window[0])

    metrics = {
        "selection.ms_per_call": (per(select_s, select_calls, 1e3), "ms"),
        "selection.calls": (per(select_calls, ops), "count"),
        "selection.accept_ratio": (
            per(counters["selection.selected"], counters["crp.drawn"]), "frac"
        ),
        "silicon.read_ms_per_call": (per(read_s, read_calls, 1e3), "ms"),
        "silicon.challenges_per_read": (
            per(counters["silicon.challenges"], read_calls), "count"
        ),
        "codebook.match_ms_per_batch": (per(match_s, match_calls, 1e3), "ms"),
        "codebook.rows_scored": (per(counters["codebook.rows_scored"], ops), "count"),
        "server.identify_self_ms": (
            per(self_by_name.get("server.identify_many", 0.0), identify_calls, 1e3),
            "ms",
        ),
        "codebook.sync_ms": (per(sync_s, sync_calls, 1e3), "ms"),
        "codebook.rows_rebuilt": (
            per(counters["codebook.rows_rebuilt"], sync_calls), "count"
        ),
        "server.mutation_ms": (per(mutation_s, mutation_calls, 1e3), "ms"),
        "frontend.queue_wait_p50_ms": (_percentile(waits, 50) * 1e3, "ms"),
        "frontend.queue_wait_p99_ms": (_percentile(waits, 99) * 1e3, "ms"),
        "frontend.batch_mean": (
            per(counters["frontend.requests.paced"], batches), "count"
        ),
        "frontend.runs_per_batch": (per(counters["frontend.runs.paced"], batches), "count"),
        "frontend.shed": (shed, "count"),
        "service.self_ms_per_req": (per(self_by_layer["service"], ops, 1e3), "ms"),
        "budget.reserve_us_per_req": (per(self_by_layer["budget"], ops, 1e6), "us"),
        "audit.append_us_per_event": (
            per(self_by_name.get("audit.append", 0.0), counters["audit.events"], 1e6),
            "us",
        ),
        "audit.digest_us_per_req": (per(digest_s, ops, 1e6), "us"),
        "audit.events": (per(counters["audit.events"], ops), "count"),
        "engine.ms_per_mcrp": (per(soft_s, counters["engine.crps"], 1e9), "ms"),
        "engine.chunks": (per(chunk_calls, soft_calls), "count"),
        "engine.retries": (counters["engine.retries"], "count"),
        "crp.parity_ms": (
            per(self_by_name.get("crp.parity", 0.0), parity_calls, 1e3), "ms"
        ),
        "crp.parity_bytes": (per(counters["crp.parity_bytes"], ops), "B"),
        "enroll.ms_per_chip": (per(enroll_s, enroll_calls, 1e3), "ms"),
        "enroll.regression_fit_ms": (per(sum(fits), len(fits), 1e3), "ms"),
        "load.late_p99_ms": (_percentile(outcome.late_ms, 99), "ms"),
        "trace.overhead_frac": (1.0 - outcome.ops_per_s / baseline.ops_per_s, "frac"),
        "trace.covered_frac": (covered, "frac"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = (per(self_by_layer[layer], wall), "frac")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_threads()
    _one_malloc_arena()
    for path in (ROOT / "src", Path(__file__).resolve().parent):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    # Set up several times: setup_s is the median.  An untraced run keeps
    # one state at a time, so peak_rss_mb is that of one state; a traced
    # run keeps two identical ones, the first to time the untraced
    # baseline on.
    keep = 2 if args.trace else 1
    states, setup_times = [], []
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_CAP
    ):
        while len(states) >= keep:
            workload.close(states.pop(0))
        gc.collect()  # free a dropped state before the next is built
        start = time.perf_counter()
        states.append(workload.setup(args.seed))
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(setup_times)
    try:
        if args.trace:
            for state in states:
                workload.warm(state)
            _freeze_heap()
            baseline = workload.run(states[0], args.seconds / 2)
            tracer = Tracer()
            with tracer:
                start = time.perf_counter()
                outcome = workload.run(states[1], args.seconds / 2, tracer)
                wall = time.perf_counter() - start
            shed = states[1]["frontend"].stats["shed"] if "frontend" in states[1] else 0
            metrics = per_layer(tracer, outcome, baseline, wall, shed)
            trace_path = tracer.dump(
                TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            )
            outcomes = [baseline, outcome]
        else:
            workload.warm(states[0])
            _freeze_heap()
            outcome = workload.run(states[0], args.seconds)
            metrics = end_to_end(outcome, setup_s)
            outcomes = [outcome]
    finally:
        for state in states:
            workload.close(state)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    checks = {}
    for o in outcomes:
        for name, ok in o.checks.items():
            checks[name] = checks.get(name, True) and ok
    correct = failed == 0 and all(checks.values())

    print("env " + json.dumps(_environment()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: setups {[round(t, 3) for t in setup_times]} s")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"error_frac {failed / max(attempted, 1):.6f} "
          f"({failed} failed / {attempted} attempted)")
    if args.trace:
        print(f"absent hooks: {tracer.absent or 'none'}; spans -> {trace_path}")
    else:
        # p99 is shown, not gated: on a shared 2-core host it follows the
        # host's stalls far more than the program (see README).
        print(f"latency samples {len(outcome.latencies_ms)}, "
              f"p99 {_percentile(outcome.latencies_ms, 99):.4g} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
