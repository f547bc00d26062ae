"""Serving throughput under concurrent clients via the batching front end.

Concurrent ``identify`` traffic should not be served one blocking
request at a time: the micro-batching front end coalesces whatever
transcripts have arrived into single packed XOR + popcount passes.
This benchmark measures that path in absolute numbers:

* C client threads each submit captured transcripts back to back
  through :class:`BatchingFrontend` (blocking ``frontend.identify``
  calls, no think time), sweeping C and the batching policy (adaptive
  flush vs. fixed dwell);
* verifies bit-identity first: every transcript's concurrent verdict
  (chip id, match fraction) must equal its per-request verdict;
* records per-request latency percentiles (p50/p95/p99 via
  ``sample_stats``) and the front end's mean batch alongside
  throughput, and gates on the front end's identifies/sec at the
  tier's client count under the adaptive policy.

Run it via pytest or the matrix CLI::

    pytest benchmarks/bench_serve_concurrency.py           # smoke-sized
    repro-puf bench run serve_concurrency --tier smoke
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Sequence

import numpy as np
from bench_identify_scale import N_CHALLENGES, _ReplayResponder, build_population

from repro.bench import format_row, matrix, run_for_test, sample_stats
from repro.service import (
    AuthenticationService,
    BatchingFrontend,
    FrontendConfig,
    ServiceConfig,
)

#: Batching policies swept per client count.
POLICIES = (
    {"name": "adaptive", "adaptive_flush": True, "max_wait_us": 0.0},
    {"name": "dwell200us", "adaptive_flush": False, "max_wait_us": 200.0},
)


def build_serving(n_identities: int, seed: int = 600):
    """A service over an alias-scaled population plus reusable transcripts.

    The replay transcripts are stateless (one stored response array
    each), so client threads can share them safely -- exactly the
    deployment picture where the transcript arrives *with* the request.
    """
    server, lot = build_population(n_identities, seed=seed)
    book = server.codebook(N_CHALLENGES, seed=700)
    replays = [
        _ReplayResponder(
            book.stacked_challenges,
            np.asarray(chip.xor_response(book.stacked_challenges)),
        )
        for chip in lot
    ]
    # The service identifies against the codebook above, so it passes
    # the same seed.
    service = AuthenticationService(
        server, ServiceConfig(n_challenges=N_CHALLENGES), seed=700
    )
    service.identify_many([replays[0]])  # warm codebook + allocator
    return service, replays


def check_bit_identity(service, replays) -> int:
    """Concurrent verdicts must equal per-request verdicts, transcript
    for transcript.  Returns the number of verdicts compared."""
    expected = {
        index: service.identify_many([replay])[0]
        for index, replay in enumerate(replays)
    }
    with BatchingFrontend(
        service, FrontendConfig(max_batch=len(replays), max_pending=64)
    ) as frontend:
        futures = [
            (index % len(replays), frontend.submit_identify(replays[index % len(replays)]))
            for index in range(4 * len(replays))
        ]
        for index, future in futures:
            got = future.result()
            want = expected[index]
            if (got.chip_id, got.match_fraction) != (
                want.chip_id, want.match_fraction
            ):
                raise AssertionError(
                    f"concurrent verdict diverged for transcript {index}: "
                    f"{got} != {want}"
                )
    return len(futures)


def measure_concurrent(
    service,
    replays,
    clients: int,
    total_requests: int,
    policy: Dict[str, object],
) -> Dict[str, object]:
    """C client threads submitting back to back, one batching policy."""
    per_client = max(1, total_requests // clients)
    config = FrontendConfig(
        max_batch=clients,
        max_pending=max(4 * clients, 64),
        adaptive_flush=bool(policy["adaptive_flush"]),
        max_wait_us=float(policy["max_wait_us"]),
    )
    latencies: List[float] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    with BatchingFrontend(service, config) as frontend:
        frontend.identify(replays[0])  # warm the loop thread

        def run_client(worker: int) -> None:
            mine: List[float] = []
            try:
                for j in range(per_client):
                    t0 = time.perf_counter()
                    frontend.identify(
                        replays[(worker * per_client + j) % len(replays)]
                    )
                    mine.append(time.perf_counter() - t0)
            except BaseException as exc:  # surface, don't hang the join
                with lock:
                    errors.append(exc)
            with lock:
                latencies.extend(mine)

        threads = [
            threading.Thread(target=run_client, args=(worker,), daemon=True)
            for worker in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        stats = frontend.stats
    if errors:
        raise errors[0]
    served = clients * per_client
    return {
        "clients": clients,
        "policy": str(policy["name"]),
        "requests": served,
        "wall_seconds": wall,
        "requests_per_sec": served / wall,
        "latency_ms": sample_stats([v * 1e3 for v in latencies]),
        "frontend": stats,
    }


def measure_matrix(
    n_identities: int,
    clients_sweep: Sequence[int],
    total_requests: int,
    gate_clients: int,
) -> Dict[str, object]:
    """Bit-identity check, then the clients x policy sweep.

    ``gate_identifies_per_sec`` -- front-end throughput at
    *gate_clients* under the adaptive policy -- is the cell's gated
    metric.
    """
    service, replays = build_serving(n_identities)
    compared = check_bit_identity(service, replays)
    series = [
        measure_concurrent(service, replays, clients, total_requests, policy)
        for clients in clients_sweep
        for policy in POLICIES
    ]
    gate = next(
        entry for entry in series
        if entry["clients"] == gate_clients and entry["policy"] == "adaptive"
    )
    return {
        "shape": (
            f"{n_identities} identities, {N_CHALLENGES} challenges/identity, "
            f"clients submit back to back"
        ),
        "n_identities": n_identities,
        "clients_sweep": list(clients_sweep),
        "bit_identity_compared": compared,
        "series": series,
        "gate_clients": gate_clients,
        "gate_identifies_per_sec": gate["requests_per_sec"],
        "gate_p99_latency_ms": gate["latency_ms"]["p99"],
    }


@matrix.cell(
    "serve_concurrency",
    title="Throughput -- concurrent clients through the batching front end",
    tiers={
        "smoke": {"n_identities": 500, "clients": [8], "total": 800,
                  "gate_clients": 8},
        "laptop": {"n_identities": 10_000, "clients": [16, 64],
                   "total": 1024, "gate_clients": 64},
        "paper": {"n_identities": 10_000, "clients": [16, 64, 128],
                  "total": 2048, "gate_clients": 64},
    },
    metric="gate_identifies_per_sec",
    unit="ids/s",
    direction="higher",
    trajectory=True,
    gated=True,
    warmup=0,  # build_serving / measure_concurrent warm internally
)
def serve_concurrency_cell(ctx):
    return measure_matrix(
        ctx.params["n_identities"],
        ctx.params["clients"],
        ctx.params["total"],
        ctx.params["gate_clients"],
    )


def _series_lines(payload: Dict[str, object]) -> List[str]:
    lines = [
        f"  bit identity: {payload['bit_identity_compared']} concurrent "
        f"verdicts == per-request verdicts",
    ]
    for entry in payload["series"]:
        lines.append(
            f"  {entry['clients']:>3} clients [{entry['policy']:<10}]: "
            f"{entry['requests_per_sec']:>8.1f}/s   p50 "
            f"{entry['latency_ms']['p50']:>6.2f}ms   p99 "
            f"{entry['latency_ms']['p99']:>6.2f}ms   mean batch "
            f"{entry['frontend']['mean_batch']:>5.1f}"
        )
    return lines


def test_serve_concurrency_smoke(capsys):
    """Pytest entry: bit-identity + front-end throughput at smoke scale."""
    run = run_for_test("serve_concurrency", capsys, report=lambda r: [
        *_series_lines(r.payload),
        format_row(
            f"identifies/s @ {r.payload['gate_clients']} clients",
            "--",
            f"{r.payload['gate_identifies_per_sec']:.0f}/s",
        ),
    ])
    assert run.payload["gate_identifies_per_sec"] > 0
