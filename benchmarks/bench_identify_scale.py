"""Identification throughput vs enrolled-population size.

The codebook data plane turns 1:N identification into one stacked
device read plus one XOR + popcount pass over a bit-packed matrix.
This benchmark measures that plane in absolute numbers:

* sweeps N enrolled identities (base chips alias-replicated, so
  scaling N costs registrations, not enrollments) -- N={100} at the
  smoke tier, up to N={10, 100, 1000, 10000} at the paper tier;
* times ``identify`` on *transcripts*: the codebook's challenge blocks
  are static, so a device's answers can be captured ahead of the
  serving call and the server's job is resolving them.  The one-time
  codebook build and the simulated silicon read of the stacked query
  are reported separately (``codebook_build_seconds``,
  ``device_read_seconds``), as is the per-request cost inside a
  16-transcript ``identify_many`` batch;
* records the ``identify_scale`` matrix cell (gated metric: transcript
  identifies/sec at the tier's gate population) into
  ``BENCH_throughput.json``.

The codebook scores' bit-identity with the dense per-identity plane
is pinned by the test suite (``tests/core/test_codebook.py``), not
here.  A second cell, ``identify_sharded``, runs the same transcripts
through the supervised shard fleet.  Run either via pytest or the
matrix CLI::

    pytest benchmarks/bench_identify_scale.py            # smoke-sized
    repro-puf bench run identify_scale --tier smoke
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench import best_of, format_row, matrix, run_for_test
from repro.core.enrollment import enroll_chip
from repro.core.server import AuthenticationServer
from repro.silicon.chip import PufChip, fabricate_lot

N_STAGES = 32
N_PUFS = 3
N_CHALLENGES = 64
#: Distinct silicon instances; larger populations alias their records.
N_BASE_CHIPS = 8

#: Population sweep of the full run and per-N timing repetitions.
FULL_SWEEP = (10, 100, 1000, 10_000)
BOOK_REPS = {10: 200, 100: 100, 1000: 20, 10_000: 5}


def build_population(
    n_identities: int, seed: int = 600
) -> Tuple[AuthenticationServer, List[PufChip]]:
    """A server with *n_identities* enrolled rows over 8 real chips.

    Enrollment cost is O(base chips); the population is scaled by
    aliasing each base record under ``id-%05d`` identities (a record is
    a frozen value object, so an alias shares everything but the id).
    Each alias still gets its *own* identification block -- selection
    streams derive from the chip id -- so codebook size and matching
    work scale honestly with N.
    """
    lot = fabricate_lot(
        min(N_BASE_CHIPS, n_identities), N_PUFS, N_STAGES, seed=seed
    )
    records = [
        enroll_chip(
            chip,
            n_enroll_challenges=1200,
            n_validation_challenges=5000,
            seed=seed + 1 + index,
        )
        for index, chip in enumerate(lot)
    ]
    server = AuthenticationServer()
    for index in range(n_identities):
        server.register(
            dataclasses.replace(
                records[index % len(records)], chip_id=f"id-{index:05d}"
            )
        )
    return server, lot


class _ReplayResponder:
    """A captured transcript standing in for the live device.

    The codebook's challenge blocks are static, so in a deployment the
    device's answers arrive *with* the identification request (captured
    by a reader, streamed over the radio, etc.).  This responder models
    exactly that: the server's per-request work is resolving the
    transcript, not waiting on silicon.
    """

    def __init__(self, expected_challenges: np.ndarray, responses: np.ndarray):
        self._shape = expected_challenges.shape
        self._responses = responses

    def xor_response(self, challenges, condition=None):
        if challenges.shape != self._shape:
            raise AssertionError(
                f"transcript answers challenges of shape {self._shape}, "
                f"server sent {challenges.shape}"
            )
        return self._responses


def measure(n_identities: int, book_reps: int) -> Dict[str, float]:
    """One population size: build the codebook, time transcript identifies."""
    server, lot = build_population(n_identities)
    probe = lot[0]

    build_start = time.perf_counter()
    book = server.codebook(N_CHALLENGES, seed=700)
    build_seconds = time.perf_counter() - build_start
    assert len(book) == n_identities

    # One live read of the stacked codebook query: reported separately
    # (it is the device's cost, identical for any transport) and reused
    # as the transcript every timed request resolves.
    read_start = time.perf_counter()
    transcript = np.asarray(probe.xor_response(book.stacked_challenges))
    t_read = time.perf_counter() - read_start
    replay = _ReplayResponder(book.stacked_challenges, transcript)

    # Warm the allocator and kernel backend; the genuine transcript
    # must clear the match threshold.
    result = server.identify(replay, n_challenges=N_CHALLENGES)
    assert result.chip_id is not None and result.match_fraction > 0.95

    t_book = best_of(
        lambda: [
            server.identify(replay, n_challenges=N_CHALLENGES)
            for _ in range(book_reps)
        ],
        repeats=5,
    ) / book_reps

    # Batched amortization: many transcripts, one matching pass.
    batch = [replay] * 16
    start = time.perf_counter()
    server.identify_many(batch, n_challenges=N_CHALLENGES)
    t_batch = (time.perf_counter() - start) / len(batch)

    return {
        "n_identities": n_identities,
        "codebook_build_seconds": build_seconds,
        "device_read_seconds": t_read,
        "codebook_seconds_per_identify": t_book,
        "batched_seconds_per_identify": t_batch,
        "codebook_identifies_per_sec": 1.0 / t_book,
        "batched_identifies_per_sec": 1.0 / t_batch,
    }


def measure_sweep(sweep: Sequence[int], gate_n: int) -> Dict[str, object]:
    """Measure every population size in *sweep*.

    The payload's ``gate_identifies_per_sec`` (transcript identifies
    per second at ``gate_n``) is the cell's gated metric.
    """
    series = [measure(n, BOOK_REPS.get(n, 30)) for n in sweep]
    by_n = {int(entry["n_identities"]): entry for entry in series}
    return {
        "shape": (
            f"{N_BASE_CHIPS} base chips alias-scaled, "
            f"{N_CHALLENGES} challenges/identity"
        ),
        "sweep": list(sweep),
        "gate_n": gate_n,
        "gate_identifies_per_sec": by_n[gate_n]["codebook_identifies_per_sec"],
        "series": series,
    }


#: Timing repetitions for the sharded plane (each rep is a full batch).
SHARDED_REPS = {100: 20, 1000: 10, 10_000: 3, 100_000: 1}
SHARDED_BATCH = 16


def measure_sharded(
    n_identities: int, n_shards: int, batch_size: int = SHARDED_BATCH
) -> Dict[str, float]:
    """One population size through the supervised shard fleet.

    Spawns real worker processes (the production topology, not inline
    mode), verifies the merged batch is bit-identical to the
    single-process ``identify_many`` on the same transcripts, then
    times both paths.  The sharded plane pays per-request IPC --
    shipping packed query slices to workers and merging replies -- so
    its win over single-process serving only appears once per-shard
    scoring dominates; at small N this cell is an *overhead* gauge and
    the gated metric is simply sharded throughput staying put.
    """
    from repro.service.fleet import FleetConfig, ShardDispatcher

    server, lot = build_population(n_identities)
    book = server.codebook(N_CHALLENGES, seed=700)
    transcripts = [
        _ReplayResponder(
            book.stacked_challenges,
            np.asarray(chip.xor_response(book.stacked_challenges)),
        )
        for chip in lot
    ]
    replays = [transcripts[i % len(transcripts)] for i in range(batch_size)]
    reference = server.identify_many(replays, n_challenges=N_CHALLENGES)

    reps = SHARDED_REPS.get(n_identities, 3)
    config = FleetConfig(
        n_shards=n_shards,
        n_challenges=N_CHALLENGES,
        max_pending=max(64, batch_size),
        request_timeout=120.0,
    )
    with ShardDispatcher(server, config, seed=700) as dispatcher:
        merged = dispatcher.identify_many(replays)  # warm + verify
        for ref, got in zip(reference, merged):
            if (
                got.coverage != 1.0
                or ref.chip_id != got.chip_id
                or ref.match_fraction != got.match_fraction
            ):
                raise AssertionError(
                    f"sharded merge diverged at N={n_identities}: "
                    f"{ref} != {got}"
                )
        start = time.perf_counter()
        for _ in range(reps):
            dispatcher.identify_many(replays)
        t_sharded = (time.perf_counter() - start) / (reps * batch_size)

    start = time.perf_counter()
    for _ in range(reps):
        server.identify_many(replays, n_challenges=N_CHALLENGES)
    t_single = (time.perf_counter() - start) / (reps * batch_size)

    return {
        "n_identities": n_identities,
        "n_shards": n_shards,
        "batch_size": batch_size,
        "sharded_seconds_per_identify": t_sharded,
        "single_seconds_per_identify": t_single,
        "sharded_identifies_per_sec": 1.0 / t_sharded,
        "single_identifies_per_sec": 1.0 / t_single,
        "ipc_overhead_ratio": t_sharded / t_single,
    }


def measure_sharded_sweep(
    sweep: Sequence[int], n_shards: int, gate_n: int
) -> Dict[str, object]:
    """Sharded-vs-single series; gated on sharded throughput at *gate_n*."""
    series = [measure_sharded(n, n_shards) for n in sweep]
    by_n = {int(entry["n_identities"]): entry for entry in series}
    return {
        "shape": (
            f"{N_BASE_CHIPS} base chips alias-scaled, {n_shards} shards, "
            f"batches of {SHARDED_BATCH} transcripts"
        ),
        "sweep": list(sweep),
        "n_shards": n_shards,
        "gate_n": gate_n,
        "gate_sharded_per_sec": by_n[gate_n]["sharded_identifies_per_sec"],
        "series": series,
    }


@matrix.cell(
    "identify_sharded",
    title="Throughput -- supervised shard fleet vs single process",
    tiers={
        "smoke": {"sweep": [100], "gate_n": 100, "n_shards": 2},
        "laptop": {"sweep": [100, 1000, 10_000], "gate_n": 10_000,
                   "n_shards": 4},
        "paper": {"sweep": [1000, 10_000, 100_000], "gate_n": 100_000,
                  "n_shards": 8},
    },
    metric="gate_sharded_per_sec",
    unit="ids/s",
    direction="higher",
    trajectory=True,
    gated=True,
    warmup=0,  # measure_sharded warms (and verifies) internally
)
def identify_sharded_cell(ctx):
    return measure_sharded_sweep(
        ctx.params["sweep"], ctx.params["n_shards"], ctx.params["gate_n"]
    )


def test_identify_sharded_smoke(capsys):
    """Pytest entry: fleet bit-identity + throughput at smoke scale."""
    run = run_for_test("identify_sharded", capsys, report=lambda r: [
        f"  {entry['n_identities']:>6} ids x {entry['n_shards']} shards: "
        f"sharded {entry['sharded_identifies_per_sec']:>9.1f}/s   single "
        f"{entry['single_identifies_per_sec']:>9.1f}/s   ipc overhead "
        f"{entry['ipc_overhead_ratio']:>5.2f}x"
        for entry in r.payload["series"]
    ])
    assert run.payload["gate_sharded_per_sec"] > 0


@matrix.cell(
    "identify_scale",
    title="Throughput -- identification vs population size",
    tiers={
        "smoke": {"sweep": [100], "gate_n": 100},
        "laptop": {"sweep": [10, 100, 1000], "gate_n": 1000},
        "paper": {"sweep": list(FULL_SWEEP), "gate_n": 1000},
    },
    metric="gate_identifies_per_sec",
    unit="ids/s",
    direction="higher",
    trajectory=True,
    gated=True,
    warmup=0,  # each measure() warms the codebook plane internally
)
def identify_scale_cell(ctx):
    return measure_sweep(ctx.params["sweep"], ctx.params["gate_n"])


def _series_lines(payload: Dict[str, object]) -> List[str]:
    return [
        f"  N={entry['n_identities']:>6}: codebook "
        f"{entry['codebook_identifies_per_sec']:>10.1f}/s   batched "
        f"{entry['batched_identifies_per_sec']:>10.1f}/s   build "
        f"{entry['codebook_build_seconds']:>6.2f}s   device read "
        f"{entry['device_read_seconds'] * 1e3:>7.1f}ms"
        for entry in payload["series"]
    ]


def test_identify_scale_smoke(capsys):
    """Pytest entry: transcript identify throughput at smoke scale."""
    run = run_for_test("identify_scale", capsys, report=lambda r: [
        *_series_lines(r.payload),
        format_row(
            f"identifies/s @ N={r.payload['gate_n']}",
            "--",
            f"{r.payload['gate_identifies_per_sec']:.0f}/s",
        ),
    ])
    assert run.payload["gate_identifies_per_sec"] > 0
