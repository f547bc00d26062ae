"""Identification throughput vs enrolled-population size.

The codebook data plane's pitch is that 1:N identification stops being
a per-call selector sweep (O(N) linear-regression rejection loops) and
becomes one stacked device read plus one XOR + popcount pass over a
bit-packed matrix.  This benchmark pins that claim:

* sweeps N enrolled identities (base chips alias-replicated, so
  scaling N costs registrations, not enrollments) -- N={100} at the
  smoke tier, up to N={10, 100, 1000, 10000} at the paper tier;
* times the dense plane (per-call selection on fresh seeds) against
  the codebook plane (synced once, then pure matching);
* times the codebook plane on *transcripts*: its challenge blocks are
  static, so a device's answers can be captured ahead of the serving
  call and the server's job is resolving them -- whereas the dense
  plane invents fresh blocks per call and must block on a live device
  read.  The simulated silicon read is also reported separately
  (``device_read_seconds``), so the end-to-end cost of either plane is
  reconstructible from the series;
* verifies bit-identity on a fixed-seed regression corpus: twin chips
  answer both planes from the same noise-stream position, and every
  per-identity score must match exactly;
* records the ``identify_scale`` matrix cell (gated metric: the
  codebook-vs-dense speedup at the tier's gate population) into
  ``BENCH_throughput.json`` and asserts the acceptance floors (>= 5x
  at N=100 in smoke mode, >= 50x at N=1000 in the full sweep).

Runs standalone (CI back-compat), under pytest, or via the matrix CLI::

    python benchmarks/bench_identify_scale.py --smoke
    python benchmarks/bench_identify_scale.py            # full sweep
    pytest benchmarks/bench_identify_scale.py            # smoke-sized
    repro-puf bench run identify_scale --tier smoke
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.enrollment import enroll_chip
from repro.core.server import AuthenticationServer
from repro.silicon.chip import PufChip, fabricate_lot

if str(Path(__file__).parent) not in sys.path:  # standalone execution
    sys.path.insert(0, str(Path(__file__).parent))

from repro.bench import (
    format_row,
    matrix,
    record_result,
    run_cell,
    run_for_test,
    save_results,
)

N_STAGES = 32
N_PUFS = 3
N_CHALLENGES = 64
#: Distinct silicon instances; larger populations alias their records.
N_BASE_CHIPS = 8

#: Acceptance floors (ISSUE 5): the codebook plane must beat the dense
#: plane by these factors at the stated population sizes.
MIN_SPEEDUP_SMOKE_N100 = 5.0
MIN_SPEEDUP_FULL_N1000 = 50.0

#: Population sweep of the full run and per-N timing repetitions
#: (dense reps shrink as N grows -- one dense call at N=10000 is
#: already seconds of selector work).
FULL_SWEEP = (10, 100, 1000, 10_000)
DENSE_REPS = {10: 10, 100: 5, 1000: 2, 10_000: 1}
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


def measure(n_identities: int, dense_reps: int, book_reps: int) -> Dict[str, float]:
    """One population size: build, verify, time both planes."""
    server, lot = build_population(n_identities)
    probe = lot[0]

    build_start = time.perf_counter()
    book = server.codebook(N_CHALLENGES, seed=700)
    build_seconds = time.perf_counter() - build_start
    assert len(book) == n_identities

    # One live read of the stacked codebook query: reported separately
    # (it is the device's cost, identical for both planes and for any
    # transport) and reused as the codebook plane's transcript.
    read_start = time.perf_counter()
    transcript = np.asarray(probe.xor_response(book.stacked_challenges))
    t_read = time.perf_counter() - read_start
    replay = _ReplayResponder(book.stacked_challenges, transcript)

    # Warm both planes once (allocator, kernel backend, device noise).
    server.identify(replay, n_challenges=N_CHALLENGES, use_codebook=True)
    server.identify(
        probe, n_challenges=N_CHALLENGES, use_codebook=False, seed=999_999
    )

    start = time.perf_counter()
    for _ in range(book_reps):
        server.identify(replay, n_challenges=N_CHALLENGES, use_codebook=True)
    t_book = (time.perf_counter() - start) / book_reps

    # Dense reps use a fresh seed each call: the plane invents fresh
    # blocks per request, so it *must* block on a live device read.
    start = time.perf_counter()
    for rep in range(dense_reps):
        server.identify(
            probe, n_challenges=N_CHALLENGES, use_codebook=False, seed=800 + rep
        )
    t_dense = (time.perf_counter() - start) / dense_reps

    # The genuine transcript must clear the match threshold.
    result = server.identify(replay, n_challenges=N_CHALLENGES)
    assert result.chip_id is not None and result.match_fraction > 0.95

    # Batched amortization: many transcripts, one matching pass.
    batch = [replay] * 16
    start = time.perf_counter()
    server.identify_many(batch, n_challenges=N_CHALLENGES)
    t_batch = (time.perf_counter() - start) / len(batch)

    return {
        "n_identities": n_identities,
        "codebook_build_seconds": build_seconds,
        "device_read_seconds": t_read,
        "dense_seconds_per_identify": t_dense,
        "codebook_seconds_per_identify": t_book,
        "batched_seconds_per_identify": t_batch,
        "dense_identifies_per_sec": 1.0 / t_dense,
        "codebook_identifies_per_sec": 1.0 / t_book,
        "batched_identifies_per_sec": 1.0 / t_batch,
        "speedup": t_dense / t_book,
    }


def check_regression_corpus() -> int:
    """Bit-identity of the two planes on a fixed-seed corpus.

    Twin chips fabricated from one seed share noise streams, so the
    dense and codebook planes observe identical device answers; every
    per-identity score must then be *exactly* equal (same integers,
    same float64 division).  Returns the number of scores compared.
    """
    server, _ = build_population(N_BASE_CHIPS, seed=650)
    compared = 0
    for chip_index in range(3):
        twin_a = fabricate_lot(N_PUFS, N_PUFS, N_STAGES, seed=650)[chip_index]
        twin_b = fabricate_lot(N_PUFS, N_PUFS, N_STAGES, seed=650)[chip_index]
        dense = server.identify(
            twin_a, n_challenges=N_CHALLENGES, seed=700,
            use_codebook=False, return_scores=True,
        )
        packed = server.identify(
            twin_b, n_challenges=N_CHALLENGES, seed=700,
            use_codebook=True, return_scores=True,
        )
        if dense.scores != packed.scores:
            raise AssertionError(
                f"dense and codebook scores diverged for probe {chip_index}: "
                f"{dense.scores} != {packed.scores}"
            )
        if (dense.chip_id, dense.match_fraction) != (
            packed.chip_id, packed.match_fraction
        ):
            raise AssertionError(
                f"verdicts diverged for probe {chip_index}: "
                f"{dense} != {packed}"
            )
        compared += len(dense.scores)
    return compared


def measure_sweep(sweep: Sequence[int], gate_n: int) -> Dict[str, object]:
    """Verify bit-identity, measure every population size in *sweep*.

    The payload's ``gate_speedup`` (the codebook-vs-dense speedup at
    ``gate_n``) is the cell's gated metric -- a machine-portable ratio.
    """
    compared = check_regression_corpus()
    series = [
        measure(
            n_identities,
            DENSE_REPS.get(n_identities, 3),
            BOOK_REPS.get(n_identities, 30),
        )
        for n_identities in sweep
    ]
    by_n = {int(entry["n_identities"]): entry for entry in series}
    return {
        "shape": (
            f"{N_BASE_CHIPS} base chips alias-scaled, "
            f"{N_CHALLENGES} challenges/identity"
        ),
        "sweep": list(sweep),
        "gate_n": gate_n,
        "gate_speedup": by_n[gate_n]["speedup"],
        "regression_scores_compared": compared,
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
    metric="gate_speedup",
    unit="x",
    direction="higher",
    trajectory=True,
    gated=True,
    warmup=0,  # each measure() warms both planes internally
)
def identify_scale_cell(ctx):
    return measure_sweep(ctx.params["sweep"], ctx.params["gate_n"])


def _series_lines(payload: Dict[str, object]) -> List[str]:
    lines = [
        f"  regression corpus: {payload['regression_scores_compared']} "
        f"scores bit-identical across planes",
    ]
    for entry in payload["series"]:
        lines.append(
            f"  N={entry['n_identities']:>6}: dense "
            f"{entry['dense_identifies_per_sec']:>10.1f}/s   codebook "
            f"{entry['codebook_identifies_per_sec']:>10.1f}/s   batched "
            f"{entry['batched_identifies_per_sec']:>10.1f}/s   "
            f"speedup {entry['speedup']:>7.1f}x"
        )
    return lines


def _check_floor(payload: Dict[str, object], smoke: bool) -> None:
    by_n = {int(entry["n_identities"]): entry for entry in payload["series"]}
    if smoke:
        speedup = by_n[100]["speedup"]
        if speedup < MIN_SPEEDUP_SMOKE_N100:
            raise AssertionError(
                f"codebook identify at N=100 is only {speedup:.1f}x the "
                f"dense plane (floor {MIN_SPEEDUP_SMOKE_N100:.0f}x)"
            )
    elif 1000 in by_n:
        speedup = by_n[1000]["speedup"]
        if speedup < MIN_SPEEDUP_FULL_N1000:
            raise AssertionError(
                f"codebook identify at N=1000 is only {speedup:.1f}x the "
                f"dense plane (floor {MIN_SPEEDUP_FULL_N1000:.0f}x)"
            )


def test_identify_scale_smoke(capsys):
    """Pytest entry: the smoke cell with its 5x floor."""
    run = run_for_test("identify_scale", capsys, report=lambda r: [
        *_series_lines(r.payload),
        format_row(
            f"speedup @ N={r.payload['gate_n']}",
            f">= {MIN_SPEEDUP_SMOKE_N100:.0f}x",
            f"{r.payload['gate_speedup']:.1f}x",
        ),
    ])
    assert run.payload["gate_speedup"] >= MIN_SPEEDUP_SMOKE_N100


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="identification throughput vs enrolled-population size"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"N=100 only, enforce the {MIN_SPEEDUP_SMOKE_N100:.0f}x floor "
             "(the CI perf gate)",
    )
    parser.add_argument(
        "--ns", type=int, nargs="+", default=None,
        help=f"population sizes to sweep (default {list(FULL_SWEEP)})",
    )
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            run = run_cell(matrix.get("identify_scale"), tier="smoke", samples=1)
            record_result(run)
            payload = run.payload
        else:
            sweep = args.ns or list(FULL_SWEEP)
            payload = measure_sweep(sweep, 1000 if 1000 in sweep else sweep[-1])
            save_results("identify_scale", payload)
        for line in _series_lines(payload):
            print(line.strip())
        _check_floor(payload, smoke=args.smoke)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("identification throughput floors met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
