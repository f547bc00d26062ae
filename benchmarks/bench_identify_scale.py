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
here.  Run it via pytest or the matrix CLI::

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
