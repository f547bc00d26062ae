"""Incremental codebook sync vs the global-epoch full sweep.

Before this PR, any database mutation bumped a global epoch and the
next codebook access revalidated *every* row (a fingerprint hash per
enrolled identity, O(N) per mutation).  The mutation journal makes the
sync touch only the rows that actually changed, so steady-state fleet
maintenance (a re-tighten here, a revocation there) costs O(changed).

The ``codebook_sync`` matrix cell pins that claim at population scale:

* builds one codebook over N synthetic enrollment records (real
  selection maths, millisecond construction -- population size is the
  variable, enrollment cost is not);
* replays a wave of single-chip mutations; after each, times the
  journal-driven incremental sync against the global-epoch baseline
  (the same sync with ``dirty=None``: a full fingerprint sweep),
  min-of-k per wave so OS scheduling noise is not billed to either path;
* reports the p99 of both distributions, asserts the tier's floor,
  verifies the two books stay bit-identical throughout, and merges the
  p99 speedup (the gated metric) into ``BENCH_throughput.json``.

Runs standalone (CI back-compat), under pytest, or via the matrix CLI::

    python benchmarks/bench_codebook_sync.py --smoke   # N=1000
    python benchmarks/bench_codebook_sync.py           # N=10000
    pytest benchmarks/bench_codebook_sync.py           # smoke-sized
    repro-puf bench run codebook_sync --tier smoke
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.adjustment import BetaFactors
from repro.core.codebook import IdentificationCodebook
from repro.core.enrollment import EnrollmentRecord
from repro.core.model import LinearPufModel, XorPufModel
from repro.core.server import AuthenticationServer
from repro.core.thresholds import ThresholdPair

if str(Path(__file__).parent) not in sys.path:  # standalone execution
    sys.path.insert(0, str(Path(__file__).parent))

from repro.bench import (
    format_row,
    matrix,
    record_result,
    run_cell,
    run_for_test,
)

N_STAGES = 32
N_XORS = 2
N_CHALLENGES = 64

#: Acceptance floors: p99 incremental sync must be at least this much
#: cheaper than the global-epoch full sweep after a mutation wave.  The
#: gap grows with N -- the sweep hashes every enrolled record while the
#: incremental path pays only the one changed row's rebuild -- so the
#: smoke population guards the mechanism and the full population
#: (N=10,000) carries the ISSUE's 10x acceptance gate.
MIN_P99_SPEEDUP_SMOKE = 1.5
MIN_P99_SPEEDUP_FULL = 10.0

SMOKE_N = 1000
FULL_N = 10_000
WAVES = 30
#: Timing repetitions per wave; each wave's sample is the min-of-k, so
#: a scheduler preemption or page-fault burst landing on one rep does
#: not masquerade as sync cost.  (The same chip is re-mutated each rep,
#: so every rep really does rebuild the row.)  Applied identically to
#: both paths.
REPS = 3


def synth_record(chip_id: str, seed: int) -> EnrollmentRecord:
    """A synthetic record with real selection maths, built in ~1 ms."""
    rng = np.random.default_rng(seed)
    models = [
        LinearPufModel(rng.normal(size=N_STAGES + 1)) for _ in range(N_XORS)
    ]
    return EnrollmentRecord(
        chip_id=chip_id,
        xor_model=XorPufModel(models),
        base_pairs=[ThresholdPair(0.4, 0.6)] * N_XORS,
        betas=BetaFactors(1.0, 1.0),
        n_trials=1000,
    )


def build_population(n_identities: int, seed: int = 900) -> AuthenticationServer:
    server = AuthenticationServer()
    for index in range(n_identities):
        server.register(synth_record(f"id-{index:05d}", seed + index))
    return server


def measure(n_identities: int, waves: int = WAVES) -> Dict[str, object]:
    """Build, mutate in waves, time incremental vs full-sweep sync."""
    server = build_population(n_identities)

    build_start = time.perf_counter()
    book = server.codebook(N_CHALLENGES, seed=901)
    build_seconds = time.perf_counter() - build_start

    # The baseline book models the pre-journal behaviour: same rows,
    # but every sync is a full fingerprint sweep (dirty=None).
    baseline = IdentificationCodebook(N_CHALLENGES, seed=901)
    baseline.sync(server._records, server.selector, revoked=server.revocations)

    incremental_times: List[float] = []
    baseline_times: List[float] = []
    chip_ids = server.active_ids

    # Warm-up wave (kernel backend load, allocator) --
    # excluded from the timing so p99 reflects steady-state maintenance.
    server.retighten(chip_ids[-1], 0.999, 1.001)
    server.codebook(N_CHALLENGES)
    baseline.sync(server._records, server.selector, revoked=server.revocations)

    # GC pauses land on whichever timer is running and would dominate
    # the p99 of the (fast) incremental path; collect between waves,
    # not inside the timed sections.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for wave in range(waves):
            target = chip_ids[(wave * 37) % len(chip_ids)]
            incremental_reps = []
            baseline_reps = []
            for _ in range(REPS):
                server.retighten(target, 0.999, 1.001)
                gc.collect()

                start = time.perf_counter()
                server.codebook(N_CHALLENGES)  # journal-driven incremental
                incremental_reps.append(time.perf_counter() - start)

                start = time.perf_counter()
                baseline.sync(
                    server._records, server.selector,
                    revoked=server.revocations,
                )
                baseline_reps.append(time.perf_counter() - start)
            incremental_times.append(min(incremental_reps))
            baseline_times.append(min(baseline_reps))
    finally:
        if gc_was_enabled:
            gc.enable()

    # Whatever the path, the bits must agree.
    if book.ids != baseline.ids:
        raise AssertionError("incremental and full-sweep row orders diverged")
    if not (book.packed_matrix == baseline.packed_matrix).all():
        raise AssertionError("incremental and full-sweep bits diverged")

    p99_incremental = float(np.percentile(incremental_times, 99))
    p99_baseline = float(np.percentile(baseline_times, 99))
    return {
        "n_identities": n_identities,
        "waves": waves,
        "timing_reps": REPS,
        "shape": (
            f"{N_XORS}-XOR synthetic records, {N_CHALLENGES} "
            f"challenges/identity, {waves} single-chip mutation waves"
        ),
        "codebook_build_seconds": build_seconds,
        "incremental_p50_seconds": float(np.median(incremental_times)),
        "incremental_p99_seconds": p99_incremental,
        "full_sweep_p50_seconds": float(np.median(baseline_times)),
        "full_sweep_p99_seconds": p99_baseline,
        "p99_speedup": p99_baseline / p99_incremental,
        "rows_rebuilt_per_wave": 1,
    }


@matrix.cell(
    "codebook_sync",
    title="Throughput -- incremental codebook sync",
    tiers={
        "smoke": {"n_identities": SMOKE_N, "waves": 15,
                  "floor": MIN_P99_SPEEDUP_SMOKE},
        "laptop": {"n_identities": SMOKE_N, "waves": WAVES,
                   "floor": MIN_P99_SPEEDUP_SMOKE},
        "paper": {"n_identities": FULL_N, "waves": WAVES,
                  "floor": MIN_P99_SPEEDUP_FULL},
    },
    metric="p99_speedup",
    unit="x",
    direction="higher",
    trajectory=True,
    gated=True,
    warmup=0,  # measure() runs its own warm-up wave
)
def codebook_sync_cell(ctx):
    payload = measure(ctx.params["n_identities"], ctx.params["waves"])
    payload["floor"] = ctx.params["floor"]
    return payload


def _summary_line(payload: Dict[str, object]) -> str:
    return (
        f"  N={payload['n_identities']}: build "
        f"{payload['codebook_build_seconds']:.2f}s, per-mutation sync p99 "
        f"{1e3 * payload['incremental_p99_seconds']:.2f} ms incremental vs "
        f"{1e3 * payload['full_sweep_p99_seconds']:.2f} ms full sweep "
        f"({payload['p99_speedup']:.1f}x)"
    )


def _check_floor(payload: Dict[str, object], floor: float) -> None:
    if payload["p99_speedup"] < floor:
        raise AssertionError(
            f"incremental sync p99 at N={payload['n_identities']} is only "
            f"{payload['p99_speedup']:.1f}x cheaper than the full sweep "
            f"(floor {floor:.1f}x)"
        )


def test_codebook_sync_smoke(capsys):
    """Pytest entry: the smoke-sized cell with its floor."""
    run = run_for_test("codebook_sync", capsys, report=lambda r: [
        _summary_line(r.payload),
        format_row(
            f"p99 speedup @ N={r.payload['n_identities']}",
            f">= {r.payload['floor']:.1f}x",
            f"{r.payload['p99_speedup']:.1f}x",
        ),
    ])
    _check_floor(run.payload, run.payload["floor"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="incremental codebook sync vs global-epoch full sweep"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"N={SMOKE_N} with the {MIN_P99_SPEEDUP_SMOKE:.1f}x floor "
             f"instead of N={FULL_N} with the "
             f"{MIN_P99_SPEEDUP_FULL:.0f}x floor (the CI gate)",
    )
    parser.add_argument("--n", type=int, default=None, help="population size")
    args = parser.parse_args(argv)
    try:
        if args.n is not None:
            floor = MIN_P99_SPEEDUP_SMOKE if args.smoke else MIN_P99_SPEEDUP_FULL
            payload = measure(args.n)
            payload["floor"] = floor
        else:
            tier = "smoke" if args.smoke else "paper"
            run = run_cell(matrix.get("codebook_sync"), tier=tier, samples=1)
            record_result(run)
            payload = run.payload
        print(_summary_line(payload).strip())
        _check_floor(payload, payload["floor"])
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("incremental sync floor met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
