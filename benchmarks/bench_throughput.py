"""Throughput of the chunked evaluation engine.

Two matrix cells; ``repro-puf bench run`` merges both into
``BENCH_throughput.json`` at the repo root:

* **soft_sweep** -- the Fig. 3 paper shape (10-input XOR PUF, one
  shared challenge set, T = 100 000 counters) through
  :meth:`EvaluationEngine.soft_responses`; the gated metric is the
  engine's absolute CRPs/sec.
* **enrollment** -- the full Fig.-6 flow through the grid campaigns
  (absolute CRPs/sec, trajectory-only).
"""

from __future__ import annotations

import time

from repro.bench import best_of, format_row, matrix, run_for_test
from repro.core.enrollment import enroll_chip
from repro.crp.challenges import random_challenges
from repro.engine import EvaluationEngine
from repro.silicon.chip import PufChip
from repro.silicon.noise import PAPER_N_TRIALS
from repro.silicon.xorpuf import XorArbiterPuf

N_STAGES = 32
N_PUFS = 10


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


@matrix.cell(
    "soft_sweep",
    title="Throughput -- Fig. 3 soft-response sweep",
    tiers={
        "smoke": {"n_challenges": 50_000},
        "laptop": {"n_challenges": 200_000},
        "paper": {"n_challenges": 1_000_000},
    },
    metric="engine_crps_per_sec",
    unit="crps/s",
    direction="higher",
    trajectory=True,
    gated=True,
    warmup=0,  # the body warms the engine internally on 1000 challenges
)
def soft_sweep_cell(ctx):
    n_challenges = ctx.params["n_challenges"]
    xor_puf = XorArbiterPuf.create(N_PUFS, N_STAGES, seed=500)
    challenges = random_challenges(n_challenges, N_STAGES, seed=501)
    engine = EvaluationEngine(jobs=ctx.jobs, chunk_size=ctx.chunk_size or 65_536)
    n_crps = n_challenges * N_PUFS

    # Warm imports and BLAS thread pools; the best of three
    # full sweeps also leaves the allocator warm.
    engine.soft_responses(xor_puf.pufs, challenges[:1000], PAPER_N_TRIALS, seed=0)
    t_engine = best_of(
        lambda: engine.soft_responses(
            xor_puf.pufs, challenges, PAPER_N_TRIALS, seed=502
        ),
        repeats=3,
    )
    return {
        "shape": f"{N_PUFS} PUFs x {n_challenges} shared challenges, T={PAPER_N_TRIALS}",
        "jobs": engine.jobs,
        "chunk_size": engine.chunk_size,
        "engine_seconds": t_engine,
        "engine_crps_per_sec": n_crps / t_engine,
        "n_crps": n_crps,
    }


@matrix.cell(
    "enrollment",
    title="Throughput -- enrollment (Fig. 6 flow)",
    tiers={
        "smoke": {"n_enroll": 1000, "n_validation": 2500},
        "laptop": {"n_enroll": 2000, "n_validation": 5000},
        "paper": {"n_enroll": 5000, "n_validation": 20_000},
    },
    metric="crps_per_sec",
    unit="crps/s",
    direction="higher",
    trajectory=True,
)
def enrollment_cell(ctx):
    n_enroll = ctx.params["n_enroll"]
    n_validation = ctx.params["n_validation"]
    n_pufs = 4
    chip = PufChip.create(n_pufs, N_STAGES, seed=510, chip_id="bench")
    _, elapsed = _timed(
        enroll_chip,
        chip,
        n_enroll_challenges=n_enroll,
        n_validation_challenges=n_validation,
        n_trials=PAPER_N_TRIALS,
        jobs=ctx.jobs,
        chunk_size=ctx.chunk_size,
        seed=511,
    )
    n_crps = n_pufs * (n_enroll + n_validation)  # nominal-only validation
    return {
        "shape": f"{n_pufs} PUFs, {n_enroll} train + {n_validation} validation, T={PAPER_N_TRIALS}",
        "jobs": ctx.jobs,
        "seconds": elapsed,
        "measured_crps": n_crps,
        "crps_per_sec": n_crps / elapsed,
    }


def test_throughput_soft_sweep(capsys):
    run = run_for_test("soft_sweep", capsys, report=lambda r: [
        f"  {r.payload['shape']}, jobs={r.payload['jobs']}, "
        f"backend={r.context.backend}",
        format_row("engine", "--",
                   f"{r.payload['engine_crps_per_sec'] / 1e6:.2f} M CRP/s"),
    ])
    assert run.payload["engine_crps_per_sec"] > 0


def test_throughput_enrollment(capsys):
    run = run_for_test("enrollment", capsys, report=lambda r: [
        f"  {r.payload['shape']}",
        format_row("enrollment", "--",
                   f"{r.payload['crps_per_sec'] / 1e3:.0f} k CRP/s"),
    ])
    assert run.payload["crps_per_sec"] > 0
