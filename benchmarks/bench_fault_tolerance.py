"""Fault-tolerant runtime overhead and resume speedup.

Two questions a trillion-CRP campaign operator asks before turning
checkpointing on:

* **Overhead** -- how much does journalling every chunk (serialise +
  checksum + fsync + manifest rewrite) cost against the plain in-memory
  sweep?  Expected: low single-digit percent at default chunk size.
* **Resume payoff** -- when a sweep dies at X %% completion, how much of
  the original wall clock does the resumed run save?  Expected: roughly
  proportional to the journalled fraction.

``repro-puf bench run fault_tolerance`` records the results in
``benchmarks/results/fault_tolerance.json``.
"""

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench import format_row, matrix, run_for_test
from repro.crp.challenges import random_challenges
from repro.engine import EvaluationEngine
from repro.faults import FaultPlan, FaultSpec, InjectedCampaignAbort, Site
from repro.silicon.xorpuf import XorArbiterPuf

N_STAGES = 32
N_PUFS = 4
N_TRIALS = 100_000
CHUNK = 4096  # small chunks = worst case for checkpoint overhead


def _sweep(engine, xor_puf, challenges):
    start = time.perf_counter()
    datasets = engine.measure_xor_constituents(
        xor_puf, challenges, N_TRIALS, seed=77
    )
    elapsed = time.perf_counter() - start
    return np.stack([d.soft_responses for d in datasets]), elapsed


def run_experiment(n_challenges: int, jobs: int, chunk_size: int):
    xor_puf = XorArbiterPuf.create(N_PUFS, N_STAGES, seed=76)
    challenges = random_challenges(n_challenges, N_STAGES, seed=78)
    campaign_root = Path(tempfile.mkdtemp(prefix="repro-bench-ckpt-"))
    try:
        plain = EvaluationEngine(jobs=jobs, chunk_size=chunk_size)
        baseline, t_plain = _sweep(plain, xor_puf, challenges)

        checkpointed = EvaluationEngine(
            jobs=jobs, chunk_size=chunk_size, checkpoint_dir=campaign_root
        )
        journalled, t_checkpointed = _sweep(checkpointed, xor_puf, challenges)
        np.testing.assert_array_equal(journalled, baseline)
        overhead = t_checkpointed / t_plain - 1.0

        # Kill the campaign ~2/3 of the way through a fresh directory,
        # then measure the resumed completion.
        shutil.rmtree(campaign_root)
        n_chunks = -(-n_challenges // chunk_size)
        abort_at = max(1, (2 * n_chunks) // 3)
        dying = EvaluationEngine(
            jobs=jobs,
            chunk_size=chunk_size,
            checkpoint_dir=campaign_root,
            faults=FaultPlan(
                [FaultSpec(Site.ENGINE_CHUNK, kind="abort", at=abort_at,
                           fail_attempts=99)]
            ),
        )
        t_kill = time.perf_counter()
        try:
            _sweep(dying, xor_puf, challenges)
        except InjectedCampaignAbort:
            pass
        t_kill = time.perf_counter() - t_kill

        resumer = EvaluationEngine(
            jobs=jobs, chunk_size=chunk_size, checkpoint_dir=campaign_root
        )
        resumed, t_resume = _sweep(resumer, xor_puf, challenges)
        np.testing.assert_array_equal(resumed, baseline)
        report = resumer.last_report
        resumed_fraction = report.chunks_resumed / report.chunks_total
        speedup = t_plain / t_resume if t_resume > 0 else float("inf")
        return {
            "n_challenges": n_challenges,
            "chunk_size": chunk_size,
            "jobs": jobs,
            "n_chunks": n_chunks,
            "abort_at": abort_at,
            "plain_seconds": t_plain,
            "checkpointed_seconds": t_checkpointed,
            "checkpoint_overhead": overhead,
            "killed_seconds": t_kill,
            "resume_seconds": t_resume,
            "resumed_fraction": resumed_fraction,
            "resume_speedup": speedup,
            "chunks_resumed": report.chunks_resumed,
        }
    finally:
        shutil.rmtree(campaign_root, ignore_errors=True)


@matrix.cell(
    "fault_tolerance",
    title="Fault tolerance -- checkpoint overhead & resume",
    tiers={
        "smoke": {"n_chunks": 8},
        "laptop": {"n_chunks": 16},
        "paper": {"n_chunks": 256},
    },
    warmup=0,
)
def fault_tolerance_cell(ctx):
    chunk_size = ctx.chunk_size or CHUNK
    return run_experiment(ctx.params["n_chunks"] * chunk_size, ctx.jobs, chunk_size)


def _report(run):
    r = run.payload
    return [
        f"  {r['n_challenges']} challenges x {N_TRIALS} trials, "
        f"{N_PUFS} PUFs, chunk={r['chunk_size']}, jobs={r['jobs']}",
        format_row("plain sweep", "--", f"{r['plain_seconds']:.2f} s"),
        format_row("checkpointed sweep", "--", f"{r['checkpointed_seconds']:.2f} s",
                   f"(+{r['checkpoint_overhead']:.1%} overhead)"),
        format_row("resumed fraction", "--", f"{r['resumed_fraction']:.0%}",
                   f"(killed at chunk {r['abort_at']}/{r['n_chunks']})"),
        format_row("resume vs cold run", "--", f"{r['resume_speedup']:.2f}x",
                   f"({r['resume_seconds']:.2f} s to finish)"),
    ]


def test_checkpoint_overhead_and_resume_speedup(capsys):
    run = run_for_test("fault_tolerance", capsys, report=_report)
    assert run.payload["chunks_resumed"] >= 1
