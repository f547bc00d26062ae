"""Execution layer of the benchmark matrix.

One code path runs every cell the same way -- run the warmup, collect
K timed samples, summarize them robustly, stamp environment
provenance, and write the versioned artifacts -- so no bench script
ever hand-rolls a timing loop or a JSON shape again.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from .case import BenchmarkCase, CellContext, matrix
from .scale import active_tier, engine_chunk_size, engine_jobs
from .schema import (
    SCHEMA_VERSION,
    environment_metadata,
    load_trajectory,
    merge_cell,
    save_results,
    write_trajectory,
)
from .timing import sample_stats

__all__ = [
    "CellResult",
    "emit",
    "format_row",
    "run_cell",
    "run_matrix",
    "run_for_test",
    "record_result",
]


def emit(capsys, title: str, lines: Iterable[str]) -> None:
    """Print a benchmark report, bypassing pytest's capture if present.

    ``capsys`` may be the pytest fixture or ``None`` (CLI/standalone
    runs), so one report helper serves every entry point.
    """
    guard = capsys.disabled() if capsys is not None else contextlib.nullcontext()
    with guard:
        print()
        print(f"=== {title} " + "=" * max(0, 70 - len(title)))
        for line in lines:
            print(line)


def format_row(label: str, paper: str, measured: str, note: str = "") -> str:
    """One aligned paper-vs-measured table row."""
    row = f"  {label:<28} paper: {paper:<14} ours: {measured:<14}"
    return row + (f" {note}" if note else "")


@dataclasses.dataclass
class CellResult:
    """One executed matrix cell: context, samples, stats, payload."""

    case: BenchmarkCase
    context: CellContext
    samples: List[float]
    stats: Dict[str, float]
    payload: Dict[str, Any]
    seconds: float

    @property
    def cell_id(self) -> str:
        return self.context.cell_id

    @property
    def metric_value(self) -> float:
        return float(self.stats["median"])

    def entry(self) -> Dict[str, Any]:
        """The schema-v2 trajectory entry for this run."""
        return {
            "schema_version": SCHEMA_VERSION,
            "case": self.case.name,
            "tier": self.context.tier,
            "jobs": self.context.jobs,
            "chunk_size": self.context.chunk_size,
            "backend": self.context.backend,
            "metric": self.case.metric,
            "unit": self.case.unit,
            "direction": self.case.direction,
            "gated": self.case.gated,
            "warmup": self.case.warmup,
            "samples": list(self.samples),
            "stats": dict(self.stats),
            "payload": self.payload,
            "wall_seconds": self.seconds,
            "env": environment_metadata(),
        }

    def summary_lines(self) -> List[str]:
        """Human lines describing the cell's variance statistics."""
        stats = self.stats
        return [
            f"  cell {self.cell_id}: {self.case.metric} = "
            f"{stats['median']:.6g} {self.case.unit} "
            f"(median of {stats['n']}, min {stats['min']:.6g}, "
            f"MAD {stats['mad']:.2g})",
        ]


def run_cell(
    case: BenchmarkCase,
    tier: Optional[str] = None,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    samples: Optional[int] = None,
) -> CellResult:
    """Execute one cell: warmup + K timed samples + robust stats.

    The case body runs once per warmup and once per sample; the
    metric is either the body's wall-clock (``elapsed_seconds``) or a
    key the body's payload must carry.  The payload kept is the last
    sample's (they are seeded and deterministic; only the clock
    varies).
    """
    tier = tier or active_tier()
    jobs = engine_jobs() if jobs is None else jobs
    chunk_size = engine_chunk_size() if chunk_size is None else chunk_size
    context = CellContext(
        case=case.name,
        tier=tier,
        params=case.params_for(tier),
        jobs=jobs,
        chunk_size=chunk_size,
    )
    n_samples = case.samples_for(tier) if samples is None else max(1, samples)

    start = time.perf_counter()
    for _ in range(case.warmup):
        case.fn(context)

    metric_samples: List[float] = []
    payload: Dict[str, Any] = {}
    for _ in range(n_samples):
        t0 = time.perf_counter()
        payload = dict(case.fn(context) or {})
        elapsed = time.perf_counter() - t0
        payload.setdefault("elapsed_seconds", elapsed)
        if case.metric == "elapsed_seconds":
            payload["elapsed_seconds"] = elapsed
        if case.metric not in payload:
            raise KeyError(
                f"cell {context.cell_id}: payload is missing the "
                f"declared metric {case.metric!r} "
                f"(keys: {sorted(payload)})"
            )
        metric_samples.append(float(payload[case.metric]))

    return CellResult(
        case=case,
        context=context,
        samples=metric_samples,
        stats=sample_stats(metric_samples),
        payload=payload,
        seconds=time.perf_counter() - start,
    )


def record_result(result: CellResult, update_trajectory: bool = True) -> None:
    """Write the per-benchmark results file and merge the trajectory.

    Every cell gets a ``benchmarks/results/<case>.json`` (payload plus
    the matrix envelope); cells marked ``trajectory=True`` additionally
    land in the repo-root ``BENCH_throughput.json`` under their cell id.
    """
    entry = result.entry()
    save_results(result.case.name, {
        "cell": result.cell_id,
        **result.payload,
        "samples": entry["samples"],
        "stats": entry["stats"],
        "env": entry["env"],
        "schema_version": SCHEMA_VERSION,
    })
    if update_trajectory and result.case.trajectory:
        trajectory = load_trajectory()
        merge_cell(trajectory, result.cell_id, entry)
        write_trajectory(trajectory)


def run_matrix(
    names: Optional[Sequence[str]] = None,
    tier: Optional[str] = None,
    jobs: Optional[int] = None,
    samples: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    record: bool = True,
) -> Dict[str, Any]:
    """Run a slice of the matrix and return a v2 run document."""
    tier = tier or active_tier()
    cells: Dict[str, Any] = {}
    for case in matrix.select(names):
        result = run_cell(case, tier=tier, jobs=jobs, samples=samples)
        if record:
            record_result(result)
        cells[result.cell_id] = result.entry()
        if progress:
            stats = result.stats
            progress(
                f"ran {result.cell_id}: {case.metric} "
                f"{stats['median']:.6g} {case.unit} "
                f"(n={stats['n']}, MAD {stats['mad']:.2g})"
            )
    return {
        "schema_version": SCHEMA_VERSION,
        "tier": tier,
        "cells": cells,
        "env": environment_metadata(),
    }


def run_for_test(
    name: str,
    capsys=None,
    report: Optional[Callable[["CellResult"], Iterable[str]]] = None,
) -> CellResult:
    """Pytest entry point: run one case at the environment's tier.

    Emits the standard header, the cell's variance summary, and the
    caller's table rows (``report`` maps the finished result to lines),
    and returns the result so the test can assert on the payload.  It
    writes nothing: only ``repro-puf bench run`` records artifacts.
    """
    case = matrix.get(name)
    result = run_cell(case)
    lines = list(result.summary_lines())
    if report is not None:
        lines.extend(report(result))
    emit(capsys, case.title or f"Benchmark -- {case.name}", lines)
    return result
