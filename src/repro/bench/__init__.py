"""Declarative benchmark matrix with variance-aware regression gating.

The paper's claims are measurement claims; this package makes the
repo's own performance claims measurable the same way.  One registry
(:data:`matrix`) enumerates benchmark x scale-tier x jobs cells; one
execution layer runs warmup + K timed samples per cell and records
robust statistics (min/median/MAD) plus environment provenance under a
versioned schema; and
:mod:`repro.bench.variance` gates new runs against the committed
``BENCH_throughput.json`` trajectory with statistical thresholds
instead of single-run point ratios.

Entry points:

* bench modules under ``benchmarks/`` register cases with
  ``@matrix.cell(...)`` and run them in pytest via
  :func:`run_for_test`;
* ``repro-puf bench list|run|compare`` drives the same cells from the
  command line (see :mod:`repro.bench.cli`);
* CI gates call ``repro-puf bench run --tier smoke --compare``.
"""

from .case import BenchmarkCase, CellContext, Matrix, cell_id, matrix
from .execution import (
    CellResult,
    emit,
    format_row,
    record_result,
    run_cell,
    run_for_test,
    run_matrix,
)
from .scale import (
    DEFAULT_SAMPLES,
    TIERS,
    active_tier,
    engine_chunk_size,
    engine_jobs,
    full_scale,
)
from .schema import (
    SCHEMA_VERSION,
    bench_root,
    environment_metadata,
    load_trajectory,
    results_dir,
    save_results,
    trajectory_path,
    write_trajectory,
)
from .timing import best_of, sample_stats
from .variance import CellVerdict, GateConfig, compare_cell, compare_runs

__all__ = [
    "BenchmarkCase",
    "CellContext",
    "CellResult",
    "CellVerdict",
    "DEFAULT_SAMPLES",
    "GateConfig",
    "Matrix",
    "SCHEMA_VERSION",
    "TIERS",
    "active_tier",
    "bench_root",
    "best_of",
    "cell_id",
    "compare_cell",
    "compare_runs",
    "emit",
    "engine_chunk_size",
    "engine_jobs",
    "environment_metadata",
    "format_row",
    "full_scale",
    "load_trajectory",
    "matrix",
    "record_result",
    "results_dir",
    "run_cell",
    "run_for_test",
    "run_matrix",
    "sample_stats",
    "save_results",
    "trajectory_path",
    "write_trajectory",
]
