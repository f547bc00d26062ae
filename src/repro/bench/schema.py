"""Versioned benchmark-result schema and trajectory file handling.

Two artifact families:

* ``benchmarks/results/<name>.json`` -- one file per benchmark with its
  latest payload (series, tables), as the seed always wrote.  Cell runs
  add the matrix envelope (samples, stats, env) around the payload.
* ``BENCH_throughput.json`` (repo root) -- the committed *trajectory*:
  one entry per matrix cell id, carrying the sample array and robust
  stats that ``repro-puf bench compare`` gates against.

Schema v2 layout of the trajectory file::

    {
      "schema_version": 2,
      "cells": {
        "soft_sweep:smoke:j1:numpy": {
          "case": "soft_sweep", "tier": "smoke", "jobs": 1,
          "backend": "numpy", "metric": "engine_crps_per_sec",
          "unit": "crps/s", "direction": "higher", "gated": true,
          "samples": [4.3e6, 4.4e6, 3.9e6],
          "stats": {"n": 3, "min": ..., "median": ..., "mad": ...},
          "payload": {...last run's payload...},
          "env": {"python": "3.11.9", "numpy": "1.26.4", ...}
        }, ...
      }
    }
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

__all__ = [
    "SCHEMA_VERSION",
    "bench_root",
    "results_dir",
    "trajectory_path",
    "environment_metadata",
    "load_trajectory",
    "merge_cell",
    "write_trajectory",
    "save_results",
]

SCHEMA_VERSION = 2


def bench_root() -> Path:
    """The ``benchmarks/`` directory of the working tree.

    Resolution order: ``REPRO_BENCH_DIR``, the current directory, then
    the source checkout the installed package came from (``pip install
    -e`` keeps ``src/repro`` inside the repo, two levels below root).
    """
    override = os.environ.get("REPRO_BENCH_DIR", "")
    if override:
        return Path(override)
    local = Path.cwd() / "benchmarks"
    if local.is_dir():
        return local
    import repro

    return Path(repro.__file__).resolve().parents[2] / "benchmarks"


def results_dir() -> Path:
    return bench_root() / "results"


def trajectory_path() -> Path:
    return bench_root().parent / "BENCH_throughput.json"


def environment_metadata() -> Dict[str, Any]:
    """Provenance stamped into every cell result."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def save_results(name: str, payload: Mapping[str, Any]) -> Path:
    """Persist one benchmark's payload under ``benchmarks/results/``."""
    from .scale import full_scale

    directory = results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    payload = dict(payload)
    payload.setdefault("full_scale", full_scale())
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=float)
    return path


def load_trajectory(path: Optional[Path] = None) -> Dict[str, Any]:
    """Read a schema-v2 trajectory (``schema_version``/``cells``).

    A missing file is an empty trajectory; a file of another schema
    raises ``ValueError``.
    """
    path = Path(path) if path is not None else trajectory_path()
    if not path.exists():
        return {"schema_version": SCHEMA_VERSION, "cells": {}}
    raw = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: trajectory file must hold a JSON object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: trajectory schema {raw.get('schema_version')!r} is not "
            f"{SCHEMA_VERSION}"
        )
    raw.setdefault("cells", {})
    return raw


def merge_cell(
    trajectory: Dict[str, Any], cell_id: str, entry: Mapping[str, Any]
) -> Dict[str, Any]:
    """Insert/replace one cell entry in a v2 trajectory dict."""
    trajectory.setdefault("schema_version", SCHEMA_VERSION)
    trajectory.setdefault("cells", {})
    trajectory["cells"][cell_id] = dict(entry)
    return trajectory


def write_trajectory(
    trajectory: Mapping[str, Any], path: Optional[Path] = None
) -> Path:
    """Write a v2 trajectory dict, cells sorted for stable diffs."""
    path = Path(path) if path is not None else trajectory_path()
    out = dict(trajectory)
    out["schema_version"] = SCHEMA_VERSION
    out["cells"] = {key: out.get("cells", {})[key] for key in sorted(out.get("cells", {}))}
    path.write_text(
        json.dumps(out, indent=2, default=float) + "\n", encoding="utf-8"
    )
    return path
