"""Benchmark collection settings.

Keeping a conftest here puts ``benchmarks/`` on ``sys.path`` so the
bench modules import the same way under pytest and standalone.  It also
adds two options mirroring the ``repro-puf bench`` CLI knobs:

* ``--backend`` pins the kernel backend the selected bench cells run
  on;
* ``--tier`` pins the scale tier (smoke/laptop/paper) for every matrix
  cell the selected bench tests run, overriding ``REPRO_SCALE``::

    pytest benchmarks/bench_throughput.py --backend numpy --tier smoke
    pytest benchmarks/bench_throughput.py --backend numba   # needs repro[fast]
"""

from __future__ import annotations

import os

import pytest

from repro.bench import TIERS
from repro.kernels import BACKEND_NAMES, BackendUnavailableError, set_backend


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--backend",
        choices=(*BACKEND_NAMES, "auto"),
        default="auto",
        help="kernel backend to benchmark (default: auto-detect)",
    )
    parser.addoption(
        "--tier",
        choices=TIERS,
        default=None,
        help="benchmark scale tier (default: REPRO_SCALE, else laptop)",
    )


def pytest_configure(config: pytest.Config) -> None:
    tier = config.getoption("--tier", default=None)
    if tier:
        os.environ["REPRO_SCALE"] = tier
    choice = config.getoption("--backend", default="auto")
    if choice == "auto":
        return
    try:
        set_backend(choice)
    except BackendUnavailableError as exc:
        raise pytest.UsageError(str(exc)) from exc
