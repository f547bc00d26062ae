"""Benchmark collection settings.

Keeping a conftest here puts ``benchmarks/`` on ``sys.path`` so the
bench modules import the same way under pytest and standalone.  It also
adds one option mirroring the ``repro-puf bench`` CLI knob:

* ``--tier`` pins the scale tier (smoke/laptop/paper) for every matrix
  cell the selected bench tests run, overriding ``REPRO_SCALE``::

    pytest benchmarks/bench_throughput.py --tier smoke
"""

from __future__ import annotations

import os

import pytest

from repro.bench import TIERS


def pytest_addoption(parser: pytest.Parser) -> None:
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
