"""Shared fixtures: small, seeded silicon objects reused across tests.

Expensive artefacts (enrolled chips, measured campaigns) are
session-scoped; tests must treat them as read-only.  Anything a test
mutates (fuse state, RNG position) gets its own function-scoped
fixture.
"""

from __future__ import annotations

import dataclasses
import os
import signal

import numpy as np
import pytest

from repro.core.enrollment import EnrollmentRecord, enroll_chip
from repro.crp.challenges import random_challenges
from repro.service import PROTOCOL_STUDY_CONFIG, AuthenticationService
from repro.silicon.arbiter import ArbiterPuf
from repro.silicon.chip import PufChip
from repro.silicon.xorpuf import XorArbiterPuf

#: Stage count used by most tests (paper chip width, still fast).
N_STAGES = 32

# ----------------------------------------------------------------------
# Hang guard
# ----------------------------------------------------------------------
# The fault-tolerance suite deliberately exercises hangs and worker
# crashes; a regression there must fail fast instead of wedging CI.
# When the pytest-timeout plugin is installed it owns the job; this
# SIGALRM fallback covers environments without it (same `timeout`
# marker, default from REPRO_TEST_TIMEOUT, 0 disables).
try:
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

#: Per-test wall-clock ceiling (seconds) for the fallback guard.
DEFAULT_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "300"))

#: Whether the SIGALRM fallback can arm at all (POSIX main thread only;
#: Windows and some embedded interpreters lack the signal entirely).
_HAVE_SIGALRM = hasattr(signal, "SIGALRM")

if not _HAVE_PYTEST_TIMEOUT and _HAVE_SIGALRM:

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(item):
        timeout = DEFAULT_TEST_TIMEOUT
        marker = item.get_closest_marker("timeout")
        if marker and marker.args:
            timeout = float(marker.args[0])
        if timeout <= 0:
            return (yield)

        def _on_alarm(signum, frame):  # pragma: no cover - only on hangs
            raise TimeoutError(
                f"{item.nodeid} exceeded the {timeout:.0f}s hang guard"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            return (yield)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

elif not _HAVE_PYTEST_TIMEOUT:  # pragma: no cover - non-POSIX platforms

    def pytest_configure(config):
        # No pytest-timeout and no SIGALRM: the suite still runs, but a
        # genuine hang will wedge instead of failing fast.  Warn at
        # collection rather than erroring -- a missing guard must never
        # be the reason the suite cannot run at all.
        import warnings

        warnings.warn(
            "no hang guard available: pytest-timeout is not installed "
            "and this platform has no signal.SIGALRM; hanging tests "
            "will block instead of timing out",
            RuntimeWarning,
            stacklevel=2,
        )

#: Counter depth for fast tests; stability semantics are depth-dependent
#: but every module accepts any depth.
N_TRIALS = 100_000


@pytest.fixture(scope="session")
def arbiter_puf() -> ArbiterPuf:
    """One calibrated arbiter PUF instance (read-only)."""
    return ArbiterPuf.create(N_STAGES, seed=101)


@pytest.fixture(scope="session")
def xor_puf() -> XorArbiterPuf:
    """A 4-input XOR PUF (read-only)."""
    return XorArbiterPuf.create(4, N_STAGES, seed=202)


@pytest.fixture()
def fresh_chip() -> PufChip:
    """A chip in enrollment phase; tests may blow its fuses."""
    return PufChip.create(n_pufs=4, n_stages=N_STAGES, seed=303, chip_id="chip-t")


@pytest.fixture()
def serve():
    """Factory: a protocol-study service (throttling and lockout off)
    over *server*, with ``ServiceConfig`` overrides."""

    def build(server, seed, **config):
        config = dataclasses.replace(PROTOCOL_STUDY_CONFIG, **config)
        return AuthenticationService(server, config, seed=seed)

    return build


@pytest.fixture(scope="session")
def enrolled_chip_and_record() -> tuple[PufChip, EnrollmentRecord]:
    """A deployed (fuse-blown) chip with its enrollment record (read-only)."""
    chip = PufChip.create(n_pufs=4, n_stages=N_STAGES, seed=404, chip_id="chip-e")
    record = enroll_chip(
        chip,
        n_enroll_challenges=2000,
        n_validation_challenges=8000,
        seed=405,
    )
    return chip, record


@pytest.fixture(scope="session")
def challenge_batch() -> np.ndarray:
    """A reusable batch of random challenges (read-only)."""
    return random_challenges(2000, N_STAGES, seed=506)
