"""Retry on transient device failure: fresh challenges, bounded.

The retry loop lives in :class:`AuthenticationService`, the one
authenticator.  The security property under test: a retried session
must never replay the previous attempt's challenge set.  Repeated or
partial transcripts are what chosen-challenge attacks harvest, and the
zero-HD protocol's one-shot sampling assumption forbids asking the same
question twice.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.authentication import DeviceReadError
from repro.core.server import AuthenticationServer
from repro.faults import FaultPlan, FaultSpec, FlakyResponder, Site
from repro.service import (
    PROTOCOL_STUDY_CONFIG,
    AuthenticationService,
    AuthOutcome,
    VirtualClock,
)

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def server_and_chip(enrolled_chip_and_record):
    chip, record = enrolled_chip_and_record
    server = AuthenticationServer()
    server.register(record)
    return server, chip


def make_service(server, **overrides):
    """A fresh service on seed 71 with throttling and lockout off."""
    config = dataclasses.replace(PROTOCOL_STUDY_CONFIG, **overrides)
    return AuthenticationService(server, config, seed=71, clock=VirtualClock())


def flaky(chip, n_failures):
    plan = FaultPlan(
        [FaultSpec(Site.DEVICE_READ, kind="device", fail_attempts=n_failures)]
    )
    return FlakyResponder(chip, plan)


class RecordingResponder:
    """Delegates to the chip, recording every challenge set it is sent."""

    def __init__(self, chip, n_failures=0):
        self._chip = chip
        self.chip_id = chip.chip_id
        self.challenge_log = []
        self._failures_left = n_failures

    def xor_response(self, challenges, condition=None):
        self.challenge_log.append(np.array(challenges, copy=True))
        if self._failures_left > 0:
            self._failures_left -= 1
            raise DeviceReadError("injected transport dropout")
        if condition is None:
            return self._chip.xor_response(challenges)
        return self._chip.xor_response(challenges, condition)


class TestAuthRetry:
    def test_default_single_attempt_is_unchanged(self, server_and_chip):
        server, chip = server_and_chip
        result = make_service(server).authenticate(chip)
        assert result.approved
        assert result.attempts == 1

    def test_first_attempt_bits_match_legacy_derivation(self, server_and_chip):
        """max_read_attempts > 1 must not perturb an untroubled session:
        its first attempt sends what a single-attempt service sends."""
        server, chip = server_and_chip
        single_service = make_service(server, max_read_attempts=1)
        multi_service = make_service(server, max_read_attempts=4)
        single = single_service.authenticate(chip)
        multi = multi_service.authenticate(chip)
        assert multi.attempts == 1
        assert (single.approved, single.auth.n_mismatches) == (
            multi.approved, multi.auth.n_mismatches
        )
        assert single_service.audit.issued_digests(chip.chip_id) == (
            multi_service.audit.issued_digests(chip.chip_id)
        )

    def test_transient_failure_is_retried(self, server_and_chip):
        server, chip = server_and_chip
        service = make_service(server, max_read_attempts=3)
        result = service.authenticate(flaky(chip, 2))
        assert result.approved
        assert result.attempts == 3

    def test_exhausted_attempts_propagate_the_failure(self, server_and_chip):
        """The last read failure becomes a DEVICE_ERROR decision that
        names it, after exactly max_read_attempts audited reads."""
        server, chip = server_and_chip
        service = make_service(server, max_read_attempts=2)
        result = service.authenticate(flaky(chip, 99))
        assert result.outcome is AuthOutcome.DEVICE_ERROR
        assert not result.approved
        assert result.attempts == 2
        assert "2 read attempts failed" in result.detail
        assert len(service.audit.with_outcome(AuthOutcome.READ_FAILED)) == 2

    def test_retry_never_replays_challenges(self, server_and_chip):
        server, chip = server_and_chip
        responder = RecordingResponder(chip, n_failures=2)
        result = make_service(server, max_read_attempts=3).authenticate(responder)
        assert result.approved and result.attempts == 3
        log = responder.challenge_log
        assert len(log) == 3
        # Every attempt drew an independent challenge set: no two
        # transcripts share even a single challenge row.
        for i in range(len(log)):
            for j in range(i + 1, len(log)):
                shared = (log[i][:, None, :] == log[j][None, :, :]).all(-1)
                assert not shared.any(), f"attempts {i} and {j} replayed challenges"

    def test_retry_attempts_are_deterministic(self, server_and_chip):
        """Same seed, same failure pattern -> the same retry transcript."""
        server, chip = server_and_chip
        first = RecordingResponder(chip, n_failures=1)
        second = RecordingResponder(chip, n_failures=1)
        make_service(server, max_read_attempts=2).authenticate(first)
        make_service(server, max_read_attempts=2).authenticate(second)
        assert len(first.challenge_log) == len(second.challenge_log) == 2
        for a, b in zip(first.challenge_log, second.challenge_log):
            np.testing.assert_array_equal(a, b)
