"""Revocation through the resilient serving layer.

One operator call must thread the lifecycle transition through every
layer at once: the server's terminal state machine, the codebook
tombstones, the challenge-pool reclaim, and the audit trail -- and
every later request under the burned name must fast-fail without
costing a single challenge.
"""

from __future__ import annotations

import pytest

from repro.core.lifecycle import LifecycleError
from repro.core.server import AuthenticationServer, UnknownChipError
from repro.service import (
    AuthOutcome,
    AuthenticationService,
    PROTOCOL_STUDY_CONFIG,
    VirtualClock,
)

pytestmark = [pytest.mark.service]


@pytest.fixture()
def service_and_chip(enrolled_chip_and_record):
    chip, record = enrolled_chip_and_record
    server = AuthenticationServer()
    server.register(record)
    service = AuthenticationService(
        server,
        PROTOCOL_STUDY_CONFIG,
        seed=910,
        clock=VirtualClock(),
    )
    return service, chip


class TestServiceRevocation:
    def test_revoked_chip_fast_fails(self, service_and_chip):
        service, chip = service_and_chip
        assert service.authenticate(chip).approved
        spent_before = service.budget_stats["spent"]
        service.revoke(chip.chip_id, reason="field compromise")
        result = service.authenticate(chip)
        assert not result.approved
        assert result.outcome is AuthOutcome.REVOKED
        assert result.challenges_spent == 0
        assert "field compromise" in result.detail
        # The fast-fail never touched the pool.
        assert service.budget_stats["spent"] == spent_before

    def test_revocation_reclaims_budget(self, service_and_chip):
        service, chip = service_and_chip
        service.authenticate(chip)
        status = service.chip_status(chip.chip_id)
        remaining = status["budget_remaining"]
        assert remaining > 0 and status["challenges_released"] == 0
        service.revoke(chip.chip_id)
        status = service.chip_status(chip.chip_id)
        assert status["revoked"] is True
        assert status["challenges_released"] == remaining
        assert status["budget_remaining"] == 0
        stats = service.budget_stats
        assert stats["released"] == remaining
        assert stats["released_chips"] == 1

    def test_revocation_is_audited(self, service_and_chip):
        service, chip = service_and_chip
        service.authenticate(chip)
        service.revoke(chip.chip_id, reason="stolen")
        service.authenticate(chip)
        events = service.audit.events
        committed = [
            e for e in events
            if e.outcome is AuthOutcome.REVOCATION_COMMITTED
        ]
        assert len(committed) == 1
        assert "stolen" in committed[0].detail
        # The reclaim is carried as a negative spend: pool accounting
        # over the audit log still sums to the truth.
        assert committed[0].challenges_spent < 0
        denials = [e for e in events if e.outcome is AuthOutcome.REVOKED]
        assert len(denials) == 1
        assert denials[0].digests == ()  # no challenge material leaked

    def test_revoke_errors_precede_mutation(self, service_and_chip):
        service, chip = service_and_chip
        with pytest.raises(UnknownChipError):
            service.revoke("stranger")
        service.revoke(chip.chip_id)
        with pytest.raises(LifecycleError):
            service.revoke(chip.chip_id)
        stats = service.budget_stats
        assert stats["released_chips"] == 1  # the double call reclaimed nothing
