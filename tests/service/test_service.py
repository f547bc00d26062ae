"""Integration tests for the resilient authentication front end.

Everything runs on a virtual clock and a deterministic fault plan, so
breaker cooldowns, rate-limit windows and device failures are exact.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.server import AuthenticationServer
from repro.faults import FaultPlan, FaultSpec, FlakyResponder, Site
from repro.service import (
    AuthOutcome,
    AuthenticationService,
    BreakerState,
    DriftPolicy,
    MAX_RUNG,
    PROTOCOL_STUDY_CONFIG,
    PoolExhaustedError,
    ServiceConfig,
    VirtualClock,
)
from repro.service import service as service_module

pytestmark = [pytest.mark.service, pytest.mark.faults]


class InvertingResponder:
    """An impostor: answers every challenge with the flipped bit."""

    def __init__(self, chip):
        self._chip = chip
        self.chip_id = chip.chip_id

    def xor_response(self, challenges, condition=None):
        if condition is None:
            responses = self._chip.xor_response(challenges)
        else:
            responses = self._chip.xor_response(challenges, condition)
        return 1 - np.asarray(responses)


def flaky(chip, n_failed_reads):
    plan = FaultPlan(
        [FaultSpec(Site.DEVICE_READ, kind="device", fail_attempts=n_failed_reads)]
    )
    return FlakyResponder(chip, plan)


class CountingResponder:
    """Healthy passthrough that counts device reads."""

    def __init__(self, chip):
        self._chip = chip
        self.chip_id = chip.chip_id
        self.reads = 0

    def xor_response(self, challenges, condition=None):
        self.reads += 1
        if condition is None:
            return self._chip.xor_response(challenges)
        return self._chip.xor_response(challenges, condition)


class ShortAnswerResponder(InvertingResponder):
    """A malformed device: answers one bit short."""

    def xor_response(self, challenges, condition=None):
        return self._chip.xor_response(challenges)[:-1]


@pytest.fixture(scope="module")
def server(enrolled_chip_and_record):
    _, record = enrolled_chip_and_record
    server = AuthenticationServer()
    server.register(record)
    return server


@pytest.fixture()
def make_service(server):
    """Factory: a fresh service on a fresh virtual clock, quiet limiter."""

    def build(**overrides):
        clock = VirtualClock()
        service = AuthenticationService(
            server, dataclasses.replace(PROTOCOL_STUDY_CONFIG, **overrides),
            seed=907, clock=clock,
        )
        return service, clock

    return build


class TestHappyPath:
    def test_genuine_chip_is_approved(self, make_service, enrolled_chip_and_record):
        chip, _ = enrolled_chip_and_record
        service, _ = make_service()
        result = service.authenticate(chip)
        assert result.approved
        assert result.outcome is AuthOutcome.APPROVED
        assert result.rung == 0
        assert result.attempts == 1
        assert result.challenges_spent == service.config.n_challenges
        assert result.auth is not None and result.auth.n_mismatches == 0
        decision = service.audit.decisions()[-1]
        assert decision.outcome is AuthOutcome.APPROVED
        assert len(decision.digests) == service.config.n_challenges

    def test_impostor_is_rejected(self, make_service, enrolled_chip_and_record):
        chip, _ = enrolled_chip_and_record
        service, _ = make_service()
        result = service.authenticate(InvertingResponder(chip))
        assert not result.approved
        assert result.outcome is AuthOutcome.REJECTED

    def test_sessions_never_share_challenges(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        service, _ = make_service()
        for _ in range(5):
            service.authenticate(chip)
        digests = service.audit.issued_digests(chip.chip_id)
        assert len(digests) == 5 * service.config.n_challenges
        assert len(set(digests)) == len(digests)
        assert service.audit.replayed_digests() == {}


class TestIssuedKeys:
    """The per-chip no-replay record holds each issued digest's 8 bytes
    in one sorted ``uint64`` array."""

    def test_keys_are_the_digest_bytes(self):
        digests = ("0000000000000000", "ffffffffffffffff", "0123456789abcdef")
        keys = service_module._digest_keys(digests)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [int(d, 16) for d in digests]

    def test_mask_on_empty_and_edges(self):
        keys = np.array([0, 5, 2**64 - 1], dtype=np.uint64)
        empty = np.empty(0, dtype=np.uint64)
        assert service_module._issued_mask(empty, keys).tolist() == [False] * 3
        issued = np.array([5, 2**64 - 1], dtype=np.uint64)
        assert service_module._issued_mask(issued, keys).tolist() == [
            False, True, True,
        ]

    def test_record_is_sorted_and_matches_the_audit_log(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        service, _ = make_service()
        for _ in range(4):
            service.authenticate(chip)
        issued = service._chips[chip.chip_id].issued
        assert np.all(issued[1:] > issued[:-1])
        digests = service.audit.issued_digests(chip.chip_id)
        assert issued.tolist() == sorted(int(d, 16) for d in digests)


class TestAdmission:
    def test_unknown_chip_is_a_decision_not_an_exception(self, make_service):
        service, _ = make_service()

        class Ghost:
            chip_id = "chip-ghost"

        result = service.authenticate(Ghost())
        assert result.outcome is AuthOutcome.UNKNOWN_CHIP
        assert "not enrolled" in result.detail
        assert service.audit.decisions()[-1].outcome is AuthOutcome.UNKNOWN_CHIP

    def test_anonymous_responder_requires_claimed_id(self, make_service):
        service, _ = make_service()
        with pytest.raises(ValueError, match="claimed_id"):
            service.authenticate(object())

    def test_throttle_window(self, make_service, enrolled_chip_and_record):
        chip, _ = enrolled_chip_and_record
        service, clock = make_service(
            max_requests_per_window=1, window_seconds=60.0
        )
        assert service.authenticate(chip).approved
        throttled = service.authenticate(chip)
        assert throttled.outcome is AuthOutcome.RATE_LIMITED
        assert "throttle" in throttled.detail
        assert throttled.challenges_spent == 0  # fast-fail costs no pool
        clock.advance(60.0)
        assert service.authenticate(chip).approved

    def test_reject_streak_locks_the_identity_out(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        impostor = InvertingResponder(chip)
        service, clock = make_service(
            lockout_threshold=2, lockout_seconds=120.0
        )
        for _ in range(2):
            assert service.authenticate(impostor).outcome is AuthOutcome.REJECTED
        locked = service.authenticate(impostor)
        assert locked.outcome is AuthOutcome.RATE_LIMITED
        assert "lockout" in locked.detail
        assert service.chip_status(chip.chip_id)["locked_out"]
        clock.advance(120.0)
        assert service.authenticate(chip).approved

    def test_malformed_answer_is_a_charged_audited_rejection(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        service, _ = make_service(lockout_threshold=2)
        n = service.config.n_challenges
        short = ShortAnswerResponder(chip)
        result = service.authenticate(short)
        assert result.outcome is AuthOutcome.REJECTED
        assert result.auth is None
        assert result.challenges_spent == n
        assert service.chip_status(chip.chip_id)["challenges_spent"] == n
        event = service.audit.decisions()[-1]
        assert event.outcome is AuthOutcome.REJECTED
        assert event.n_mismatches is None
        assert event.digests == tuple(service.audit.issued_digests(chip.chip_id))
        assert len(event.digests) == n
        assert f"({n - 1},)" in event.detail and f"({n},)" in event.detail
        # Garbage counts as a rejection: two lock the identity out.
        assert service.authenticate(short).outcome is AuthOutcome.REJECTED
        assert service.authenticate(short).outcome is AuthOutcome.RATE_LIMITED


class TestDeviceFailureHandling:
    def test_transient_read_failure_is_retried_with_fresh_challenges(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        service, _ = make_service()
        result = service.authenticate(flaky(chip, 1))
        assert result.approved
        assert result.attempts == 2
        # The burnt attempt's challenges are charged and never reissued.
        assert result.challenges_spent == 2 * service.config.n_challenges
        assert len(service.audit.with_outcome(AuthOutcome.READ_FAILED)) == 1
        digests = service.audit.issued_digests(chip.chip_id)
        assert len(digests) == 2 * service.config.n_challenges
        assert len(set(digests)) == len(digests)

    def test_read_attempts_must_be_positive(self):
        with pytest.raises(ValueError, match="max_read_attempts"):
            ServiceConfig(max_read_attempts=0)

    def test_breaker_opens_fast_fails_and_recovers(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        service, clock = make_service(
            breaker_failure_threshold=1, breaker_cooldown=30.0,
            max_read_attempts=3,
        )
        responder = flaky(chip, 3)  # all 3 reads of request 0 fail

        failed = service.authenticate(responder)
        assert failed.outcome is AuthOutcome.DEVICE_ERROR
        assert failed.attempts == 3
        state = service.chip_status(chip.chip_id)
        assert state["breaker_state"] == BreakerState.OPEN.value

        fast_failed = service.authenticate(responder)
        assert fast_failed.outcome is AuthOutcome.BREAKER_OPEN
        assert fast_failed.challenges_spent == 0

        clock.advance(30.0)  # cooldown elapses; the probe succeeds
        probe = service.authenticate(responder)
        assert probe.approved
        breaker = service._chips[chip.chip_id].breaker
        arcs = [(src, dst) for _, src, dst in breaker.transitions]
        assert arcs == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_service_level_fault_plan_fires_at_request_admission(
        self, server, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        plan = FaultPlan(
            [FaultSpec(Site.SERVICE_REQUEST, kind="device", at=0)]
        )
        service = AuthenticationService(
            server,
            PROTOCOL_STUDY_CONFIG,
            seed=907, clock=VirtualClock(), faults=plan,
        )
        first = service.authenticate(chip)
        assert first.outcome is AuthOutcome.DEVICE_ERROR
        assert first.challenges_spent == 0  # admission fault burns no pool
        assert service.authenticate(chip).approved

    def test_deadline_fast_fails_before_touching_the_device(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        service, _ = make_service()
        result = service.authenticate(chip, deadline=0.0)
        assert result.outcome is AuthOutcome.DEADLINE_EXCEEDED
        assert result.challenges_spent == 0


class TestBudget:
    def test_low_water_warning_fires_once(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        service, _ = make_service(pool_capacity=70)  # low water at <= 7
        assert service.authenticate(chip).approved
        assert len(service.warnings) == 1
        assert "low-water" in service.warnings[0]
        assert len(service.audit.with_outcome(AuthOutcome.BUDGET_LOW)) == 1

    def test_exhausted_pool_raises_instead_of_replaying(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        service, _ = make_service(pool_capacity=100)
        assert service.authenticate(chip).approved
        with pytest.raises(PoolExhaustedError, match="refusing to replay"):
            service.authenticate(chip)
        assert service.audit.decisions()[-1].outcome is AuthOutcome.POOL_EXHAUSTED
        # The refused request charged nothing.
        assert service.chip_status(chip.chip_id)["budget_remaining"] == 36
        assert service.audit.replayed_digests() == {}


class TestDegradationLadder:
    def test_sustained_rejects_walk_the_ladder_to_retightening(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        impostor = InvertingResponder(chip)
        service, _ = make_service(
            drift=DriftPolicy(
                window=4, min_samples=2, escalate_frr=0.5, recover_clean=50
            ),
        )
        for _ in range(6):
            service.authenticate(impostor)
        status = service.chip_status(chip.chip_id)
        assert status["rung"] == MAX_RUNG
        assert status["flagged_for_retightening"]
        assert service.flagged_chips == [chip.chip_id]
        assert len(service.audit.with_outcome(AuthOutcome.RUNG_ESCALATED)) == 2
        assert len(service.audit.with_outcome(AuthOutcome.RETIGHTEN_FLAGGED)) == 1
        # Rung 2 serves from the cached re-tightened selector, and even
        # across rung changes no challenge is ever reissued.
        assert service._chips[chip.chip_id].tightened_selector is not None
        assert service.audit.replayed_digests() == {}

    def test_recovery_emits_rung_recovered(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        impostor = InvertingResponder(chip)
        service, _ = make_service(
            drift=DriftPolicy(
                window=4, min_samples=2, escalate_frr=0.5, recover_clean=3
            ),
        )
        for _ in range(2):
            service.authenticate(impostor)  # escalate to rung 1
        assert service.chip_status(chip.chip_id)["rung"] == 1
        for _ in range(3):
            service.authenticate(chip)  # a clean streak recovers
        assert service.chip_status(chip.chip_id)["rung"] == 0
        assert len(service.audit.with_outcome(AuthOutcome.RUNG_RECOVERED)) == 1

    def test_majority_vote_costs_device_reads_not_pool(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        impostor = InvertingResponder(chip)
        service, _ = make_service(
            drift=DriftPolicy(
                window=4, min_samples=1, escalate_frr=0.5, recover_clean=50
            ),
            majority_votes=5,
        )
        service.authenticate(impostor)  # reject -> rung 1
        assert service.chip_status(chip.chip_id)["rung"] == 1
        responder = CountingResponder(chip)
        result = service.authenticate(responder)
        assert result.rung == 1
        # k-shot majority re-reads the same issued set: one pool charge,
        # many device reads.
        assert result.challenges_spent == service.config.n_challenges
        assert responder.reads == 5


class TestBatchedServing:
    def test_authenticate_batch_equals_per_request(
        self, make_service, enrolled_chip_and_record
    ):
        """Identical verdicts and scores to per-request serving."""
        chip, _ = enrolled_chip_and_record
        batch = [chip, InvertingResponder(chip), chip]
        service, _ = make_service()
        batched = service.authenticate_batch(batch)
        service_ref, _ = make_service()
        singles = [service_ref.authenticate(r) for r in batch]
        assert [r.outcome for r in batched] == [r.outcome for r in singles]
        assert [r.auth.n_mismatches for r in batched] == [
            r.auth.n_mismatches for r in singles
        ]
        assert [r.approved for r in batched] == [True, False, True]

    def test_batch_keeps_no_replay_invariant(
        self, make_service, enrolled_chip_and_record
    ):
        """Every batched session still gets a fresh challenge set."""
        chip, _ = enrolled_chip_and_record
        service, _ = make_service()
        service.authenticate_batch([chip] * 4)
        digests = service.audit.issued_digests(chip.chip_id)
        assert len(digests) == 4 * service.config.n_challenges
        assert len(set(digests)) == len(digests)
        assert service.audit.replayed_digests() == {}

    def test_batch_admission_failures_keep_request_order(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record

        class Anonymous:
            chip_id = "ghost"

            def xor_response(self, challenges, condition=None):
                return np.zeros(len(challenges), dtype=np.int8)

        service, _ = make_service()
        results = service.authenticate_batch([chip, Anonymous(), chip])
        assert [r.outcome for r in results] == [
            AuthOutcome.APPROVED,
            AuthOutcome.UNKNOWN_CHIP,
            AuthOutcome.APPROVED,
        ]
        assert [r.request for r in results] == [0, 1, 2]

    def test_batch_same_chip_sees_earlier_slot_decision(
        self, make_service, enrolled_chip_and_record
    ):
        """A slot is admitted only after the previous slot was scored.

        Under a hair-trigger drift policy the impostor's rejection
        escalates the chip to rung 1, so the genuine request behind it
        in the same batch must be served with the k-shot vote.
        """
        chip, _ = enrolled_chip_and_record
        policy = DriftPolicy(window=4, min_samples=1, escalate_frr=0.5)
        batch = [InvertingResponder(chip), chip]
        service, _ = make_service(drift=policy)
        batched = service.authenticate_batch(batch)
        service_ref, _ = make_service(drift=policy)
        singles = [service_ref.authenticate(r) for r in batch]

        assert [r.rung for r in batched] == [r.rung for r in singles] == [0, 1]
        assert [r.outcome for r in batched] == [r.outcome for r in singles]

        def stream(svc):
            return [(event.outcome, event.rung) for event in svc.audit]

        assert stream(service) == stream(service_ref)

    def test_identify_many_audits_without_digests(
        self, make_service, enrolled_chip_and_record
    ):
        chip, _ = enrolled_chip_and_record
        service, _ = make_service()
        results = service.identify_many([chip, chip])
        assert [r.chip_id for r in results] == [chip.chip_id] * 2
        assert all(r.scores is None for r in results)
        events = service.audit.with_outcome(AuthOutcome.IDENTIFIED)
        assert len(events) == 2
        assert all(event.digests == () for event in events)
        # Identification issues no session challenges: no-replay holds.
        assert service.audit.replayed_digests() == {}


class TestRetighteningCommit:
    def test_apply_retightening_commits_and_serves(
        self, enrolled_chip_and_record
    ):
        """The operator action folds betas into the database durably."""
        chip, record = enrolled_chip_and_record
        server = AuthenticationServer({record.chip_id: record})
        clock = VirtualClock()
        service = AuthenticationService(
            server,
            PROTOCOL_STUDY_CONFIG,
            seed=911,
            clock=clock,
        )
        old = server.record(chip.chip_id).betas
        epoch = server.epoch
        updated = service.apply_retightening(chip.chip_id)
        assert server.epoch == epoch + 1
        assert updated.betas.beta0 == pytest.approx(
            old.beta0 * service.config.retighten_beta0
        )
        assert updated.betas.beta1 == pytest.approx(
            old.beta1 * service.config.retighten_beta1
        )
        events = service.audit.with_outcome(AuthOutcome.RETIGHTEN_APPLIED)
        assert len(events) == 1
        # The tightened thresholds keep approving the genuine chip.
        assert service.authenticate(chip).approved

    def test_committed_chip_does_not_tighten_twice(
        self, enrolled_chip_and_record
    ):
        """After the commit, rung 2 serves from the enrolled thresholds."""
        chip, record = enrolled_chip_and_record
        server = AuthenticationServer({record.chip_id: record})
        clock = VirtualClock()
        service = AuthenticationService(
            server,
            PROTOCOL_STUDY_CONFIG,
            seed=912,
            clock=clock,
        )
        service.apply_retightening(chip.chip_id)
        state = service._state(chip.chip_id)
        selector = service._selector_for(chip.chip_id, state, MAX_RUNG)
        assert selector is server.selector(chip.chip_id)
        assert state.tightened_selector is None
