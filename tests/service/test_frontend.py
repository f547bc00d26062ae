"""The micro-batching front end: batching must be invisible.

The contract under test (:mod:`repro.service.frontend`): any traffic
served through :class:`BatchingFrontend` must produce bit-identical
results, audit events and challenge accounting to the same requests
served as sequential per-request calls in submission order -- while a
full queue sheds with the typed :class:`OverloadError`, deadlines keep
charging while queued, and one failing request cannot poison its
batchmates.

Bit-identity is checked against *twin worlds*: two lots fabricated from
one seed share chip delays and noise streams, so a sequential world and
a batched world observe the same silicon as long as each chip is read
in the same per-chip order -- which is exactly what the front end's
run-splitting guarantees.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.enrollment import enroll_chip
from repro.core.server import AuthenticationServer
from repro.service import (
    AuthOutcome,
    AuthenticationService,
    BatchingFrontend,
    FleetConfig,
    FrontendConfig,
    OverloadError,
    PoolExhaustedError,
    ServiceConfig,
    ShardDispatcher,
    VirtualClock,
)
from repro.silicon.chip import fabricate_lot

pytestmark = pytest.mark.service

N_STAGES = 16
N_XORS = 2

#: Wait bound for loop-thread progress (host clock; generous for CI).
JOIN_TIMEOUT = 30.0


def build_world(
    seed: int, n_chips: int = 4, *, config: ServiceConfig = None, **service_kw
):
    """One enrolled fleet + service on a virtual clock.

    Called twice with one seed it yields *twin* worlds: identical chips
    with identical noise streams (enrollment blows fuses, so twins must
    be separately fabricated, never shared).
    """
    lot = fabricate_lot(n_chips, N_XORS, N_STAGES, seed=seed)
    server = AuthenticationServer()
    for index, chip in enumerate(lot):
        record = enroll_chip(
            chip,
            n_enroll_challenges=300,
            n_validation_challenges=400,
            seed=seed + 1 + index,
        )
        server.register(record)
    clock = VirtualClock()
    config = config or ServiceConfig(
        max_requests_per_window=0, lockout_threshold=0
    )
    service = AuthenticationService(
        server, config, seed=seed + 100, clock=clock, **service_kw
    )
    return lot, service, clock


def wait_until(predicate, what: str) -> None:
    """Poll the loop thread's progress; fail loudly instead of hanging."""
    deadline = time.monotonic() + JOIN_TIMEOUT
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.001)


class GatedResponder:
    """A device whose read blocks until the test opens the gate.

    Pins the batching loop inside one execution so the test can fill
    the queue behind it deterministically.
    """

    def __init__(self, chip, gate: threading.Event):
        self._chip = chip
        self.chip_id = chip.chip_id
        self._gate = gate

    def xor_response(self, challenges, condition=None):
        self._gate.wait(JOIN_TIMEOUT)
        if condition is None:
            return self._chip.xor_response(challenges)
        return self._chip.xor_response(challenges, condition)


class DeadResponder:
    """A device that dies on every read."""

    def __init__(self, chip_id="dead-chip"):
        self.chip_id = chip_id

    def xor_response(self, challenges, condition=None):
        raise RuntimeError("device detached mid-read")


def auth_fingerprint(result):
    return (
        result.outcome,
        result.approved,
        result.rung,
        result.attempts,
        result.challenges_spent,
        None if result.auth is None else result.auth.n_mismatches,
    )


def event_fingerprint(service):
    return [
        (event.chip_id, event.outcome, event.challenges_spent)
        for event in service.audit.events
    ]


# ----------------------------------------------------------------------
# Bit-identity: twin worlds
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_round_robin_burst_equals_sequential(self):
        """A mixed auth+identify burst == the same calls one at a time."""
        lot_a, service_a, _ = build_world(7201)
        lot_b, service_b, _ = build_world(7201)

        sequential = []
        for round_ in range(3):
            for chip in lot_a:
                sequential.append(auth_fingerprint(service_a.authenticate(chip)))
            result = service_a.identify_many([lot_a[round_ % len(lot_a)]])[0]
            sequential.append((result.chip_id, result.match_fraction))

        batched = []
        with BatchingFrontend(
            service_b, FrontendConfig(max_batch=64, max_pending=64)
        ) as frontend:
            futures = []
            for round_ in range(3):
                for chip in lot_b:
                    futures.append(("auth", frontend.submit_authenticate(chip)))
                futures.append(
                    ("identify",
                     frontend.submit_identify(lot_b[round_ % len(lot_b)]))
                )
            for kind, future in futures:
                result = future.result(timeout=JOIN_TIMEOUT)
                if kind == "auth":
                    batched.append(auth_fingerprint(result))
                else:
                    batched.append((result.chip_id, result.match_fraction))

        assert batched == sequential
        assert event_fingerprint(service_b) == event_fingerprint(service_a)

    def test_same_chip_twice_in_one_batch_shares_one_run(self):
        """Back-to-back auths of one chip must observe each other's
        state updates exactly as sequential calls would."""
        lot_a, service_a, _ = build_world(7301, n_chips=1)
        lot_b, service_b, _ = build_world(7301, n_chips=1)

        sequential = [
            auth_fingerprint(service_a.authenticate(lot_a[0]))
            for _ in range(4)
        ]

        with BatchingFrontend(
            service_b, FrontendConfig(max_batch=16, max_pending=64)
        ) as frontend:
            gate = threading.Event()
            blocker = frontend.submit_identify(GatedResponder(lot_b[0], gate))
            wait_until(
                lambda: frontend.stats["batches"] >= 1, "blocker drain"
            )
            futures = [
                frontend.submit_authenticate(lot_b[0]) for _ in range(4)
            ]
            gate.set()
            blocker.result(timeout=JOIN_TIMEOUT)
            batched = [
                auth_fingerprint(f.result(timeout=JOIN_TIMEOUT))
                for f in futures
            ]
            stats = frontend.stats

        assert batched == sequential
        # The blocker's identify run plus one auth run: slots run
        # sequentially, so same-chip auths need no run split.
        assert stats["runs"] == 2

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=1, max_value=2**20),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["auth", "identify", "revoke", "retighten"]),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_interleaved_lifecycle_traffic(self, seed, ops):
        """Hypothesis: arbitrary interleavings of data-plane traffic
        with enroll/retighten/revoke control ops stay bit-identical.

        Data-plane ops between control ops are submitted to the front
        end as one concurrent burst; the sequential world serves them
        one call at a time.  Control ops (and their exceptions) apply
        identically in both worlds.
        """
        lot_a, service_a, _ = build_world(9000 + seed, n_chips=3)
        lot_b, service_b, _ = build_world(9000 + seed, n_chips=3)

        log_a: list = []
        for op, index in ops:
            try:
                if op == "auth":
                    log_a.append(
                        auth_fingerprint(service_a.authenticate(lot_a[index]))
                    )
                elif op == "identify":
                    result = service_a.identify_many([lot_a[index]])[0]
                    log_a.append((result.chip_id, result.match_fraction))
                elif op == "revoke":
                    service_a.revoke(lot_a[index].chip_id, reason="hyp")
                    log_a.append(("revoked", index))
                else:
                    service_a.apply_retightening(lot_a[index].chip_id)
                    log_a.append(("retightened", index))
            except PoolExhaustedError:
                log_a.append(("pool-exhausted", op, index))
            except Exception as exc:
                log_a.append((type(exc).__name__, op, index))

        log_b: list = []
        with BatchingFrontend(
            service_b, FrontendConfig(max_batch=16, max_pending=64)
        ) as frontend:
            pending: list = []

            def drain() -> None:
                for kind, index, future in pending:
                    try:
                        result = future.result(timeout=JOIN_TIMEOUT)
                    except PoolExhaustedError:
                        log_b.append(("pool-exhausted", kind, index))
                    except Exception as exc:
                        log_b.append((type(exc).__name__, kind, index))
                    else:
                        if kind == "auth":
                            log_b.append(auth_fingerprint(result))
                        else:
                            log_b.append(
                                (result.chip_id, result.match_fraction)
                            )
                pending.clear()

            for op, index in ops:
                if op == "auth":
                    pending.append(
                        ("auth", index,
                         frontend.submit_authenticate(lot_b[index]))
                    )
                elif op == "identify":
                    pending.append(
                        ("identify", index,
                         frontend.submit_identify(lot_b[index]))
                    )
                else:
                    drain()  # control ops serialize against traffic
                    try:
                        if op == "revoke":
                            service_b.revoke(
                                lot_b[index].chip_id, reason="hyp"
                            )
                            log_b.append(("revoked", index))
                        else:
                            service_b.apply_retightening(
                                lot_b[index].chip_id
                            )
                            log_b.append(("retightened", index))
                    except Exception as exc:
                        log_b.append((type(exc).__name__, op, index))
            drain()

        assert log_b == log_a
        assert event_fingerprint(service_b) == event_fingerprint(service_a)


# ----------------------------------------------------------------------
# Overload shed
# ----------------------------------------------------------------------
class TestOverloadShed:
    def test_full_queue_sheds_typed_and_audited(self):
        lot, service, _ = build_world(7401, n_chips=3)
        gate = threading.Event()
        try:
            with BatchingFrontend(
                service, FrontendConfig(max_batch=4, max_pending=2)
            ) as frontend:
                blocker = frontend.submit_identify(
                    GatedResponder(lot[0], gate)
                )
                wait_until(
                    lambda: frontend.stats["batches"] >= 1, "blocker drain"
                )
                queued = [
                    frontend.submit_authenticate(lot[0]),
                    frontend.submit_authenticate(lot[1]),
                ]
                events_before = len(service.audit.events)
                decisions_before = len(service.audit.decisions())
                spent_before = service.chip_status(lot[2].chip_id)[
                    "challenges_spent"
                ]

                with pytest.raises(OverloadError):
                    frontend.submit_authenticate(lot[2])

                # Typed refusal + an OVERLOAD_SHED audit event...
                shed_events = [
                    e for e in service.audit.events
                    if e.outcome is AuthOutcome.OVERLOAD_SHED
                ]
                assert len(shed_events) == 1
                assert shed_events[0].chip_id == lot[2].chip_id
                assert len(service.audit.events) == events_before + 1
                # ...that is informational, not a decision...
                assert len(service.audit.decisions()) == decisions_before
                # ...with zero challenge-budget spend.
                assert service.chip_status(lot[2].chip_id)[
                    "challenges_spent"
                ] == spent_before

                gate.set()
                # Batchmates are untouched: everything queued succeeds.
                assert blocker.result(timeout=JOIN_TIMEOUT).chip_id == lot[0].chip_id
                for chip, future in zip(lot, queued):
                    result = future.result(timeout=JOIN_TIMEOUT)
                    assert result.approved, result
                assert frontend.stats["shed"] == 1
        finally:
            gate.set()

    def test_closed_frontend_refuses(self):
        lot, service, _ = build_world(7402, n_chips=1)
        frontend = BatchingFrontend(service)
        frontend.close()
        with pytest.raises(RuntimeError, match="closed"):
            frontend.submit_authenticate(lot[0])


# ----------------------------------------------------------------------
# Deadlines across the queue
# ----------------------------------------------------------------------
class TestQueuedDeadlines:
    def test_deadline_charged_for_queue_wait(self):
        lot, service, clock = build_world(7501, n_chips=2)
        gate = threading.Event()
        try:
            with BatchingFrontend(
                service, FrontendConfig(max_batch=8, max_pending=16)
            ) as frontend:
                blocker = frontend.submit_identify(
                    GatedResponder(lot[0], gate)
                )
                wait_until(
                    lambda: frontend.stats["batches"] >= 1, "blocker drain"
                )
                expiring = frontend.submit_authenticate(
                    lot[1], deadline=5.0
                )
                surviving = frontend.submit_authenticate(
                    lot[1], deadline=1000.0
                )
                clock.advance(10.0)  # the queue wait eats the budget
                gate.set()
                blocker.result(timeout=JOIN_TIMEOUT)

                expired = expiring.result(timeout=JOIN_TIMEOUT)
                assert expired.outcome is AuthOutcome.DEADLINE_EXCEEDED
                assert not expired.approved
                assert expired.challenges_spent == 0
                survived = surviving.result(timeout=JOIN_TIMEOUT)
                assert survived.approved
        finally:
            gate.set()

    def test_no_deadline_passes_through(self):
        lot, service, clock = build_world(7502, n_chips=1)
        with BatchingFrontend(service) as frontend:
            future = frontend.submit_authenticate(lot[0])
            clock.advance(1e6)  # irrelevant without an explicit deadline
            assert future.result(timeout=JOIN_TIMEOUT).approved


# ----------------------------------------------------------------------
# Poison isolation
# ----------------------------------------------------------------------
class TestPoisonIsolation:
    def test_dead_device_fails_alone_in_identify_batch(self):
        lot_a, service_a, _ = build_world(7601, n_chips=3)
        lot_b, service_b, _ = build_world(7601, n_chips=3)

        expected = [
            service_a.identify_many([chip])[0] for chip in lot_a[:2]
        ]

        gate = threading.Event()
        try:
            with BatchingFrontend(
                service_b, FrontendConfig(max_batch=8, max_pending=16)
            ) as frontend:
                blocker = frontend.submit_identify(
                    GatedResponder(lot_b[2], gate)
                )
                wait_until(
                    lambda: frontend.stats["batches"] >= 1, "blocker drain"
                )
                good_one = frontend.submit_identify(lot_b[0])
                dead = frontend.submit_identify(DeadResponder())
                good_two = frontend.submit_identify(lot_b[1])
                gate.set()
                blocker.result(timeout=JOIN_TIMEOUT)

                with pytest.raises(RuntimeError, match="detached"):
                    dead.result(timeout=JOIN_TIMEOUT)
                for future, want in zip((good_one, good_two), expected):
                    got = future.result(timeout=JOIN_TIMEOUT)
                    assert (got.chip_id, got.match_fraction) == (
                        want.chip_id, want.match_fraction
                    )
                assert frontend.stats["runs"] >= 1
        finally:
            gate.set()

    def test_pool_exhaustion_fails_alone_in_auth_batch(self):
        config = ServiceConfig(
            max_requests_per_window=0, lockout_threshold=0,
            pool_capacity=64, n_challenges=64,
        )
        lot, service, _ = build_world(7602, n_chips=2, config=config)
        service.authenticate(lot[0])  # drains chip 0's entire pool

        gate = threading.Event()
        try:
            with BatchingFrontend(
                service, FrontendConfig(max_batch=8, max_pending=16)
            ) as frontend:
                blocker = frontend.submit_identify(
                    GatedResponder(lot[1], gate)
                )
                wait_until(
                    lambda: frontend.stats["batches"] >= 1, "blocker drain"
                )
                exhausted = frontend.submit_authenticate(lot[0])
                healthy = frontend.submit_authenticate(lot[1])
                gate.set()
                blocker.result(timeout=JOIN_TIMEOUT)

                with pytest.raises(PoolExhaustedError):
                    exhausted.result(timeout=JOIN_TIMEOUT)
                assert healthy.result(timeout=JOIN_TIMEOUT).approved
        finally:
            gate.set()


# ----------------------------------------------------------------------
# Fleet coalescing: one shard round-trip per flushed batch
# ----------------------------------------------------------------------
class TestFleetCoalescing:
    def test_one_score_pass_per_drained_batch(self):
        lot, service, _ = build_world(7701, n_chips=5)
        fleet_config = FleetConfig(
            n_shards=2, n_challenges=64, inline=True, max_pending=64
        )
        gate = threading.Event()
        try:
            with ShardDispatcher(
                service.server, fleet_config, seed=7777
            ) as dispatcher:
                service.attach_fleet(dispatcher)
                with BatchingFrontend(
                    service, FrontendConfig(max_batch=16, max_pending=64)
                ) as frontend:
                    blocker = frontend.submit_identify(
                        GatedResponder(lot[4], gate)
                    )
                    wait_until(
                        lambda: frontend.stats["batches"] >= 1,
                        "blocker drain",
                    )
                    futures = [
                        frontend.submit_identify(chip) for chip in lot[:4]
                    ]
                    gate.set()
                    blocker.result(timeout=JOIN_TIMEOUT)
                    results = [
                        f.result(timeout=JOIN_TIMEOUT) for f in futures
                    ]
                    stats = frontend.stats

                # Four concurrent requests -> ONE coalesced shard
                # round-trip (plus the blocker's own), not one per
                # request.
                assert dispatcher.score_passes == 2
                assert stats["batches"] == 2
                for chip, result in zip(lot, results):
                    assert result.chip_id == chip.chip_id
                    assert result.coverage == 1.0
        finally:
            gate.set()


# ----------------------------------------------------------------------
# Asyncio facades
# ----------------------------------------------------------------------
class TestAsyncFacades:
    def test_gathered_coroutines(self):
        lot, service, _ = build_world(7801, n_chips=3)

        async def drive(frontend):
            auths = [
                frontend.authenticate_async(chip) for chip in lot
            ]
            idents = [frontend.identify_async(lot[0])]
            return await asyncio.gather(*auths, *idents)

        with BatchingFrontend(service) as frontend:
            results = asyncio.run(drive(frontend))
        for result in results[: len(lot)]:
            assert result.approved
        assert results[-1].chip_id == lot[0].chip_id


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_pending": 0},
            {"max_wait_us": -1.0},
            {"min_match_fraction": 0.0},
            {"min_match_fraction": 1.5},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FrontendConfig(**kwargs)

    def test_stats_shape(self):
        lot, service, _ = build_world(7901, n_chips=1)
        with BatchingFrontend(service) as frontend:
            frontend.authenticate(lot[0])
            stats = frontend.stats
        assert stats["submitted"] == 1
        assert stats["shed"] == 0
        assert stats["batches"] >= 1
        assert stats["mean_batch"] > 0
