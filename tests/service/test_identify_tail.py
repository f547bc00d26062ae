"""The service's identification tail: audit events and codebook seeding.

:meth:`AuthenticationService.identify_many` counts the active fleet,
takes the audit lock and reads the clock once per batch, and shares each
event's detail string through a cache.  The audit stream must still be
the one a per-event tail writes: one IDENTIFIED / UNIDENTIFIED event per
request, same fields, same values, same order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.server import AuthenticationServer
from repro.service import (
    AuthEvent,
    AuthOutcome,
    AuthenticationService,
    VirtualClock,
)
from repro.silicon.chip import fabricate_lot
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition

pytestmark = [pytest.mark.service]

N_STAGES = 32
CORNER = OperatingCondition(voltage=0.8, temperature=60.0)


@pytest.fixture(scope="module")
def lot_and_records():
    lot = fabricate_lot(4, 3, N_STAGES, seed=1300)
    server = AuthenticationServer()
    for index, chip in enumerate(lot[:3]):
        server.enroll(
            chip, seed=1301 + index,
            n_enroll_challenges=1200, n_validation_challenges=5000,
        )
    records = {c: server.record(c) for c in server.enrolled_ids}
    return lot, records


class SlowReader:
    """A device whose read takes a quarter second of virtual time."""

    def __init__(self, chip, clock):
        self._chip = chip
        self._clock = clock

    def xor_response(self, challenges, condition=NOMINAL_CONDITION):
        self._clock.advance(0.25)
        return self._chip.xor_response(challenges, condition)


def expected_events(service, results, conditions, *, seq, request, latency):
    """The events a per-event tail writes for *results*."""
    n_active = len(service.server.active_ids)
    events = []
    for offset, (result, condition) in enumerate(zip(results, conditions)):
        events.append(AuthEvent(
            seq=seq + offset,
            request=request + offset,
            chip_id=result.chip_id,
            outcome=(
                AuthOutcome.IDENTIFIED if result.chip_id is not None
                else AuthOutcome.UNIDENTIFIED
            ),
            n_challenges=service.config.n_challenges,
            condition=str(condition),
            latency=latency,
            detail=(
                f"best match {result.match_fraction:.4f} across "
                f"{n_active} identities"
            ),
        ))
    return events


def test_audit_stream_matches_per_event_tail(lot_and_records):
    lot, records = lot_and_records
    clock = VirtualClock(start=3.0)
    service = AuthenticationService(
        AuthenticationServer(records), seed=5, clock=clock
    )
    service.authenticate(lot[1])  # earlier traffic: seq and request offsets
    service.revoke(lot[2].chip_id)
    stranger = lot[3]
    for batch in range(2):
        responders = [lot[0], SlowReader(lot[1], clock), stranger, lot[1]]
        conditions = [NOMINAL_CONDITION, CORNER, NOMINAL_CONDITION, CORNER]
        seq, request = len(service.audit), service._requests
        start = clock()
        results = service.identify_many(responders, conditions=conditions)
        assert [r.chip_id for r in results] == [
            lot[0].chip_id, lot[1].chip_id, None, lot[1].chip_id,
        ]
        events = service.audit.events[seq:]
        assert list(events) == expected_events(
            service, results, conditions,
            seq=seq, request=request, latency=clock() - start,
        )
        assert events[0].latency == 0.25
        # Equal scores share one detail string.
        assert events[0].detail is events[1].detail


def test_numpy_integer_seed_seeds_the_codebook(lot_and_records):
    lot, records = lot_and_records
    stacked = []
    for seed in (np.int64(7), 7, np.int64(7)):
        server = AuthenticationServer(records)
        service = AuthenticationService(server, seed=seed, clock=VirtualClock())
        (result,) = service.identify_many([lot[0]])
        assert result.chip_id == lot[0].chip_id
        book = server.codebook(service.config.n_challenges)
        assert book.seed == 7
        stacked.append(book.stacked_challenges)
    np.testing.assert_array_equal(stacked[0], stacked[1])
    np.testing.assert_array_equal(stacked[2], stacked[1])
