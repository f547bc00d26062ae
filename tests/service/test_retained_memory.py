"""What a served request leaves behind on the heap.

A long-running service keeps one audit event per decision and one issued
key per challenge row (the no-replay record).  Everything else a request
allocates must be garbage once it returns, or a faster service grows its
resident set with its throughput.  These tests bound the retained bytes
per request with tracemalloc.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.server import AuthenticationServer
from repro.service import AuthenticationService, ServiceConfig, VirtualClock

pytestmark = [pytest.mark.service]

#: Retained bytes per request.  A zero-HD authentication keeps its
#: decision event with 64 row digests packed into one bytes value
#: (8 bytes a row) plus 8 bytes per issued key: ~1.4 KB here, against
#: ~5.5 KB while the event held 64 hex strings and ~12.1 KB while the
#: issued record was a set of hex strings.  An identification keeps one
#: slotted event that shares its batch's latency float and a cached
#: detail string: ~210 B, against ~320 B with a fresh detail and latency
#: per event and ~450 B with a per-instance event dict.
AUTH_RETAINED_BYTES = 1_800
IDENTIFY_RETAINED_BYTES = 260


@pytest.fixture(scope="module")
def service_and_chip(enrolled_chip_and_record):
    chip, record = enrolled_chip_and_record
    server = AuthenticationServer()
    server.register(record)
    config = ServiceConfig(
        max_requests_per_window=0, lockout_threshold=0, pool_capacity=10**9
    )
    service = AuthenticationService(server, config, seed=11, clock=VirtualClock())
    return service, chip


def _retained_per_request(serve, n_requests: int) -> float:
    """Heap bytes still held after *serve* ran *n_requests* requests."""
    serve(32)  # first-use caches (selector, codebook, labels) are not per request
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        serve(n_requests)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return grown / n_requests


def test_authentication_retains_little(service_and_chip):
    service, chip = service_and_chip

    def serve(n):
        for _ in range(n):
            assert service.authenticate(chip).approved

    per_request = _retained_per_request(serve, 300)
    assert per_request < AUTH_RETAINED_BYTES
    assert service.audit.replayed_digests() == {}


def test_identification_retains_little(service_and_chip):
    service, chip = service_and_chip

    def serve(n):
        for _ in range(n // 32):
            results = service.identify_many([chip] * 32)
            assert all(r.chip_id == chip.chip_id for r in results)

    per_request = _retained_per_request(serve, 32 * 40)
    assert per_request < IDENTIFY_RETAINED_BYTES
