"""repro.service -- the resilient authentication serving layer.

The online counterpart of the fault-tolerant *offline* campaign runtime
(:mod:`repro.engine.runtime`): where the runtime keeps a
trillion-measurement enrollment campaign alive across worker crashes,
this package keeps the *authentication path* alive across device
flakiness, environmental drift and adversarial probing, without ever
compromising the zero-HD protocol's no-replay invariant.

* :mod:`repro.service.service` -- :class:`AuthenticationService`, the
  supervised front end (deadlines, bounded retries, per-chip circuit
  breaker, rate limiting, budget accounting);
* :mod:`repro.service.frontend` -- :class:`BatchingFrontend`, the
  micro-batching request coalescer: concurrent client threads and
  asyncio coroutines submit into a bounded queue, a batching loop
  drains it, serving authentications slot by slot and
  identifications in one packed ``identify_many`` pass, bit-identical
  to sequential serving;
* :mod:`repro.service.drift` -- rolling-FRR drift monitor and the
  graceful-degradation ladder;
* :mod:`repro.service.resilience` -- circuit breaker and rate limiter
  state machines;
* :mod:`repro.service.budget` -- never-used challenge-pool accounting;
* :mod:`repro.service.events` -- structured audit events;
* :mod:`repro.service.scenario` -- the one scenario runner: a seeded
  population, traffic through the service (sequential or front-end
  waves), injected faults and a gated report.  ``serve-sim`` (drifting
  V/T, a flaky radio) and ``lifecycle-sim`` (churn, aging storms,
  revocation waves, persistence chaos) are its presets.

Every identification, from the CLI, the front end or a scenario, runs
the one in-process path: :meth:`AuthenticationService.identify_many`
-> :meth:`AuthenticationServer.identify_many` ->
:meth:`IdentificationCodebook.match_packed`.
"""

from repro.service.budget import ChallengeBudget, PoolExhaustedError
from repro.service.drift import DriftMonitor, DriftPolicy, MAX_RUNG
from repro.service.events import AuditLog, AuthEvent, AuthOutcome, challenge_digests
from repro.service.frontend import BatchingFrontend, FrontendConfig, OverloadError
from repro.service.resilience import BreakerState, CircuitBreaker, RateLimiter
from repro.service.service import (
    PROTOCOL_STUDY_CONFIG,
    AuthenticationService,
    ServiceConfig,
    ServiceResult,
)
from repro.service.scenario import (
    LifecycleConfig,
    ScenarioReport,
    VirtualClock,
    gate_exit,
    run_lifecycle_sim,
    run_serve_sim,
)

__all__ = [
    "AuditLog",
    "AuthEvent",
    "AuthOutcome",
    "AuthenticationService",
    "BatchingFrontend",
    "BreakerState",
    "ChallengeBudget",
    "CircuitBreaker",
    "DriftMonitor",
    "DriftPolicy",
    "FrontendConfig",
    "LifecycleConfig",
    "MAX_RUNG",
    "OverloadError",
    "PROTOCOL_STUDY_CONFIG",
    "PoolExhaustedError",
    "RateLimiter",
    "ServiceConfig",
    "ScenarioReport",
    "ServiceResult",
    "VirtualClock",
    "challenge_digests",
    "gate_exit",
    "run_lifecycle_sim",
    "run_serve_sim",
]
