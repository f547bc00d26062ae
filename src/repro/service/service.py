"""The resilient authentication front end (:class:`AuthenticationService`).

The service is the one Fig.-7 authenticator.  It draws each session's
challenges from the selectors of an
:class:`~repro.core.server.AuthenticationServer` (the enrollment
database) and scores the answers with
:func:`~repro.core.authentication.score_responses`, inside the
machinery a serving deployment needs when the responders are flaky
radios in drifting environments and some of the "responders" are
adversaries:

* every authentication is a **supervised request** with a deadline and
  bounded device-read retries (each retry issues a *fresh* challenge
  set -- transcripts are never replayed);
* a per-chip **circuit breaker** stops a persistently failing device
  from burning challenge budget and latency (closed -> open ->
  half-open probe);
* a per-chip **rate limiter + lockout** throttles brute-force and
  chosen-challenge probing;
* a **drift monitor** watches the rolling false-reject rate and walks
  the graceful-degradation ladder (zero-HD one-shot -> k-shot majority
  vote -> threshold re-tightening), see :mod:`repro.service.drift`;
* **challenge-budget accounting** charges every issued challenge to a
  per-chip pool and refuses with :class:`PoolExhaustedError` rather
  than replaying;
* everything is recorded as structured :class:`AuthEvent` audit
  records, from which the no-replay invariant is checkable.

Fault hooks: a :class:`repro.faults.FaultPlan` wired through
``faults=`` fires at :attr:`Site.SERVICE_REQUEST` (request admission)
and :attr:`Site.SERVICE_READ` (each device-read attempt), so the whole
failure surface is exercisable deterministically in tests and in the
``serve-sim`` traffic simulator.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines.majority_vote import majority_vote_responses
from repro.core.authentication import (
    AuthResult,
    DeviceReadError,
    Responder,
    score_responses,
)
from repro.core.enrollment import EnrollmentRecord
from repro.core.lifecycle import RevocationRecord, RevokedChipError
from repro.core.selection import ChallengeSelector
from repro.core.server import (
    AuthenticationServer,
    IdentificationResult,
    UnknownChipError,
)
from repro.faults import FaultPlan, Site
from repro.service.budget import ChallengeBudget, PoolExhaustedError
from repro.service.drift import MAX_RUNG, DriftMonitor, DriftPolicy
from repro.service.events import (
    AuditLog,
    AuthEvent,
    AuthOutcome,
    PackedDigests,
    challenge_digests,
)
from repro.service.fleet.dispatcher import OverloadError
from repro.service.resilience import CircuitBreaker, RateLimiter
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.utils.rng import SeedLike, derive_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "AuthenticationService",
    "PROTOCOL_STUDY_CONFIG",
    "ServiceConfig",
    "ServiceResult",
]


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """All knobs of the resilient serving path, in one picklable bag.

    Attributes
    ----------
    n_challenges:
        Challenges exchanged per session (the paper uses 64).
    tolerance:
        Mismatch budget (0 = the paper's zero-HD policy).
    max_read_attempts:
        Device-read attempts per request; each failed attempt burns its
        issued challenge set and the next attempt issues a fresh one.
    deadline:
        Default per-request time budget in seconds (``None`` =
        unbounded; a per-call deadline overrides it).
    breaker_failure_threshold / breaker_cooldown:
        Circuit-breaker trip count and open-state cooldown.
    max_requests_per_window / window_seconds:
        Per-chip throttle (0 requests disables throttling).
    lockout_threshold / lockout_seconds:
        Consecutive rejections that lock the identity out, and for how
        long (0 disables the lockout).
    drift:
        Rolling-FRR escalation policy of the degradation ladder.
    majority_votes:
        Device reads per challenge on ladder rungs >= 1.
    retighten_beta0 / retighten_beta1:
        Threshold scaling of the rung-2 selector
        (:meth:`~repro.core.thresholds.ThresholdPair.scale`); the
        defaults widen the unstable band aggressively, i.e. *tighten*
        selection -- corner-drift flips are largely deterministic, so
        majority voting alone cannot rescue them and the margin has to
        come from selection (the paper's Sec.-5.2 beta validation).
    pool_capacity:
        Provisioned never-used challenge pool per chip.
    low_water_fraction:
        Remaining pool fraction that triggers the low-water warning.
    """

    n_challenges: int = 64
    tolerance: int = 0
    max_read_attempts: int = 3
    deadline: Optional[float] = None
    breaker_failure_threshold: int = 3
    breaker_cooldown: float = 30.0
    max_requests_per_window: int = 30
    window_seconds: float = 60.0
    lockout_threshold: int = 5
    lockout_seconds: float = 120.0
    drift: DriftPolicy = DriftPolicy()
    majority_votes: int = 5
    retighten_beta0: float = 0.25
    retighten_beta1: float = 2.2
    pool_capacity: int = 100_000
    low_water_fraction: float = 0.10

    def __post_init__(self) -> None:
        check_positive_int(self.n_challenges, "n_challenges")
        check_positive_int(self.max_read_attempts, "max_read_attempts")
        check_positive_int(self.majority_votes, "majority_votes")
        check_positive_int(self.pool_capacity, "pool_capacity")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.retighten_beta0 <= 0 or self.retighten_beta1 <= 0:
            raise ValueError(
                "retighten betas must be positive, got "
                f"{self.retighten_beta0}, {self.retighten_beta1}"
            )


#: Throttling and lockout off: protocol studies (the CLI ``auth``
#: command, T-text-3, the examples) measure the protocol, not the
#: rate limiter.
PROTOCOL_STUDY_CONFIG = ServiceConfig(max_requests_per_window=0, lockout_threshold=0)


@dataclasses.dataclass(frozen=True)
class ServiceResult:
    """Outcome of one supervised authentication request.

    Attributes
    ----------
    request:
        Request sequence number (joins the audit log).
    chip_id:
        Claimed identity (``None`` if it could not be resolved).
    outcome:
        Decision outcome (see :class:`AuthOutcome`).
    rung:
        Degradation-ladder rung the request was served at.
    attempts:
        Device-read attempts consumed.
    challenges_spent:
        Never-used challenges charged to the chip's pool.
    latency:
        Seconds from admission to decision (service clock).
    auth:
        The scored :class:`AuthResult` when a session completed with a
        well-formed answer.
    detail:
        Human-readable context for non-scored outcomes.
    """

    request: int
    chip_id: Optional[str]
    outcome: AuthOutcome
    rung: int = 0
    attempts: int = 0
    challenges_spent: int = 0
    latency: float = 0.0
    auth: Optional[AuthResult] = None
    detail: str = ""

    @property
    def approved(self) -> bool:
        """Server verdict (only :attr:`AuthOutcome.APPROVED` approves)."""
        return self.outcome is AuthOutcome.APPROVED


def _digest_keys(digests: Sequence[str]) -> np.ndarray:
    """The 8-byte values of hex challenge digests, as ``uint64``.

    Hex text and its 8 bytes are a bijection, so membership by key is
    exactly membership by digest, at 8 bytes a row.  Packed digests are
    read as they are stored.
    """
    return np.frombuffer(PackedDigests.of(digests).raw, dtype=">u8").astype(
        np.uint64
    )


def _issued_mask(issued: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which *keys* the sorted *issued* array holds."""
    at = np.searchsorted(issued, keys)
    found = at < len(issued)
    found[found] = issued[at[found]] == keys[found]
    return found


@functools.lru_cache(maxsize=64)
def _condition_label(condition: OperatingCondition) -> str:
    """``str(condition)``, built once per condition: every audit event
    holds one."""
    return str(condition)


@functools.lru_cache(maxsize=1024)
def _identify_detail(match_fraction: float, n_active: int, coverage: float) -> str:
    """An identification event's detail, shared by equal events."""
    detail = f"best match {match_fraction:.4f} across {n_active} identities"
    if coverage < 1.0:
        detail += f" (degraded: coverage {coverage:.3f})"
    return detail


class _ChipState:
    """Per-identity serving state (breaker, limiter, drift, budget)."""

    def __init__(
        self,
        chip_id: str,
        config: ServiceConfig,
        clock: Callable[[], float],
    ) -> None:
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_failure_threshold,
            cooldown=config.breaker_cooldown,
            clock=clock,
        )
        self.limiter = RateLimiter(
            max_requests=config.max_requests_per_window,
            window=config.window_seconds,
            lockout_threshold=config.lockout_threshold,
            lockout_seconds=config.lockout_seconds,
            clock=clock,
        )
        self.drift = DriftMonitor(config.drift)
        self.budget = ChallengeBudget(
            chip_id=chip_id,
            capacity=config.pool_capacity,
            low_water_fraction=config.low_water_fraction,
        )
        self.nonce = 0
        #: Sorted 8-byte values of every digest ever issued (see
        #: :func:`_digest_keys`).
        self.issued = np.empty(0, dtype=np.uint64)
        self.retighten_announced = False
        self.retighten_committed = False
        self.tightened_selector: Optional[ChallengeSelector] = None


class AuthenticationService:
    """Drift-aware, fault-bounded front end over an enrollment database.

    Parameters
    ----------
    server:
        The wrapped :class:`~repro.core.server.AuthenticationServer`.
    config:
        Serving knobs (defaults reproduce a sane small deployment).
    seed:
        Root seed of the per-session challenge selection streams.  Each
        issued set derives from ``(seed, "service", chip_id, nonce)``
        with a per-chip monotone nonce, so no two sessions -- and no
        two retry attempts -- ever share a selection stream.
    clock:
        Monotonic time source; inject a virtual clock for deterministic
        breaker/limiter/deadline behaviour in tests and simulations.
    faults:
        Optional deterministic fault plan (see :mod:`repro.faults`).
    audit:
        Optional externally owned audit log (a fresh one by default).
    """

    def __init__(
        self,
        server: AuthenticationServer,
        config: Optional[ServiceConfig] = None,
        *,
        seed: SeedLike = None,
        clock: Callable[[], float] = time.monotonic,
        faults: Optional[FaultPlan] = None,
        audit: Optional[AuditLog] = None,
    ) -> None:
        self._server = server
        self.config = config if config is not None else ServiceConfig()
        self._seed = seed
        self._clock = clock
        self._faults = faults
        self.audit = audit if audit is not None else AuditLog()
        self.warnings: List[str] = []
        self._chips: Dict[str, _ChipState] = {}
        self._requests = 0
        self._reads = 0
        self._fleet = None
        # Audit appends must stay atomic even when an overload shed is
        # recorded from a submitter thread while the batching loop is
        # mid-request (see BatchingFrontend): sequence numbers come
        # from the log length, so two unsynchronized appends could
        # claim one seq.
        self._audit_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def server(self) -> AuthenticationServer:
        """The wrapped protocol server."""
        return self._server

    def attach_fleet(self, dispatcher) -> None:
        """Route :meth:`identify_many` through a sharded fleet.

        *dispatcher* is a :class:`~repro.service.fleet.ShardDispatcher`
        (duck-typed: anything with a compatible ``identify_many``).
        The service keeps emitting its usual IDENTIFIED/UNIDENTIFIED
        audit events; degraded batches additionally note their
        coverage in the event detail.
        """
        self._fleet = dispatcher

    def detach_fleet(self) -> None:
        """Return :meth:`identify_many` to the in-process codebook."""
        self._fleet = None

    @property
    def flagged_chips(self) -> List[str]:
        """Chips flagged for threshold re-tightening (reached rung 2)."""
        return sorted(
            chip_id
            for chip_id, state in self._chips.items()
            if state.drift.flagged_for_retightening
        )

    def chip_status(self, chip_id: str) -> Dict[str, object]:
        """Operator snapshot of one identity's serving state."""
        state = self._state(chip_id)
        return {
            "chip_id": chip_id,
            "rung": state.drift.rung,
            "rolling_frr": state.drift.rolling_frr,
            "flagged_for_retightening": state.drift.flagged_for_retightening,
            "breaker_state": state.breaker.state.value,
            "locked_out": state.limiter.locked_out,
            "budget_remaining": state.budget.remaining,
            "budget_low_water": state.budget.low_water,
            "challenges_spent": state.budget.spent,
            "challenges_released": state.budget.released,
            "revoked": self._server.is_revoked(chip_id),
        }

    # ------------------------------------------------------------------
    # The supervised request
    # ------------------------------------------------------------------
    def authenticate(
        self,
        responder: Responder,
        *,
        claimed_id: Optional[str] = None,
        condition: OperatingCondition = NOMINAL_CONDITION,
        deadline: Optional[float] = None,
    ) -> ServiceResult:
        """Run one supervised authentication request.

        The service always renders a decision: every admission
        failure, fast-fail, retry exhaustion and malformed answer comes
        back as a :class:`ServiceResult` with the matching
        :class:`AuthOutcome` (and an audit trail).  The single exception
        is pool exhaustion, which raises the typed
        :class:`PoolExhaustedError` after logging: an operator must
        intervene, the service will never replay a challenge.
        """
        request = self._requests
        self._requests += 1
        start = self._clock()
        deadline = self.config.deadline if deadline is None else deadline

        if claimed_id is None:
            claimed_id = getattr(responder, "chip_id", None)
            if claimed_id is None:
                raise ValueError(
                    "responder has no chip_id attribute; pass claimed_id explicitly"
                )
        try:
            self._server.record(claimed_id)
        except UnknownChipError as exc:
            self._emit(request, claimed_id, AuthOutcome.UNKNOWN_CHIP,
                       start=start, detail=str(exc))
            return ServiceResult(
                request=request, chip_id=claimed_id,
                outcome=AuthOutcome.UNKNOWN_CHIP,
                latency=self._clock() - start, detail=str(exc),
            )
        revocation = self._server.revocation(claimed_id)
        if revocation is not None:
            # Fast-fail before any per-chip state is touched: a revoked
            # identity gets no challenges, no breaker/limiter churn, no
            # transcript material whatsoever.
            detail = (
                f"identity revoked ({revocation.reason or 'no reason recorded'}"
                f", epoch {revocation.epoch})"
            )
            self._emit(request, claimed_id, AuthOutcome.REVOKED,
                       start=start, detail=detail)
            return ServiceResult(
                request=request, chip_id=claimed_id,
                outcome=AuthOutcome.REVOKED,
                latency=self._clock() - start, detail=detail,
            )

        state = self._state(claimed_id)

        def deny(outcome: AuthOutcome, detail: str = "", *,
                 rung: int = 0, attempts: int = 0,
                 spent: int = 0) -> ServiceResult:
            self._emit(request, claimed_id, outcome, start=start, rung=rung,
                       attempt=attempts, state=state, detail=detail,
                       condition=_condition_label(condition))
            return ServiceResult(
                request=request, chip_id=claimed_id, outcome=outcome,
                rung=rung, attempts=attempts, challenges_spent=spent,
                latency=self._clock() - start, detail=detail,
            )

        if not state.limiter.allow():
            return deny(
                AuthOutcome.RATE_LIMITED,
                "lockout active" if state.limiter.locked_out
                else "throttle window full",
                rung=state.drift.rung,
            )
        if not state.breaker.allow():
            return deny(AuthOutcome.BREAKER_OPEN, "circuit breaker open",
                        rung=state.drift.rung)
        state.limiter.record_admitted()

        rung = state.drift.rung
        selector = self._selector_for(claimed_id, state, rung)
        spent = 0

        try:
            if self._faults is not None:
                self._faults.check(Site.SERVICE_REQUEST, request)
        except DeviceReadError as exc:
            state.breaker.record_failure()
            return deny(AuthOutcome.DEVICE_ERROR, str(exc), rung=rung)

        for attempt in range(self.config.max_read_attempts):
            if deadline is not None and self._clock() - start >= deadline:
                state.breaker.record_failure()
                return deny(
                    AuthOutcome.DEADLINE_EXCEEDED,
                    f"deadline of {deadline}s exceeded before attempt {attempt}",
                    rung=rung, attempts=attempt, spent=spent,
                )

            challenges, predicted, digests = self._select_fresh(
                claimed_id, state, selector
            )
            try:
                crossed_low_water = state.budget.reserve(len(challenges))
            except PoolExhaustedError as exc:
                self._emit(request, claimed_id, AuthOutcome.POOL_EXHAUSTED,
                           start=start, rung=rung, attempt=attempt,
                           state=state, detail=str(exc))
                raise
            spent += len(challenges)
            keys = np.sort(_digest_keys(digests))
            state.issued = np.insert(
                state.issued, np.searchsorted(state.issued, keys), keys
            )
            if crossed_low_water:
                message = (
                    f"challenge pool of {claimed_id!r} below "
                    f"{state.budget.low_water_fraction:.0%} low-water mark "
                    f"({state.budget.remaining} remaining)"
                )
                self.warnings.append(message)
                self._emit(request, claimed_id, AuthOutcome.BUDGET_LOW,
                           start=start, rung=rung, attempt=attempt,
                           state=state, detail=message)

            try:
                responses = self._read(responder, challenges, condition, rung)
            except DeviceReadError as exc:
                self._emit(request, claimed_id, AuthOutcome.READ_FAILED,
                           start=start, rung=rung, attempt=attempt,
                           state=state, detail=str(exc), digests=digests,
                           n_challenges=len(challenges),
                           challenges_spent=len(challenges),
                           condition=_condition_label(condition))
                if attempt + 1 >= self.config.max_read_attempts:
                    state.breaker.record_failure()
                    return deny(
                        AuthOutcome.DEVICE_ERROR,
                        f"{attempt + 1} read attempts failed: {exc}",
                        rung=rung, attempts=attempt + 1, spent=spent,
                    )
                continue

            if deadline is not None and self._clock() - start >= deadline:
                state.breaker.record_failure()
                return deny(
                    AuthOutcome.DEADLINE_EXCEEDED,
                    f"deadline of {deadline}s exceeded during the device read",
                    rung=rung, attempts=attempt + 1, spent=spent,
                )
            break  # a completed read; every other path returned above

        attempts = attempt + 1
        auth: Optional[AuthResult] = None
        detail = ""
        try:
            auth = score_responses(
                responses, predicted, tolerance=self.config.tolerance,
                condition=condition, attempts=attempts,
            )
        except ValueError as exc:
            # A malformed answer is rejected and audited like any other
            # wrong answer, so a device that keeps sending garbage
            # meets the lockout.
            detail = str(exc)
        approved = auth is not None and auth.approved
        self._observe_decision(request, claimed_id, state, rung, approved, start)
        decision = AuthOutcome.APPROVED if approved else AuthOutcome.REJECTED
        self._emit(request, claimed_id, decision, start=start, rung=rung,
                   attempt=attempts, state=state, digests=digests,
                   n_challenges=len(challenges),
                   n_mismatches=None if auth is None else auth.n_mismatches,
                   challenges_spent=len(challenges), detail=detail,
                   condition=_condition_label(condition))
        return ServiceResult(
            request=request, chip_id=claimed_id, outcome=decision, rung=rung,
            attempts=attempts, challenges_spent=spent,
            latency=self._clock() - start, auth=auth, detail=detail,
        )

    def _per_item(
        self,
        name: str,
        n_items: int,
        values: Optional[Sequence],
        default,
    ) -> List:
        """Normalize a per-item override sequence against a batch default."""
        if values is None:
            return [default] * n_items
        if len(values) != n_items:
            raise ValueError(
                f"{n_items} responders but {len(values)} {name}"
            )
        return list(values)

    def authenticate_batch(
        self,
        responders: Sequence[Responder],
        claimed_ids: Optional[Sequence[Optional[str]]] = None,
        *,
        conditions: Optional[Sequence[OperatingCondition]] = None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
    ) -> List["ServiceResult | BaseException"]:
        """:meth:`authenticate` slot by slot, capturing each exception.

        The coalescing front end's demux path.  Every Fig.-7 session
        owns its admission, fresh challenge set, budget charge and
        device read, so a batch shares nothing worth packing: the slots
        run sequentially, which makes results and the audit stream
        identical to sequential serving by construction.  Each slot
        returns its :class:`ServiceResult` or the exception the same
        :meth:`authenticate` call raised (e.g. the typed
        :class:`PoolExhaustedError` after its audit event), so one
        poisoned request never takes its batchmates down.

        *claimed_ids* / *conditions* / *deadlines* optionally give every
        slot its own identity, operating condition and time budget.
        """
        n_items = len(responders)
        slots = zip(
            responders,
            self._per_item("claimed ids", n_items, claimed_ids, None),
            self._per_item("conditions", n_items, conditions, NOMINAL_CONDITION),
            self._per_item("deadlines", n_items, deadlines, None),
        )
        results: List["ServiceResult | BaseException"] = []
        for responder, claimed_id, condition, deadline in slots:
            try:
                results.append(self.authenticate(
                    responder, claimed_id=claimed_id,
                    condition=condition, deadline=deadline,
                ))
            except Exception as exc:
                results.append(exc)
        return results

    def identify_many(
        self,
        responders: Sequence[Responder],
        *,
        condition: OperatingCondition = NOMINAL_CONDITION,
        conditions: Optional[Sequence[OperatingCondition]] = None,
        min_match_fraction: float = 0.95,
        return_scores: bool = False,
    ) -> List[IdentificationResult]:
        """Batched 1:N identification over the server's codebook plane.

        All requests of the batch share one codebook sync (one epoch
        check) and one packed matching pass; each device answers the
        stacked codebook query once.  Every item is audited as an
        :attr:`AuthOutcome.IDENTIFIED` / ``UNIDENTIFIED`` event --
        without challenge digests, since codebook blocks are persistent
        identification material outside the no-replay pool accounting.
        *conditions* optionally gives each responder its own operating
        condition, overriding *condition* per item.

        With a fleet attached (:meth:`attach_fleet`) the batch is
        driven through the dispatcher's coalescing buffer
        (:meth:`~repro.service.fleet.ShardDispatcher.submit` /
        :meth:`~repro.service.fleet.ShardDispatcher.flush`) instead of
        the in-process codebook, so one service-level batch costs one
        shard round-trip; a batch larger than the fleet's
        ``max_pending`` bound is served in bound-sized passes rather
        than shed (identification rows are scored independently, so
        the split is invisible in the results).  Fleet results carry a
        ``coverage`` attribute and may be degraded (never wrong) while
        shards are down.
        """
        start = self._clock()
        seed = (
            int(self._seed) if isinstance(self._seed, (int, np.integer))
            else None
        )
        conditions = self._per_item(
            "conditions", len(responders), conditions, condition
        )
        if self._fleet is not None:
            results = []
            for responder, item_condition in zip(responders, conditions):
                try:
                    self._fleet.submit(responder, condition=item_condition)
                except OverloadError:
                    results.extend(
                        self._fleet.flush(
                            condition=condition,
                            min_match_fraction=min_match_fraction,
                            return_scores=return_scores,
                        )
                    )
                    self._fleet.submit(responder, condition=item_condition)
            results.extend(
                self._fleet.flush(
                    condition=condition,
                    min_match_fraction=min_match_fraction,
                    return_scores=return_scores,
                )
            )
        else:
            results = self._server.identify_many(
                responders,
                n_challenges=self.config.n_challenges,
                min_match_fraction=min_match_fraction,
                condition=condition,
                conditions=conditions,
                seed=seed,
                return_scores=return_scores,
            )
        # One audit tail per batch: the active count, the latency and
        # the lock are taken once.  A retained event is the log's cost
        # per request, so events share their latency float and a cached
        # detail string.
        n_active = len(self._server.active_ids)
        latency = self._clock() - start
        with self._audit_lock:
            for result, item_condition in zip(results, conditions):
                request = self._requests
                self._requests += 1
                self.audit.append(self._event(
                    request, result.chip_id,
                    AuthOutcome.IDENTIFIED if result.chip_id is not None
                    else AuthOutcome.UNIDENTIFIED,
                    latency=latency,
                    n_challenges=self.config.n_challenges,
                    detail=_identify_detail(
                        result.match_fraction,
                        n_active,
                        getattr(result, "coverage", 1.0),
                    ),
                    condition=_condition_label(item_condition),
                ))
        return results

    def record_shed(
        self, claimed_id: Optional[str], detail: str = ""
    ) -> None:
        """Audit one overload shed decided *upstream* of admission.

        The batching front end (:mod:`repro.service.frontend`) refuses
        submissions with a typed
        :class:`~repro.service.fleet.OverloadError` when its bounded
        queue is full; this hook makes the refusal audible in the
        service's own audit log.  A shed request never reached
        admission, so -- like the operator events -- it consumes no
        request number, issues no challenges and touches no per-chip
        state.
        """
        self._emit(
            self._requests, claimed_id, AuthOutcome.OVERLOAD_SHED,
            start=self._clock(), detail=detail,
        )

    def apply_retightening(self, chip_id: str) -> EnrollmentRecord:
        """Commit a drift-flagged chip's re-tightening into the database.

        The ladder's rung-2 selector tightens thresholds *transiently*
        (per serving session, see :meth:`_selector_for`); this operator
        action makes it durable: the scaled betas are folded into the
        stored :class:`EnrollmentRecord` via
        :meth:`AuthenticationServer.retighten`, which bumps the server
        epoch so identification codebook rows for the chip rebuild
        lazily.  The chip's transient rung-2 selector is dropped --
        after the commit the enrolled thresholds *are* the tightened
        ones (re-applying them on the ladder would tighten twice).
        """
        state = self._state(chip_id)
        record = self._server.retighten(
            chip_id, self.config.retighten_beta0, self.config.retighten_beta1
        )
        state.tightened_selector = None
        state.retighten_committed = True
        self._emit(
            self._requests, chip_id,
            AuthOutcome.RETIGHTEN_APPLIED, start=self._clock(),
            detail=(
                f"re-tightening committed: betas now {record.betas} "
                f"(epoch {self._server.epoch})"
            ),
        )
        return record

    def revoke(self, chip_id: str, reason: str = "") -> RevocationRecord:
        """Revoke an identity across the whole serving stack, now.

        One operator action threads the lifecycle transition through
        every layer: the server marks the identity terminally revoked
        and tombstones its codebook rows out of argmax
        (:meth:`AuthenticationServer.revoke`), the chip's unspent
        challenge budget is reclaimed
        (:meth:`~repro.service.budget.ChallengeBudget.release` -- the
        pool would otherwise leak forever), and an
        :attr:`AuthOutcome.REVOCATION_COMMITTED` audit event records
        who left and why.  Every subsequent request claiming this
        identity fast-fails as :attr:`AuthOutcome.REVOKED` without
        being issued a single challenge.

        Raises :class:`~repro.core.lifecycle.LifecycleError` on double
        revoke and :class:`UnknownChipError` for strangers -- both
        *before* anything is mutated.
        """
        revocation = self._server.revoke(chip_id, reason=reason)
        state = self._state(chip_id)
        reclaimed = state.budget.release()
        self._emit(
            self._requests, chip_id,
            AuthOutcome.REVOCATION_COMMITTED, start=self._clock(),
            state=state,
            challenges_spent=-reclaimed,
            detail=(
                f"revocation committed (epoch {revocation.epoch}): "
                f"{reason or 'no reason recorded'}; "
                f"{reclaimed} unspent challenges reclaimed"
            ),
        )
        return revocation

    @property
    def budget_stats(self) -> Dict[str, object]:
        """Fleet-wide challenge-pool accounting, including reclaimed capacity."""
        spent = sum(s.budget.spent for s in self._chips.values())
        released = sum(s.budget.released for s in self._chips.values())
        return {
            "chips": len(self._chips),
            "spent": spent,
            "released": released,
            "released_chips": sum(
                1 for s in self._chips.values() if s.budget.released
            ),
            "remaining": sum(s.budget.remaining for s in self._chips.values()),
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _state(self, chip_id: str) -> _ChipState:
        if chip_id not in self._chips:
            self._chips[chip_id] = _ChipState(chip_id, self.config, self._clock)
        return self._chips[chip_id]

    def _selector_for(
        self, chip_id: str, state: _ChipState, rung: int
    ) -> ChallengeSelector:
        """The rung's selector: enrolled thresholds, or re-tightened ones.

        Once :meth:`apply_retightening` has committed the tightening
        into the enrollment database, the enrolled thresholds already
        *are* the tightened ones, so even rung 2 serves from the
        server's selector (a transient overlay would tighten twice).
        """
        if rung < MAX_RUNG or state.retighten_committed:
            return self._server.selector(chip_id)
        if state.tightened_selector is None:
            record = self._server.record(chip_id)
            pairs = [
                pair.scale(self.config.retighten_beta0, self.config.retighten_beta1)
                for pair in record.adjusted_pairs
            ]
            state.tightened_selector = ChallengeSelector(record.xor_model, pairs)
        return state.tightened_selector

    def _select_fresh(
        self,
        chip_id: str,
        state: _ChipState,
        selector: ChallengeSelector,
    ) -> Tuple[np.ndarray, np.ndarray, PackedDigests]:
        """Select ``n_challenges`` never-issued challenges for *chip_id*.

        Each draw derives an independent stream from the per-chip nonce;
        rows that were ever issued before (across sessions, retries and
        ladder rungs) are dropped and redrawn, so the no-replay
        invariant is *enforced*, not merely probable.
        """
        n_needed = self.config.n_challenges
        kept_challenges: List[np.ndarray] = []
        kept_predicted: List[np.ndarray] = []
        kept_digests: List[str] = []
        batch_seen: Set[str] = set()
        for _ in range(32):
            seed = derive_generator(self._seed, "service", chip_id, state.nonce)
            state.nonce += 1
            challenges, predicted = selector.select(n_needed, seed)
            digests = challenge_digests(challenges)
            issued = _issued_mask(state.issued, _digest_keys(digests))
            for row, bit, digest, was_issued in zip(
                challenges, predicted, digests, issued
            ):
                if was_issued or digest in batch_seen:
                    continue
                batch_seen.add(digest)
                kept_challenges.append(row)
                kept_predicted.append(bit)
                kept_digests.append(digest)
            if len(kept_challenges) >= n_needed:
                return (
                    np.stack(kept_challenges[:n_needed]),
                    np.asarray(kept_predicted[:n_needed], dtype=np.int8),
                    PackedDigests.of(kept_digests[:n_needed]),
                )
        raise RuntimeError(
            f"could not collect {n_needed} never-issued challenges for "
            f"{chip_id!r}; the selectable stable space is effectively spent"
        )

    def _read(
        self,
        responder: Responder,
        challenges: np.ndarray,
        condition: OperatingCondition,
        rung: int,
    ) -> np.ndarray:
        """One device-read attempt (k-shot majority on degraded rungs)."""
        read_index = self._reads
        self._reads += 1
        if self._faults is not None:
            self._faults.check(Site.SERVICE_READ, read_index)
        if rung >= 1:
            return majority_vote_responses(
                lambda batch: responder.xor_response(batch, condition),
                challenges,
                self.config.majority_votes,
            )
        return np.asarray(responder.xor_response(challenges, condition))

    def _observe_decision(
        self,
        request: int,
        chip_id: str,
        state: _ChipState,
        rung: int,
        approved: bool,
        start: float,
    ) -> None:
        """Feed one scored verdict into the chip's breaker, limiter and ladder."""
        state.breaker.record_success()
        if approved:
            state.limiter.record_approved()
        else:
            state.limiter.record_rejected()
        new_rung = state.drift.observe(approved)
        if new_rung == rung:
            return
        outcome = (
            AuthOutcome.RUNG_ESCALATED if new_rung > rung
            else AuthOutcome.RUNG_RECOVERED
        )
        self._emit(request, chip_id, outcome, start=start, rung=new_rung,
                   state=state,
                   detail=f"rolling FRR moved rung {rung} -> {new_rung}")
        if (
            new_rung == MAX_RUNG
            and state.drift.flagged_for_retightening
            and not state.retighten_announced
        ):
            state.retighten_announced = True
            self._emit(
                request, chip_id, AuthOutcome.RETIGHTEN_FLAGGED,
                start=start, rung=new_rung, state=state,
                detail=(
                    "chip flagged for threshold re-tightening "
                    f"(beta0 x{self.config.retighten_beta0}, "
                    f"beta1 x{self.config.retighten_beta1})"
                ),
            )

    def _emit(
        self,
        request: int,
        chip_id: Optional[str],
        outcome: AuthOutcome,
        *,
        start: float,
        **fields,
    ) -> AuthEvent:
        with self._audit_lock:
            return self.audit.append(self._event(
                request, chip_id, outcome,
                latency=self._clock() - start, **fields,
            ))

    def _event(
        self,
        request: int,
        chip_id: Optional[str],
        outcome: AuthOutcome,
        *,
        latency: float,
        rung: int = 0,
        attempt: int = 0,
        state: Optional[_ChipState] = None,
        detail: str = "",
        digests: Sequence[str] = (),
        n_challenges: int = 0,
        n_mismatches: Optional[int] = None,
        challenges_spent: int = 0,
        condition: str = "",
    ) -> AuthEvent:
        """The next decision event; the caller holds ``_audit_lock``."""
        return AuthEvent(
            seq=len(self.audit),
            request=request,
            chip_id=chip_id,
            outcome=outcome,
            rung=rung,
            attempt=attempt,
            n_challenges=n_challenges,
            n_mismatches=n_mismatches,
            challenges_spent=challenges_spent,
            condition=condition,
            budget_remaining=(
                state.budget.remaining if state is not None else None
            ),
            breaker_state=(
                state.breaker.state.value if state is not None else ""
            ),
            latency=latency,
            detail=detail,
            digests=digests,
        )
