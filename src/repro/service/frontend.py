"""The micro-batching front end: coalesce concurrent traffic into batched calls.

:class:`AuthenticationService` serves one request per call.  Its
:meth:`~AuthenticationService.identify_many` amortizes one packed
codebook pass across a batch -- but only if somebody *builds* the
batch.  This module is that somebody: :class:`BatchingFrontend` accepts
concurrent submissions from many client threads (and asyncio
coroutines), parks them in a bounded queue, and a single batching loop
drains the queue.  Under load, batches form naturally: while one drain
executes, the next requests pile up behind it.

Correctness contract -- batching is **invisible** in the results:

* every decision is bit-identical to the same requests served as
  sequential per-request calls in submission order.  A drained batch is
  cut into runs of one kind; an authentication run is served slot by
  slot through :meth:`AuthenticationService.authenticate_batch` (each
  Fig.-7 session owns its challenges, budget and device read, so there
  is nothing to share), and only an identification run shares a packed
  pass;
* audit events, request numbers and challenge accounting come out
  exactly as the sequential order would produce them;
* a failed request poisons nobody: authentication exceptions (e.g. the
  typed :class:`~repro.service.budget.PoolExhaustedError`) are captured
  per slot by :meth:`AuthenticationService.authenticate_batch`, and a
  device that dies mid-identification is zero-filled out of the packed
  pass and handed its exception alone (the zero rows score far below
  any sane threshold and cannot perturb its batchmates' rows);
* a full queue refuses the submission with a typed
  :class:`OverloadError` and records an ``OVERLOAD_SHED`` audit event
  through the service: zero challenges issued, zero per-chip state
  touched, batchmates untouched;
* per-request deadlines survive queueing: an explicit deadline is
  charged for the time the request spent waiting (measured on the
  service's own clock), so a request that expires in the queue is
  denied ``DEADLINE_EXCEEDED`` at admission exactly like a sequential
  call that ran out of time.

A drained identification run is one
:meth:`AuthenticationService.identify_many` call, so one front-end
flush costs one packed codebook pass for the whole run -- scoring
passes coalesce *across* client requests.

The batching policy (:class:`FrontendConfig`):

* ``max_batch`` caps how many requests share one drain;
* ``adaptive_flush=True`` (default) never dwells -- the loop serves
  whatever is queued the moment it is free, and relies on execution
  backpressure to build batches (lowest idle latency, full batches
  under load);
* ``adaptive_flush=False`` dwells up to ``max_wait_us`` after the
  first request arrives, waiting for stragglers to fill the batch --
  a throughput-biased policy for bursty open-loop traffic.

Thread-safety: the loop thread is the *only* thread that touches the
wrapped service (submitters just enqueue), so the single-threaded
:class:`AuthenticationService` needs no internal locking.  The one
exception is the shed audit event, recorded straight from the
submitter thread -- a refusal that queued behind the in-flight batch
would not be load shedding -- and kept safe by the service's own
atomic audit append (``AuthenticationService._audit_lock``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import itertools
import threading
import time
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.authentication import Responder
from repro.core.server import IdentificationResult
from repro.service.service import AuthenticationService, ServiceResult
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.utils.validation import check_positive_int

__all__ = ["BatchingFrontend", "FrontendConfig", "OverloadError"]


class OverloadError(RuntimeError):
    """The bounded request queue is full; the request was shed, not dropped.

    Carries enough context for the caller to back off intelligently.
    """

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"front-end queue full: {pending} pending requests at the "
            f"configured bound of {limit}; request refused"
        )
        self.pending = pending
        self.limit = limit


@dataclasses.dataclass(frozen=True)
class FrontendConfig:
    """Batching policy of the coalescing front end.

    Attributes
    ----------
    max_batch:
        Most requests one drained pass may serve.
    max_wait_us:
        With ``adaptive_flush=False``: how long (microseconds, host
        clock) the loop dwells after the first queued request, waiting
        for stragglers to fill the batch.  Ignored when adaptive.
    max_pending:
        Bound of the submission queue; a submission beyond it is shed
        with a typed :class:`OverloadError`.
    adaptive_flush:
        ``True`` -- flush as soon as the loop is free (batches form
        from execution backpressure); ``False`` -- dwell up to
        ``max_wait_us`` for a fuller batch.
    min_match_fraction:
        Default identification threshold for :meth:`identify`
        submissions that do not pass their own.
    """

    max_batch: int = 64
    max_wait_us: float = 200.0
    max_pending: int = 256
    adaptive_flush: bool = True
    min_match_fraction: float = 0.95

    def __post_init__(self) -> None:
        check_positive_int(self.max_batch, "max_batch")
        check_positive_int(self.max_pending, "max_pending")
        if self.max_wait_us < 0:
            raise ValueError(
                f"max_wait_us must be >= 0, got {self.max_wait_us}"
            )
        if not 0 < self.min_match_fraction <= 1:
            raise ValueError(
                "min_match_fraction must be in (0, 1], got "
                f"{self.min_match_fraction}"
            )


@dataclasses.dataclass
class _QueuedRequest:
    """One parked submission, demuxed back through its future."""

    kind: str  # "auth" | "identify"
    responder: Responder
    future: "concurrent.futures.Future"
    claimed_id: Optional[str] = None
    condition: OperatingCondition = NOMINAL_CONDITION
    deadline: Optional[float] = None
    min_match_fraction: float = 0.95
    return_scores: bool = False
    enqueued_at: float = 0.0  # service clock, for deadline accounting

    def run_key(self) -> Tuple:
        """Requests with equal keys may share one run."""
        if self.kind == "auth":
            return ("auth",)
        return ("identify", self.min_match_fraction, self.return_scores)


class _GuardedResponder:
    """Shield a packed identification pass from one device's failure.

    The batched plane reads every device up front and scores the stack
    in one pass; an exception mid-stack would abort batchmates that
    already answered (and re-reading them in a fallback would advance
    their noise streams -- observably different from sequential
    serving).  The guard reads each device exactly once: a raising
    device contributes a zero row (scored, but an agreement of ~50%
    can never cross an identification threshold, so batchmates'
    independent rows are untouched) and its exception is delivered to
    its own future during demux.
    """

    def __init__(self, responder: Responder) -> None:
        self._responder = responder
        self.error: Optional[BaseException] = None

    def xor_response(self, challenges, condition=None) -> np.ndarray:
        if self.error is None:
            try:
                return np.asarray(
                    self._responder.xor_response(challenges, condition)
                )
            except Exception as exc:
                self.error = exc
        return np.zeros(len(challenges), dtype=np.int8)


class BatchingFrontend:
    """Thread-safe / asyncio front door that micro-batches a service.

    Parameters
    ----------
    service:
        The wrapped :class:`AuthenticationService`.  The front end
        becomes its sole caller: route *all* concurrent traffic here
        (direct service calls from other threads would race the loop).
    config:
        The :class:`FrontendConfig` batching policy.

    Examples
    --------
    Threads::

        frontend = BatchingFrontend(service)
        result = frontend.authenticate(chip)          # blocks
        future = frontend.submit_authenticate(chip)   # does not

    asyncio::

        result = await frontend.authenticate_async(chip)

    Close with :meth:`close` (or use as a context manager); queued
    requests are served before the loop exits.
    """

    def __init__(
        self,
        service: AuthenticationService,
        config: Optional[FrontendConfig] = None,
    ) -> None:
        self._service = service
        self.config = config if config is not None else FrontendConfig()
        self._queue: Deque[_QueuedRequest] = deque()
        self._mutex = threading.Lock()
        self._not_empty = threading.Condition(self._mutex)
        self._service_lock = threading.Lock()
        self._closed = False
        self._submitted = 0
        self._shed = 0
        self._batches = 0
        self._runs = 0
        self._largest_batch = 0
        self._loop_thread = threading.Thread(
            target=self._loop, name="repro-frontend", daemon=True
        )
        self._loop_thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "BatchingFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop accepting, serve everything queued, stop the loop."""
        with self._not_empty:
            if self._closed:
                return
            self._closed = True
            self._not_empty.notify_all()
        self._loop_thread.join()

    @property
    def service(self) -> AuthenticationService:
        """The wrapped service."""
        return self._service

    @property
    def stats(self) -> dict:
        """Coalescing counters (submitted / shed / batches / runs)."""
        with self._mutex:
            submitted, shed = self._submitted, self._shed
            batches, runs = self._batches, self._runs
            largest = self._largest_batch
        served = submitted - shed
        return {
            "submitted": submitted,
            "shed": shed,
            "batches": batches,
            "runs": runs,
            "largest_batch": largest,
            "mean_batch": served / batches if batches else 0.0,
        }

    # ------------------------------------------------------------------
    # Submission facades
    # ------------------------------------------------------------------
    def submit_authenticate(
        self,
        responder: Responder,
        *,
        claimed_id: Optional[str] = None,
        condition: OperatingCondition = NOMINAL_CONDITION,
        deadline: Optional[float] = None,
    ) -> "concurrent.futures.Future[ServiceResult]":
        """Enqueue one authentication; resolve via the returned future.

        The future carries the request's :class:`ServiceResult`, or the
        exception the same sequential :meth:`~AuthenticationService.authenticate`
        call would have raised.  Raises :class:`OverloadError`
        immediately (shedding the request, audibly) when the queue is
        at its bound.
        """
        return self._enqueue(
            _QueuedRequest(
                kind="auth", responder=responder, claimed_id=claimed_id,
                condition=condition, deadline=deadline,
                future=concurrent.futures.Future(),
            )
        )

    def authenticate(self, responder: Responder, **kwargs) -> ServiceResult:
        """Blocking facade over :meth:`submit_authenticate`."""
        return self.submit_authenticate(responder, **kwargs).result()

    async def authenticate_async(
        self, responder: Responder, **kwargs
    ) -> ServiceResult:
        """Asyncio facade: awaitable :meth:`submit_authenticate`."""
        return await asyncio.wrap_future(
            self.submit_authenticate(responder, **kwargs)
        )

    def submit_identify(
        self,
        responder: Responder,
        *,
        condition: OperatingCondition = NOMINAL_CONDITION,
        min_match_fraction: Optional[float] = None,
        return_scores: bool = False,
    ) -> "concurrent.futures.Future[IdentificationResult]":
        """Enqueue one 1:N identification; resolve via the future.

        Identifications sharing a drain (and the same threshold /
        score-reporting options) are served by one packed codebook
        pass.
        """
        return self._enqueue(
            _QueuedRequest(
                kind="identify", responder=responder, condition=condition,
                min_match_fraction=(
                    self.config.min_match_fraction
                    if min_match_fraction is None else min_match_fraction
                ),
                return_scores=return_scores,
                future=concurrent.futures.Future(),
            )
        )

    def identify(self, responder: Responder, **kwargs) -> IdentificationResult:
        """Blocking facade over :meth:`submit_identify`."""
        return self.submit_identify(responder, **kwargs).result()

    async def identify_async(
        self, responder: Responder, **kwargs
    ) -> IdentificationResult:
        """Asyncio facade: awaitable :meth:`submit_identify`."""
        return await asyncio.wrap_future(
            self.submit_identify(responder, **kwargs)
        )

    # ------------------------------------------------------------------
    # Queue
    # ------------------------------------------------------------------
    def _enqueue(self, item: _QueuedRequest) -> "concurrent.futures.Future":
        with self._not_empty:
            if self._closed:
                raise RuntimeError("frontend is closed")
            if len(self._queue) >= self.config.max_pending:
                self._shed += 1
                self._submitted += 1
                pending = len(self._queue)
                shed_id = item.claimed_id or getattr(
                    item.responder, "chip_id", None
                )
            else:
                item.enqueued_at = self._service._clock()
                self._queue.append(item)
                self._submitted += 1
                self._not_empty.notify()
                return item.future
        # Shed outside the queue lock -- and WITHOUT the service lock:
        # a refusal that waits behind the in-flight batch is not load
        # shedding.  The service's audit append is internally atomic
        # (AuthenticationService._audit_lock), so recording from the
        # submitter thread cannot corrupt sequence numbers.
        detail = (
            f"front-end queue full at {pending} pending "
            f"(bound {self.config.max_pending}); {item.kind} refused"
        )
        self._service.record_shed(shed_id, detail)
        raise OverloadError(pending, self.config.max_pending)

    # ------------------------------------------------------------------
    # The batching loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._not_empty:
                while not self._queue and not self._closed:
                    self._not_empty.wait()
                if not self._queue and self._closed:
                    return
                if (
                    not self.config.adaptive_flush
                    and not self._closed
                    and self.config.max_wait_us > 0
                ):
                    # Dwell for stragglers: hold the drain until the
                    # batch fills or the wait budget runs out.
                    dwell_until = (
                        time.monotonic() + self.config.max_wait_us / 1e6
                    )
                    while (
                        len(self._queue) < self.config.max_batch
                        and not self._closed
                    ):
                        remaining = dwell_until - time.monotonic()
                        if remaining <= 0:
                            break
                        self._not_empty.wait(timeout=remaining)
                batch = [
                    self._queue.popleft()
                    for _ in range(
                        min(len(self._queue), self.config.max_batch)
                    )
                ]
                self._batches += 1
                self._largest_batch = max(self._largest_batch, len(batch))
            with self._service_lock:
                self._execute(batch)

    def _split_runs(
        self, batch: Sequence[_QueuedRequest]
    ) -> List[List[_QueuedRequest]]:
        """Cut one drained batch into runs of equal :meth:`run_key`.

        Runs preserve submission order; a new run starts whenever the
        request kind (or identification options) changes.
        """
        return [
            list(run)
            for _, run in itertools.groupby(batch, key=_QueuedRequest.run_key)
        ]

    def _effective_deadline(self, item: _QueuedRequest) -> Optional[float]:
        """Charge queue time against an explicit per-request deadline.

        A sequential caller's clock starts at admission; a queued
        request must not gain budget by waiting, so the wait (on the
        service clock) is deducted.  A request that expired in the
        queue is still admitted with a zero budget and denied
        ``DEADLINE_EXCEEDED`` -- the same audited decision a
        sequential call that ran out of time renders.  ``None``
        (meaning the service-config default, measured from admission)
        passes through untouched.
        """
        if item.deadline is None:
            return None
        waited = self._service._clock() - item.enqueued_at
        return max(0.0, item.deadline - waited)

    def _execute(self, batch: Sequence[_QueuedRequest]) -> None:
        for run in self._split_runs(batch):
            with self._mutex:
                self._runs += 1
            try:
                if run[0].kind == "auth":
                    self._execute_auth(run)
                else:
                    self._execute_identify(run)
            except BaseException as exc:  # pragma: no cover - safety net
                for item in run:
                    if not item.future.done():
                        item.future.set_exception(exc)

    def _execute_auth(self, run: Sequence[_QueuedRequest]) -> None:
        results = self._service.authenticate_batch(
            [item.responder for item in run],
            [item.claimed_id for item in run],
            conditions=[item.condition for item in run],
            deadlines=[self._effective_deadline(item) for item in run],
        )
        for item, result in zip(run, results):
            if isinstance(result, BaseException):
                item.future.set_exception(result)
            else:
                item.future.set_result(result)

    def _execute_identify(self, run: Sequence[_QueuedRequest]) -> None:
        guards = [_GuardedResponder(item.responder) for item in run]
        try:
            results = self._service.identify_many(
                guards,
                conditions=[item.condition for item in run],
                min_match_fraction=run[0].min_match_fraction,
                return_scores=run[0].return_scores,
            )
        except Exception as exc:
            # A batch-level refusal (e.g. no identities enrolled) is
            # what every sequential call would have gotten too.
            for item in run:
                item.future.set_exception(exc)
            return
        for item, guard, result in zip(run, guards, results):
            if guard.error is not None:
                item.future.set_exception(guard.error)
            else:
                item.future.set_result(result)
