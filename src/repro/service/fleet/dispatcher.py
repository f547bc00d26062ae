"""The sharded identification front end: coalesce, dispatch, merge, degrade.

:class:`ShardDispatcher` is the single entry point of the fleet.  It
owns the shared-memory segments, keeps them in sync with the server's
mutation journal (content-only changes are written in place, membership
changes re-partition), coalesces concurrent ``identify`` /
``identify_many`` calls into one packed XOR + popcount pass per shard,
and merges per-shard winners deterministically -- bit-identical to the
single-process :meth:`AuthenticationServer.identify_many` when every
shard answers.

Robustness contract:

* **bounded queues** -- a batch (or the :meth:`submit` buffer) larger
  than ``max_pending`` raises a typed :class:`OverloadError`; load is
  shed explicitly and audibly (``OVERLOAD_SHED`` event), never dropped;
* **per-request deadlines** -- a shard that misses ``request_timeout``
  is uncovered for that request and handed to the supervisor, which
  kills hung workers and respawns dead ones behind exponential backoff;
* **degraded serving** -- with shards down, surviving shards still
  answer; every result carries ``coverage`` (searched active rows /
  total active rows) and the batch is flagged with a structured
  ``DEGRADED_SERVE`` event.  A degraded answer can miss the true
  identity (it may live on the dead shard) but can never name a wrong
  one: cross-identity agreement sits near 0.5, far under any sane
  threshold;
* **stale-epoch rejection** -- replies echo the segment epoch they
  scored against; a mismatch is discarded (``EPOCH_MISMATCH``), not
  merged.
"""

from __future__ import annotations

import dataclasses
import queue as queue_module
import threading
import time
import uuid
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.authentication import NOMINAL_CONDITION, OperatingCondition
from repro.core.server import AuthenticationServer, UnknownChipError
from repro.faults import FaultPlan
from repro.service.fleet.config import FleetConfig
from repro.service.fleet.events import FleetLog, FleetOutcome
from repro.service.fleet.scoring import shard_best, shard_distances
from repro.service.fleet.shm import ShardSegment, ShardSpec
from repro.service.fleet.supervisor import ShardState, ShardSupervisor

__all__ = ["OverloadError", "FleetIdentificationResult", "ShardDispatcher"]


class OverloadError(RuntimeError):
    """The bounded request queue is full; the request was shed, not dropped.

    Carries enough context for the caller to back off intelligently.
    """

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"fleet overloaded: {pending} pending requests at the "
            f"configured bound of {limit}; request refused"
        )
        self.pending = pending
        self.limit = limit


@dataclasses.dataclass(frozen=True)
class FleetIdentificationResult:
    """One identification answered by the shard fleet.

    ``chip_id`` / ``match_fraction`` / ``scores`` carry exactly the
    single-process :class:`~repro.core.server.IdentificationResult`
    semantics (and identical values at full coverage).  ``coverage``
    is the fraction of *active* codebook rows actually searched --
    ``1.0`` on a healthy fleet; below that the answer is best-effort
    over the surviving shards and ``uncovered_shards`` names the holes.
    """

    chip_id: Optional[str]
    match_fraction: float
    coverage: float = 1.0
    scores: Optional[Dict[str, float]] = None
    uncovered_shards: Tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        """Whether any active rows went unsearched."""
        return self.coverage < 1.0


#: One shard's contribution to a request batch.
_ShardPayload = Tuple[Optional[np.ndarray], Optional[np.ndarray],
                      Optional[np.ndarray]]


class ShardDispatcher:
    """Supervised shard-pool front end over one server's codebook.

    Parameters
    ----------
    server:
        The :class:`AuthenticationServer` whose enrollment database and
        mutation journal back the fleet.
    config:
        :class:`FleetConfig` geometry and robustness knobs.
    seed:
        Codebook selection seed (must match the codebook the comparison
        plane uses, exactly as in ``server.codebook``).
    faults:
        Optional :class:`FaultPlan`, shipped into every worker; consult
        sites ``SHARD_ATTACH`` / ``SHARD_HEARTBEAT`` / ``SHARD_SCORE``.
    log:
        Optional :class:`FleetLog` to append supervision events to.
    """

    def __init__(
        self,
        server: AuthenticationServer,
        config: Optional[FleetConfig] = None,
        *,
        seed: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        log: Optional[FleetLog] = None,
    ) -> None:
        self.config = config or FleetConfig()
        self.log = log if log is not None else FleetLog()
        self._server = server
        self._seed = seed
        self._faults = faults
        self._lock = threading.RLock()
        self._pending: List[Tuple[object, Optional[OperatingCondition]]] = []
        self._req_seq = 0
        self._closed = False
        #: Packed scoring passes dispatched across the fleet (one per
        #: coalesced batch, not one per request) -- the counter the
        #: front-end coalescing regression test pins.
        self.score_passes = 0

        self._book = self._synced_book()
        if not len(self._book):
            raise UnknownChipError(
                "cannot shard an empty codebook: no identities enrolled"
            )
        self._ids: List[str] = []
        self._bounds: List[Tuple[int, int]] = []
        self._segments: List[ShardSegment] = []
        self._shard_active: List[np.ndarray] = []
        self._epoch = 0

        self._supervisor: Optional[ShardSupervisor] = None
        self._reply_queue = None
        specs = self._build_segments()
        if not self.config.inline:
            import multiprocessing

            ctx = multiprocessing.get_context(self.config.start_method)
            self._reply_queue = ctx.Queue()
            self._supervisor = ShardSupervisor(
                specs, self._reply_queue, self.config, self.log,
                faults=self._faults, context=ctx,
            )
            self._supervisor.start()
            self._await_up()

    # ------------------------------------------------------------------
    # Context manager / shutdown
    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop workers, unmap and destroy every segment; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.stop()
        if self._reply_queue is not None:
            self._reply_queue.close()
            self._reply_queue.cancel_join_thread()
        for segment in self._segments:
            segment.close()
            segment.unlink()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.config.n_shards

    @property
    def epoch(self) -> int:
        """Journal epoch the segments currently reflect."""
        return self._epoch

    def shard_states(self) -> Dict[int, str]:
        """``shard index -> supervision state`` (inline fleets: all up)."""
        if self._supervisor is None:
            return {i: ShardState.UP.value for i in range(self.n_shards)}
        return self._supervisor.states()

    def revive(self) -> List[int]:
        """Respawn DOWN shards (operator action); returns their indices."""
        if self._supervisor is None:
            return []
        with self._lock:
            revived = self._supervisor.revive()
            if revived:
                self._await_up()
            return revived

    def status(self) -> Dict[str, object]:
        """JSON-ready fleet snapshot for reports and the CLI."""
        total = sum(int(mask.sum()) for mask in self._shard_active)
        return {
            "n_shards": self.n_shards,
            "inline": self.config.inline,
            "epoch": self._epoch,
            "identities": len(self._ids),
            "active_rows": total,
            "shard_states": self.shard_states(),
            "events": self.log.outcome_counts(),
            "min_coverage": self.log.min_coverage(),
        }

    # ------------------------------------------------------------------
    # Layout and refresh
    # ------------------------------------------------------------------
    def _synced_book(self):
        book = self._server.codebook(self.config.n_challenges, seed=self._seed)
        if book.last_sync_pending:
            # The fleet serves from materialized bytes only; drain any
            # deferred-policy backlog before exporting the matrix.
            self._server.sync_codebooks(limit=None)
        return book

    def _segment_name(self, shard_index: int) -> str:
        return f"repro-fleet-{uuid.uuid4().hex[:12]}-s{shard_index}"

    def _build_segments(self) -> List[ShardSpec]:
        """Partition the synced codebook into fresh shm segments."""
        book = self._book
        epoch = self._server.epoch
        active = book.active_mask
        matrix = book.packed_matrix
        self._ids = book.ids
        self._bounds = book.shard_bounds(self.config.n_shards)
        self._shard_active = [
            np.array(active[start:stop], dtype=bool)
            for start, stop in self._bounds
        ]
        specs: List[ShardSpec] = []
        segments: List[ShardSegment] = []
        for index, (start, stop) in enumerate(self._bounds):
            spec = ShardSpec(
                shard_index=index,
                name=self._segment_name(index),
                start=start,
                stop=stop,
                n_bytes=book.n_bytes,
                n_challenges=book.n_challenges,
                epoch=epoch,
            )
            segments.append(
                ShardSegment.create(spec, matrix[start:stop],
                                    active[start:stop])
            )
            specs.append(spec)
        self._segments = segments
        self._epoch = epoch
        return specs

    def refresh(self) -> bool:
        """Fold journalled mutations into the segments; True if work ran.

        Content-only changes (retighten) are rewritten in place into
        the dirty shards; membership changes (register, revoke
        compaction) re-partition into fresh segments and re-attach
        every live worker.  Serialized against dispatch by the
        front-end lock, so workers never score torn bytes.
        """
        with self._lock:
            if self._server.epoch == self._epoch:
                return False
            dirty = self._server.dirty_since(self._epoch)
            self._book = self._synced_book()
            epoch = self._server.epoch
            if not len(self._book):
                # Total revocation compacted the book away; the same
                # typed refusal the single-process planes give.
                raise UnknownChipError(
                    "no active identities enrolled; the fleet cannot serve"
                )
            if self._book.ids != self._ids:
                self._relayout(epoch)
                return True
            active = self._book.active_mask
            matrix = self._book.packed_matrix
            if dirty is None:
                dirty_shards: Set[int] = set(range(self.n_shards))
            else:
                dirty_shards = set()
                for chip_id in dirty:
                    try:
                        position = self._book.row_position(chip_id)
                    except KeyError:
                        continue
                    dirty_shards.add(self._shard_of(position))
            for index, segment in enumerate(self._segments):
                start, stop = self._bounds[index]
                if index in dirty_shards:
                    segment.write(matrix[start:stop], active[start:stop],
                                  epoch)
                    self._shard_active[index] = np.array(
                        active[start:stop], dtype=bool
                    )
                else:
                    # Clean shards must echo the new epoch too, or their
                    # (perfectly valid) replies would read as stale.
                    segment.set_epoch(epoch)
            if self._supervisor is not None:
                self._supervisor.reattach(
                    [segment.spec for segment in self._segments]
                )
                self._await_up()
            self._epoch = epoch
            self.log.record(
                FleetOutcome.SHARD_REFRESHED,
                detail=(
                    f"epoch {epoch}: rewrote shard(s) "
                    f"{sorted(dirty_shards)} in place"
                ),
            )
            return True

    def _relayout(self, epoch: int) -> None:
        old_segments = self._segments
        specs = self._build_segments()
        self._epoch = epoch
        for segment in self._segments:
            segment.set_epoch(epoch)
        specs = [segment.spec for segment in self._segments]
        if self._supervisor is not None:
            self._supervisor.reattach(specs)
            self._await_up()
        for segment in old_segments:
            segment.close()
            segment.unlink()
        self.log.record(
            FleetOutcome.SHARD_RELAYOUT,
            detail=(
                f"epoch {epoch}: membership changed, repartitioned "
                f"{len(self._ids)} identities into {self.n_shards} shards"
            ),
        )

    def _shard_of(self, position: int) -> int:
        for index, (start, stop) in enumerate(self._bounds):
            if start <= position < stop:
                return index
        raise IndexError(f"row {position} outside every shard bound")

    def _await_up(self, budget: Optional[float] = None) -> None:
        """Drain attach acks until every non-DOWN shard is serving."""
        if self._supervisor is None:
            return
        budget = (
            max(2.0, self.config.request_timeout) if budget is None else budget
        )
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            starting = [
                h for h in self._supervisor.handles
                if h.state is ShardState.STARTING
            ]
            if not starting:
                return
            self._drain_replies(timeout=0.05)
            self._supervisor.ensure_alive()

    def _drain_replies(self, timeout: float = 0.0) -> List[tuple]:
        """Pull replies, routing acks to the supervisor; returns results."""
        results = []
        block = timeout > 0
        while True:
            try:
                message = self._reply_queue.get(block=block, timeout=timeout)
            except (queue_module.Empty, OSError, ValueError):
                return results
            if message[0] == "attached":
                _, worker_index, _shard, generation, _epoch = message
                self._supervisor.mark_attached(worker_index, generation)
            else:
                results.append(message)
            block = False

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def identify(self, responder, **kwargs) -> FleetIdentificationResult:
        """Identify one device (a coalesced batch of one)."""
        return self.identify_many([responder], **kwargs)[0]

    def submit(
        self, responder, condition: Optional[OperatingCondition] = None
    ) -> int:
        """Queue a device for the next coalesced pass; returns its slot.

        *condition* optionally pins the operating condition this
        device will be read at when the buffer is flushed (``None``
        defers to :meth:`flush`'s batch-wide default) -- concurrent
        clients observed at different V/T points can share one pass.

        Raises :class:`OverloadError` (and records ``OVERLOAD_SHED``)
        when the bounded buffer is full -- the caller must back off;
        nothing is ever silently discarded.
        """
        with self._lock:
            if len(self._pending) >= self.config.max_pending:
                self.log.record(
                    FleetOutcome.OVERLOAD_SHED,
                    detail=(
                        f"submit refused at {len(self._pending)} pending "
                        f"(bound {self.config.max_pending})"
                    ),
                )
                raise OverloadError(len(self._pending),
                                    self.config.max_pending)
            self._pending.append((responder, condition))
            return len(self._pending) - 1

    def flush(
        self,
        *,
        condition: OperatingCondition = NOMINAL_CONDITION,
        **kwargs,
    ) -> List[FleetIdentificationResult]:
        """Serve every queued device in one pass (slot-ordered results)."""
        with self._lock:
            batch, self._pending = self._pending, []
            if not batch:
                return []
            return self.identify_many(
                [responder for responder, _ in batch],
                condition=condition,
                conditions=[
                    condition if pinned is None else pinned
                    for _, pinned in batch
                ],
                **kwargs,
            )

    def identify_many(
        self,
        responders: Sequence[object],
        *,
        condition: OperatingCondition = NOMINAL_CONDITION,
        conditions: Optional[Sequence[OperatingCondition]] = None,
        min_match_fraction: Optional[float] = None,
        return_scores: bool = False,
    ) -> List[FleetIdentificationResult]:
        """Batched 1:N identification across the shard fleet.

        One stacked device read per responder, one packed scoring pass
        per shard for the whole batch, one deterministic merge.  At
        full coverage the ``(chip_id, match_fraction, scores)`` triple
        is bit-identical to ``server.identify_many``.  *conditions*
        optionally gives each responder its own operating condition
        (overriding the batch-wide *condition* per item).
        """
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        threshold = (
            self.config.min_match_fraction
            if min_match_fraction is None else min_match_fraction
        )
        with self._lock:
            if not responders:
                return []
            if len(responders) > self.config.max_pending:
                self.log.record(
                    FleetOutcome.OVERLOAD_SHED,
                    detail=(
                        f"batch of {len(responders)} exceeds the bound "
                        f"of {self.config.max_pending}"
                    ),
                )
                raise OverloadError(len(responders), self.config.max_pending)
            if conditions is None:
                conditions = [condition] * len(responders)
            elif len(conditions) != len(responders):
                raise ValueError(
                    f"{len(responders)} responders but "
                    f"{len(conditions)} conditions"
                )
            self.refresh()
            packed = self._book.read_answers(responders, conditions)
            payloads, uncovered = self._dispatch(packed, return_scores)
            return self._merge(
                payloads, uncovered, len(responders), threshold,
                return_scores,
            )

    def _dispatch(
        self, packed: np.ndarray, want_scores: bool
    ) -> Tuple[Dict[int, _ShardPayload], Tuple[int, ...]]:
        """Score the packed batch on every shard; returns payloads + holes."""
        self.score_passes += 1
        if self.config.inline:
            payloads: Dict[int, _ShardPayload] = {}
            for index, segment in enumerate(self._segments):
                start, stop = self._bounds[index]
                distances = shard_distances(
                    packed[:, start:stop, :], segment.packed
                )
                best = shard_best(
                    distances, segment.active, self.config.n_challenges
                )
                rows, bests = (None, None) if best is None else best
                payloads[index] = (
                    rows, bests, distances if want_scores else None
                )
            return payloads, ()

        self._drain_replies()
        self._supervisor.ensure_alive()
        # Give STARTING shards (fresh spawns, post-crash respawns) their
        # attach window before declaring them uncovered -- this is what
        # bounds recovery: the request after a crash blocks briefly and
        # then serves at full coverage instead of degrading forever.
        self._await_up()
        req_id = self._req_seq
        self._req_seq += 1
        up = self._supervisor.up_handles()
        for handle in up:
            start, stop = self._bounds[handle.index]
            handle.request_queue.put(
                ("score", req_id,
                 np.ascontiguousarray(packed[:, start:stop, :]), want_scores)
            )
        expected = {handle.index for handle in up}
        payloads = {}
        deadline = time.monotonic() + self.config.request_timeout
        while expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            for message in self._drain_replies(
                timeout=min(0.05, remaining)
            ):
                (_, reply_req, shard, _generation, epoch, rows, bests,
                 distances) = message
                if reply_req != req_id or shard not in expected:
                    continue  # late reply from a previous request
                if epoch != self._epoch:
                    self.log.record(
                        FleetOutcome.EPOCH_MISMATCH, shard=shard,
                        detail=(
                            f"reply scored at epoch {epoch}, fleet is at "
                            f"{self._epoch}; discarded"
                        ),
                    )
                    expected.discard(shard)
                    continue
                payloads[shard] = (rows, bests, distances)
                expected.discard(shard)
        if expected:
            # Deadline missed: the shard is uncovered for this request;
            # let the supervisor decide whether its worker crashed or
            # hung (and restart it behind the backoff policy).
            self._supervisor.ensure_alive()
        uncovered = tuple(sorted(set(range(self.n_shards)) - set(payloads)))
        return payloads, uncovered

    def _merge(
        self,
        payloads: Dict[int, _ShardPayload],
        uncovered: Tuple[int, ...],
        batch_size: int,
        threshold: float,
        want_scores: bool,
    ) -> List[FleetIdentificationResult]:
        n = self.config.n_challenges
        best_distance = np.full(batch_size, n + 2, dtype=np.int64)
        best_row = np.full(batch_size, -1, dtype=np.int64)
        # Ascending shard order + strict improvement keeps the earliest
        # (lowest global row = lowest chip id) winner on equal distances,
        # exactly the single-process argmax tie-break.
        for shard in sorted(payloads):
            rows, bests, _ = payloads[shard]
            if rows is None:
                continue
            start = self._bounds[shard][0]
            better = bests < best_distance
            best_distance[better] = bests[better]
            best_row[better] = start + rows[better]

        total_active = sum(int(mask.sum()) for mask in self._shard_active)
        covered_active = sum(
            int(self._shard_active[s].sum()) for s in payloads
        )
        coverage = (
            covered_active / total_active if total_active else 1.0
        )
        if coverage < 1.0:
            self.log.record(
                FleetOutcome.DEGRADED_SERVE,
                coverage=coverage,
                detail=(
                    f"shards {list(uncovered)} uncovered; answered from "
                    f"{covered_active}/{total_active} active rows"
                ),
            )

        score_maps: List[Dict[str, float]] = []
        if want_scores:
            per_shard: List[Tuple[int, np.ndarray, np.ndarray]] = []
            for shard in sorted(payloads):
                distances = payloads[shard][2]
                if distances is None or distances.shape[1] == 0:
                    continue
                fractions = (n - distances) / float(n)
                per_shard.append(
                    (self._bounds[shard][0], fractions,
                     self._shard_active[shard])
                )
            for q in range(batch_size):
                entry: Dict[str, float] = {}
                for start, fractions, mask in per_shard:
                    for j in np.flatnonzero(mask):
                        entry[self._ids[start + j]] = float(fractions[q, j])
                score_maps.append(entry)

        results: List[FleetIdentificationResult] = []
        for q in range(batch_size):
            scores = score_maps[q] if want_scores else None
            if best_distance[q] > n:
                # No active row among the covered shards: the
                # single-process all-revoked degenerate result.
                results.append(
                    FleetIdentificationResult(
                        chip_id=None, match_fraction=0.0, coverage=coverage,
                        scores={} if want_scores and scores is None
                        else scores,
                        uncovered_shards=uncovered,
                    )
                )
                continue
            fraction = (n - int(best_distance[q])) / float(n)
            chip_id = (
                self._ids[int(best_row[q])] if fraction >= threshold else None
            )
            results.append(
                FleetIdentificationResult(
                    chip_id=chip_id, match_fraction=fraction,
                    coverage=coverage, scores=scores,
                    uncovered_shards=uncovered,
                )
            )
        return results
