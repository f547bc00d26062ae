"""Structured audit events of the resilient authentication service.

Every decision the service takes -- approvals, rejections, fast-fails,
degradation-ladder moves, budget warnings -- is recorded as one
:class:`AuthEvent` in an append-only :class:`AuditLog`.  The events are
the service's source of truth for reliability reporting *and* for the
protocol's security invariants: each event carries a digest of every
challenge row it issued, so "no challenge was ever replayed" is a
property a test (or an auditor) can check from the log alone, without
trusting the serving code.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "AuthOutcome", "AuthEvent", "AuditLog", "PackedDigests", "challenge_digests",
]


class AuthOutcome(str, enum.Enum):
    """Outcome taxonomy of the service's audit events.

    Decision outcomes (one per authentication request):

    * ``APPROVED`` / ``REJECTED`` -- a session completed and was scored
      (an answer of the wrong shape is ``REJECTED`` without a mismatch
      count).
    * ``DEVICE_ERROR`` -- every bounded read attempt failed.
    * ``BREAKER_OPEN`` -- fast-fail: the chip's circuit breaker is open.
    * ``RATE_LIMITED`` -- fast-fail: throttle window or reject lockout.
    * ``POOL_EXHAUSTED`` -- refused: the never-used challenge pool is
      spent (the service never replays instead).
    * ``DEADLINE_EXCEEDED`` -- the request's time budget ran out.
    * ``UNKNOWN_CHIP`` -- the claimed identity is not enrolled.
    * ``REVOKED`` -- fast-fail: the claimed identity has been revoked.
      No challenge is issued (a revoked chip must get zero transcript
      material), so these events never carry digests.

    Informational outcomes (zero or more per request):

    * ``READ_FAILED`` -- one issued challenge set was burnt by a failed
      device read (the request may still be retried).
    * ``RUNG_ESCALATED`` / ``RUNG_RECOVERED`` -- the drift monitor moved
      the chip along the degradation ladder.
    * ``RETIGHTEN_FLAGGED`` -- the chip was flagged for threshold
      re-tightening (ladder rung 2).
    * ``RETIGHTEN_APPLIED`` -- an operator committed the flagged
      re-tightening into the enrollment database
      (:meth:`AuthenticationService.apply_retightening`).
    * ``REVOCATION_COMMITTED`` -- an operator revoked the identity
      (:meth:`AuthenticationService.revoke`); ``challenges_spent``
      carries the *negative* of the reclaimed pool balance and
      ``detail`` the operator's reason.
    * ``BUDGET_LOW`` -- the challenge pool crossed its low-water mark.
    * ``OVERLOAD_SHED`` -- the batching front end's bounded queue was
      full and the submission was refused with a typed
      :class:`~repro.service.frontend.OverloadError` *before* admission:
      no request number is consumed, no challenge is issued, and no
      per-chip state is touched (the event's ``chip_id`` is the
      claimed identity when the caller supplied one).

    Identification outcomes (one per :meth:`identify_many` item):

    * ``IDENTIFIED`` / ``UNIDENTIFIED`` -- a 1:N codebook sweep did /
      did not resolve the device to an enrolled identity.  These events
      carry **no** challenge digests: codebook blocks are persistent
      identification material, not one-shot session challenges, so they
      live outside the no-replay accounting.
    """

    APPROVED = "approved"
    REJECTED = "rejected"
    DEVICE_ERROR = "device-error"
    BREAKER_OPEN = "breaker-open"
    RATE_LIMITED = "rate-limited"
    POOL_EXHAUSTED = "pool-exhausted"
    DEADLINE_EXCEEDED = "deadline-exceeded"
    UNKNOWN_CHIP = "unknown-chip"
    REVOKED = "revoked"
    READ_FAILED = "read-failed"
    RUNG_ESCALATED = "rung-escalated"
    RUNG_RECOVERED = "rung-recovered"
    RETIGHTEN_FLAGGED = "retighten-flagged"
    RETIGHTEN_APPLIED = "retighten-applied"
    REVOCATION_COMMITTED = "revocation-committed"
    BUDGET_LOW = "budget-low"
    OVERLOAD_SHED = "overload-shed"
    IDENTIFIED = "identified"
    UNIDENTIFIED = "unidentified"


#: Decision outcomes: exactly one of these ends every request.
DECISION_OUTCOMES = frozenset(
    {
        AuthOutcome.APPROVED,
        AuthOutcome.REJECTED,
        AuthOutcome.DEVICE_ERROR,
        AuthOutcome.BREAKER_OPEN,
        AuthOutcome.RATE_LIMITED,
        AuthOutcome.POOL_EXHAUSTED,
        AuthOutcome.DEADLINE_EXCEEDED,
        AuthOutcome.UNKNOWN_CHIP,
        AuthOutcome.REVOKED,
    }
)


def challenge_digests(challenges: np.ndarray) -> Tuple[str, ...]:
    """Per-row BLAKE2b digests of a challenge matrix.

    The digest of a challenge is a stable function of its bit pattern
    (dtype- and layout-independent), so equal challenges issued by
    different sessions produce equal digests -- which is exactly what
    lets the audit log prove the no-replay invariant.
    """
    rows = np.ascontiguousarray(np.asarray(challenges, dtype=np.int8))
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D challenge matrix, got shape {rows.shape}")
    return tuple(
        hashlib.blake2b(row.tobytes(), digest_size=8).hexdigest() for row in rows
    )


class PackedDigests(Sequence[str]):
    """Hex challenge digests held as one ``bytes`` value.

    A decision event keeps one digest per issued row (64 by default) for
    the life of the audit log.  As separate hex strings 64 digests take
    ~4.6 KB; packed they take their raw bytes, 8 per row.  Every read
    (iteration, indexing, equality with a tuple of hex strings) sees the
    same lowercase hex strings as :func:`challenge_digests`.
    """

    __slots__ = ("raw", "width")

    def __init__(self, raw: bytes = b"", width: int = 8) -> None:
        self.raw = raw
        self.width = width

    @classmethod
    def of(cls, digests: Iterable[str]) -> "PackedDigests":
        """Pack equal-length hex digests (an instance passes through)."""
        if isinstance(digests, cls):
            return digests
        digests = tuple(digests)
        if not digests:
            return NO_DIGESTS
        width = len(digests[0]) // 2
        if any(len(digest) != 2 * width for digest in digests):
            raise ValueError("challenge digests must all have the same length")
        return cls(bytes.fromhex("".join(digests)), width)

    def hex(self) -> Tuple[str, ...]:
        """The digests as hex strings, in row order."""
        text = self.raw.hex()
        step = 2 * self.width
        return tuple(text[i : i + step] for i in range(0, len(text), step))

    def __len__(self) -> int:
        return len(self.raw) // self.width

    def __getitem__(self, index):
        return self.hex()[index]

    def __iter__(self) -> Iterator[str]:
        return iter(self.hex())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedDigests):
            return self.raw == other.raw and len(self) == len(other)
        if isinstance(other, (tuple, list)):
            return self.hex() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.hex())

    def __repr__(self) -> str:
        return f"PackedDigests({self.hex()!r})"


#: The digests of an event that issued no challenge.
NO_DIGESTS = PackedDigests()


@dataclasses.dataclass(frozen=True, slots=True)
class AuthEvent:
    """One structured audit record.

    Attributes
    ----------
    seq:
        Monotone event sequence number (log order).
    request:
        Request sequence number the event belongs to (several events can
        share a request: burnt read attempts, rung moves, the decision).
    chip_id:
        Claimed identity, or ``None`` when no identity could be resolved.
    outcome:
        The :class:`AuthOutcome` taxonomy entry.
    rung:
        Degradation-ladder rung in force (0 = zero-HD one-shot).
    attempt:
        Device-read attempt index within the request (decision events
        carry the total attempts consumed).
    n_challenges / n_mismatches:
        Session geometry and score, where a session was scored.
    challenges_spent:
        Never-used challenges charged to the pool by this event.
    budget_remaining:
        Pool balance after the charge.
    condition:
        ``str(OperatingCondition)`` the device responded under.
    breaker_state:
        Circuit-breaker state observed when the event fired.
    latency:
        Seconds from request admission to this event (service clock).
    detail:
        Free-form human-readable context.
    digests:
        Per-row digests of every challenge issued by this event, packed
        (see :class:`PackedDigests`; any sequence of hex digests is
        accepted and packed).
    """

    seq: int
    request: int
    chip_id: Optional[str]
    outcome: AuthOutcome
    rung: int = 0
    attempt: int = 0
    n_challenges: int = 0
    n_mismatches: Optional[int] = None
    challenges_spent: int = 0
    budget_remaining: Optional[int] = None
    condition: str = ""
    breaker_state: str = ""
    latency: float = 0.0
    detail: str = ""
    digests: PackedDigests = NO_DIGESTS

    def __post_init__(self) -> None:
        object.__setattr__(self, "digests", PackedDigests.of(self.digests))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dictionary (enum flattened to its string value)."""
        payload = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }
        payload["outcome"] = self.outcome.value
        payload["digests"] = list(self.digests)
        return payload


class AuditLog:
    """Append-only event log with query helpers for tests and reports."""

    def __init__(self) -> None:
        self._events: List[AuthEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AuthEvent]:
        return iter(self._events)

    @property
    def events(self) -> Tuple[AuthEvent, ...]:
        """All events in log order."""
        return tuple(self._events)

    def append(self, event: AuthEvent) -> AuthEvent:
        """Record *event* (returned unchanged, for call-site chaining)."""
        if not isinstance(event, AuthEvent):
            raise TypeError(f"expected AuthEvent, got {type(event).__name__}")
        self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def for_chip(self, chip_id: str) -> List[AuthEvent]:
        """Events belonging to one claimed identity."""
        return [e for e in self._events if e.chip_id == chip_id]

    def with_outcome(self, outcome: AuthOutcome) -> List[AuthEvent]:
        """Events carrying one outcome."""
        return [e for e in self._events if e.outcome is outcome]

    def decisions(self) -> List[AuthEvent]:
        """The per-request decision events, in request order."""
        return [e for e in self._events if e.outcome in DECISION_OUTCOMES]

    def outcome_counts(self) -> Dict[str, int]:
        """``outcome value -> count`` over the whole log."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.outcome.value] = counts.get(event.outcome.value, 0) + 1
        return counts

    def issued_digests(self, chip_id: Optional[str] = None) -> List[str]:
        """Every issued challenge digest, in issue order.

        The no-replay invariant of the serving path is precisely
        ``len(digests) == len(set(digests))`` per chip.
        """
        return [
            digest
            for event in self._events
            if chip_id is None or event.chip_id == chip_id
            for digest in event.digests
        ]

    def replayed_digests(self) -> Dict[str, List[str]]:
        """``chip_id -> digests issued more than once`` (empty = healthy).

        One pass groups the digest-carrying events by chip; each chip's
        events are then checked against one set, dropped before the next
        chip's, so memory stays at one chip's digests.
        """
        by_chip: Dict[str, List[AuthEvent]] = {}
        for event in self._events:
            if event.chip_id is not None and event.digests:
                by_chip.setdefault(event.chip_id, []).append(event)
        replayed: Dict[str, List[str]] = {}
        for chip_id in sorted(by_chip):
            seen: set = set()
            duplicates: List[str] = []
            for event in by_chip[chip_id]:
                for digest in event.digests:
                    if digest in seen:
                        duplicates.append(digest)
                    seen.add(digest)
            if duplicates:
                replayed[chip_id] = duplicates
        return replayed

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the log as JSON lines (one event per line)."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(json.dumps(event.to_dict(), default=float) + "\n")
        return path
