"""The authentication server and its enrollment database.

Ties the pieces of :mod:`repro.core` into the deployment objects a
system integrator would use: an :class:`AuthenticationServer` that
stores :class:`~repro.core.enrollment.EnrollmentRecord` entries (delay
parameters + thresholds -- not CRP tables), hands out their challenge
selectors and identifies devices, and a :class:`ModelResponder` adapter
that lets an attacker's learned model masquerade as a device, for
security evaluations.

The database is *alive*: registrations, re-tightenings and revocations
arrive while identifications are being served.  Every mutation bumps a
monotone epoch **and** is journaled per chip id, so the identification
codebooks resync incrementally -- a wave of mutations costs work
proportional to the wave, not to the fleet
(:meth:`AuthenticationServer.dirty_since`).  Revocation is terminal:
revoked identities cannot re-register and are tombstoned out of every
codebook the moment :meth:`AuthenticationServer.revoke` returns (see
:mod:`repro.core.lifecycle`); the serving layer
(:class:`~repro.service.AuthenticationService`, the one Fig.-7
authenticator) refuses their claims before issuing a challenge.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.adjustment import BetaFactors
from repro.core.authentication import Responder
from repro.core.codebook import (
    CodebookPolicy,
    IdentificationCodebook,
)
from repro.core.enrollment import EnrollmentRecord, enroll_chip
from repro.core.lifecycle import (
    LifecycleError,
    LifecycleState,
    RevocationRecord,
    RevokedChipError,
    revocations_from_payload,
    revocations_to_payload,
)
from repro.core.selection import ChallengeSelector
from repro.crp.transform import parity_features
from repro.silicon.chip import PufChip
from repro.silicon.environment import NOMINAL_CONDITION, OperatingCondition
from repro.utils.rng import SeedLike

__all__ = [
    "AuthenticationServer",
    "IdentificationResult",
    "ModelResponder",
    "UnknownChipError",
]

#: File-name prefix of non-record artefacts inside a database directory
#: (codebooks); :meth:`AuthenticationServer.load_database` skips these
#: when collecting enrollment records.
_CODEBOOK_PREFIX = "_codebook_"

#: File name of the persisted revocation table inside a database
#: directory.  Unlike a corrupt codebook (recoverable -- rebuild from
#: records), a corrupt revocation table is a security fault and refuses
#: to load.
_LIFECYCLE_FILE = "_lifecycle.json"


class UnknownChipError(KeyError):
    """Raised for lookups of an unenrolled identity."""


class AuthenticationServer:
    """Server-side enrollment database, selectors and identification.

    Parameters
    ----------
    records:
        Optional initial ``chip_id -> EnrollmentRecord`` mapping.
    codebook_policy:
        How eagerly identification codebooks chase database mutations
        (:class:`~repro.core.codebook.CodebookPolicy`).  The default is
        fully eager -- every identification sees a synced codebook;
        deferred policies trade bounded staleness for never stalling a
        request on a rebuild wave.
    """

    def __init__(
        self,
        records: Optional[Mapping[str, EnrollmentRecord]] = None,
        *,
        codebook_policy: Optional[CodebookPolicy] = None,
    ) -> None:
        self._records: Dict[str, EnrollmentRecord] = dict(records or {})
        self._selectors: Dict[str, ChallengeSelector] = {}
        self._codebooks: Dict[int, IdentificationCodebook] = {}
        self._sorted_ids: Optional[List[str]] = None
        self._epoch = 0
        self._mutations: Dict[str, int] = {}
        # Epoch-ordered mutation log; lets dirty_since() take the tail
        # after a synced epoch by bisection instead of scanning every
        # chip ever mutated.  Compacted against _mutations when it
        # outgrows the population (long-lived servers stay O(N)).
        self._journal_log: List[Tuple[int, str]] = []
        self._revocations: Dict[str, RevocationRecord] = {}
        self.codebook_policy = codebook_policy or CodebookPolicy()
        #: Corrupt codebook files discarded (and scheduled for rebuild)
        #: by :meth:`load_database`.
        self.codebook_recoveries = 0

    # ------------------------------------------------------------------
    # Database management
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotone database version; bumped on every mutation.

        Codebooks and batched callers compare this against the epoch
        they last synced at: equal means every cached artefact is
        current, no fingerprint sweep needed.
        """
        return self._epoch

    @property
    def enrolled_ids(self) -> list[str]:
        """Identifiers of all enrolled chips (cached between mutations).

        Includes revoked identities -- their records are retained for
        audit; use :attr:`active_ids` for the serveable fleet.
        """
        if self._sorted_ids is None:
            self._sorted_ids = sorted(self._records)
        return list(self._sorted_ids)

    @property
    def active_ids(self) -> list[str]:
        """Identifiers of enrolled chips that are not revoked."""
        if not self._revocations:
            return self.enrolled_ids
        return [c for c in self.enrolled_ids if c not in self._revocations]

    def record(self, chip_id: str) -> EnrollmentRecord:
        """The stored record for *chip_id* (revoked records included)."""
        try:
            return self._records[chip_id]
        except KeyError:
            raise UnknownChipError(
                f"chip {chip_id!r} is not enrolled; known: {self.enrolled_ids}"
            ) from None

    def dirty_since(self, synced_epoch: Optional[int]) -> Optional[Set[str]]:
        """Chip ids mutated after *synced_epoch* (the journal view).

        ``None`` in means ``None`` out: a consumer that never synced
        has no baseline, so it must do a full sweep.  The journal only
        covers this process's mutations -- exactly the window between a
        codebook's last sync and now -- which is why freshly loaded
        codebooks start with a full fingerprint sweep.
        """
        if synced_epoch is None:
            return None
        start = bisect.bisect_right(
            self._journal_log, synced_epoch, key=lambda entry: entry[0]
        )
        return {chip_id for _, chip_id in self._journal_log[start:]}

    def _journal(self, chip_id: str) -> None:
        self._epoch += 1
        self._mutations[chip_id] = self._epoch
        self._journal_log.append((self._epoch, chip_id))
        if len(self._journal_log) > max(64, 2 * len(self._mutations)):
            # Re-mutated chips leave dead duplicates behind; keeping
            # only each chip's latest epoch preserves every
            # dirty_since() answer.
            self._journal_log = sorted(
                (epoch, chip) for chip, epoch in self._mutations.items()
            )
        self._sorted_ids = None

    def register(self, record: EnrollmentRecord) -> None:
        """Store (or replace) an enrollment record.

        Bumps the database epoch and journals the mutation against the
        chip id, so codebooks revalidate exactly this row at their next
        sync.  Re-registering a revoked identity is refused
        (:class:`~repro.core.lifecycle.RevokedChipError`): an attacker
        holding an extracted model must not re-enter the fleet under a
        burned name.
        """
        revocation = self._revocations.get(record.chip_id)
        if revocation is not None:
            raise RevokedChipError(revocation, "re-registration")
        self._records[record.chip_id] = record
        self._selectors.pop(record.chip_id, None)
        self._journal(record.chip_id)

    def retighten(
        self, chip_id: str, beta0: float = 0.25, beta1: float = 2.2
    ) -> EnrollmentRecord:
        """Tighten *chip_id*'s selection thresholds by scaling its betas.

        The paper's threshold adjustment is multiplicative
        (:meth:`~repro.core.thresholds.ThresholdPair.scale`), so
        re-tightening composes into the stored
        :class:`~repro.core.adjustment.BetaFactors` -- the updated
        record persists, round-trips through ``save_database``, and its
        changed fingerprint invalidates exactly this chip's codebook
        rows.  The defaults match the serving layer's rung-2 ladder
        step (see :class:`repro.service.ServiceConfig`).
        """
        revocation = self._revocations.get(chip_id)
        if revocation is not None:
            raise RevokedChipError(revocation, "re-tightening")
        record = self.record(chip_id)
        updated = record.with_betas(
            BetaFactors(record.betas.beta0 * beta0, record.betas.beta1 * beta1)
        )
        self.register(updated)
        return updated

    def enroll(self, chip: PufChip, seed: SeedLike = None, **kwargs) -> EnrollmentRecord:
        """Enroll *chip* (see :func:`repro.core.enrollment.enroll_chip`)
        and store the record."""
        record = enroll_chip(chip, seed=seed, **kwargs)
        self.register(record)
        return record

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def revoke(self, chip_id: str, reason: str = "") -> RevocationRecord:
        """Revoke an enrolled identity, immediately and terminally.

        The record is retained (audit; the id is burned forever) but
        the identity stops serving *now*: every built codebook's row is
        tombstoned out of argmax before this method returns -- no
        rebuild, no sync, no staleness window, whatever the codebook
        policy says.  Raises
        :class:`~repro.core.lifecycle.LifecycleError` on double revoke
        and :class:`UnknownChipError` for strangers.
        """
        if chip_id in self._revocations:
            raise LifecycleError(
                f"chip {chip_id!r} is already revoked "
                f"({self._revocations[chip_id].reason or 'no reason recorded'})"
            )
        self.record(chip_id)  # strangers raise UnknownChipError
        self._journal(chip_id)
        revocation = RevocationRecord(
            chip_id=chip_id, reason=reason, epoch=self._epoch
        )
        self._revocations[chip_id] = revocation
        self._selectors.pop(chip_id, None)
        for book in self._codebooks.values():
            book.revoke_row(chip_id)
        return revocation

    def is_revoked(self, chip_id: str) -> bool:
        """Whether *chip_id* has been revoked."""
        return chip_id in self._revocations

    def revocation(self, chip_id: str) -> Optional[RevocationRecord]:
        """The revocation record for *chip_id*, or ``None`` if active."""
        return self._revocations.get(chip_id)

    @property
    def revocations(self) -> Dict[str, RevocationRecord]:
        """Snapshot of the revocation table (chip id -> record)."""
        return dict(self._revocations)

    def lifecycle_state(self, chip_id: str) -> LifecycleState:
        """Lifecycle state of an enrolled identity."""
        self.record(chip_id)  # strangers raise UnknownChipError
        if chip_id in self._revocations:
            return LifecycleState.REVOKED
        return LifecycleState.ACTIVE

    # ------------------------------------------------------------------
    # Cached artefacts
    # ------------------------------------------------------------------
    def selector(self, chip_id: str) -> ChallengeSelector:
        """Cached challenge selector for one identity."""
        if chip_id not in self._selectors:
            self._selectors[chip_id] = self.record(chip_id).selector()
        return self._selectors[chip_id]

    def codebook(
        self, n_challenges: int = 64, *, seed: Optional[int] = None
    ) -> IdentificationCodebook:
        """The identification codebook for *n_challenges*.

        Created on first use (with *seed* fixing the per-identity
        selection streams) and cached per block length.  A *seed* that
        differs from the built codebook's raises ``ValueError`` -- its
        rows were selected from other streams; ``None`` takes whatever
        is built.  Under the
        default (eager) policy any staleness is repaired here, before
        the codebook is returned -- incrementally, via the mutation
        journal, so the cost is proportional to what actually changed.
        Under a deferred policy the codebook is served stale as long as
        the pending-row count stays within
        :attr:`~repro.core.codebook.CodebookPolicy.max_stale_rows`; one
        row more and the sync happens on the spot.  Revocations are
        never stale either way (tombstones are applied at revoke time).
        """
        if not self._records:
            raise UnknownChipError("no identities enrolled")
        book = self._codebooks.get(n_challenges)
        if book is None:
            book = IdentificationCodebook(n_challenges, seed=seed)
            self._codebooks[n_challenges] = book
        elif seed is not None and int(seed) != book.seed:
            raise ValueError(
                f"the {n_challenges}-challenge codebook was built with "
                f"seed {book.seed}, not the requested seed {seed}"
            )
        if book.synced_epoch != self._epoch:
            policy = self.codebook_policy
            if (
                policy.deferred
                and len(book) > 0
                and book.pending_rows(
                    self._records, self.dirty_since(book.synced_epoch)
                )
                <= policy.max_stale_rows
            ):
                return book
            self._sync_codebook(book)
        return book

    def _sync_codebook(
        self,
        book: IdentificationCodebook,
        limit: Optional[int] = None,
        faults=None,
    ) -> int:
        return book.sync(
            self._records,
            self.selector,
            epoch=self._epoch,
            dirty=self.dirty_since(book.synced_epoch),
            revoked=self._revocations,
            limit=limit,
            faults=faults,
        )

    def sync_codebooks(
        self, limit: Optional[int] = None, *, faults=None
    ) -> Dict[int, int]:
        """Maintenance resync of every built codebook.

        The deferred policy's other half: a background loop (or the
        lifecycle driver's tick) calls this to drain pending rebuilds
        off the serving path.  *limit* caps row builds per codebook
        this call (default: the policy's ``rebuild_batch``); leftovers
        stay pending for the next call.  Returns ``block length ->
        rows rebuilt``.
        """
        if limit is None:
            limit = self.codebook_policy.rebuild_batch
        rebuilt: Dict[int, int] = {}
        for n_challenges, book in self._codebooks.items():
            if book.synced_epoch == self._epoch:
                rebuilt[n_challenges] = 0
                continue
            rebuilt[n_challenges] = self._sync_codebook(
                book, limit=limit, faults=faults
            )
        return rebuilt

    def codebook_status(self, n_challenges: int = 64) -> Dict[str, object]:
        """Staleness/shape snapshot of one codebook (monitoring hook)."""
        book = self._codebooks.get(n_challenges)
        if book is None:
            return {"built": False, "epoch": self._epoch}
        pending = 0
        if book.synced_epoch != self._epoch:
            pending = book.pending_rows(
                self._records, self.dirty_since(book.synced_epoch)
            )
        return {
            "built": True,
            "epoch": self._epoch,
            "synced_epoch": book.synced_epoch,
            "rows": len(book),
            "pending_rows": pending,
            "revoked_rows": len(book.revoked_ids),
            "rebuilds": book.rebuilds,
            "restacks": book.restacks,
            "row_writes": book.row_writes,
            "deferred": self.codebook_policy.deferred,
            "max_stale_rows": self.codebook_policy.max_stale_rows,
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_database(self, directory, *, faults=None) -> None:
        """Write every enrollment record into *directory* (one .npz each).

        File names are derived from chip ids; ids must therefore be
        filesystem-safe (the library's ``chip-N`` convention is).
        Built identification codebooks are persisted alongside the
        records (one ``_codebook_<n>.npz`` per block length, written
        atomically with an embedded checksum), and the revocation table
        goes into ``_lifecycle.json`` -- revocations are durable facts
        that must survive a server reload.
        """
        from pathlib import Path

        from repro.engine.runtime import atomic_write_bytes

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for chip_id, record in self._records.items():
            record.save(directory / f"{chip_id}.npz")
        atomic_write_bytes(
            directory / _LIFECYCLE_FILE,
            json.dumps(
                revocations_to_payload(self._revocations), indent=2
            ).encode("utf-8"),
        )
        for n_challenges, book in self._codebooks.items():
            if len(book) == 0:
                continue
            # Persist current rows only; a stale codebook is synced
            # first so the saved artefact matches the saved records.
            if book.synced_epoch != self._epoch:
                self._sync_codebook(book)
            book.save(
                directory / f"{_CODEBOOK_PREFIX}{n_challenges}.npz",
                faults=faults,
            )

    @classmethod
    def load_database(cls, directory, *, faults=None) -> "AuthenticationServer":
        """Rebuild a server from a :meth:`save_database` directory.

        Persisted codebooks are loaded as-is and validated lazily: each
        row carries the fingerprint of the record it was built from, so
        rows whose records changed (or vanished) since the save are
        rebuilt on the next identification instead of being trusted.
        A codebook file that fails its checksum (bit rot, a crashed
        writer that somehow half-landed) is *discarded* -- the server
        loads fine, counts the loss in
        :attr:`codebook_recoveries`, and rebuilds from records on
        demand; corrupt bytes never become scores.  A corrupt
        ``_lifecycle.json`` is different: the revocation table is a
        security artefact, so it refuses to load
        (:class:`~repro.crp.dataset.CorruptDatasetError`).
        """
        from pathlib import Path

        from repro.crp.dataset import CorruptDatasetError

        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"no database directory at {directory}")
        revocations: Dict[str, RevocationRecord] = {}
        lifecycle_path = directory / _LIFECYCLE_FILE
        if lifecycle_path.exists():
            try:
                payload = json.loads(lifecycle_path.read_text("utf-8"))
                revocations = revocations_from_payload(payload)
            except (ValueError, KeyError, TypeError) as error:
                raise CorruptDatasetError(
                    f"revocation table {lifecycle_path} is corrupt: {error}"
                ) from error
        records = {}
        codebooks: Dict[int, IdentificationCodebook] = {}
        recoveries = 0
        for path in sorted(directory.glob("*.npz")):
            if path.name.startswith(_CODEBOOK_PREFIX):
                try:
                    book = IdentificationCodebook.load(path, faults=faults)
                except CorruptDatasetError:
                    recoveries += 1
                    continue
                codebooks[book.n_challenges] = book
                continue
            record = EnrollmentRecord.load(path)
            records[record.chip_id] = record
        server = cls(records)
        server._revocations = revocations
        server.codebook_recoveries = recoveries
        for book in codebooks.values():
            for chip_id in revocations:
                book.revoke_row(chip_id)
        server._codebooks.update(codebooks)
        return server

    # ------------------------------------------------------------------
    # Identification
    # ------------------------------------------------------------------
    def identify(
        self,
        responder: Responder,
        *,
        n_challenges: int = 64,
        min_match_fraction: float = 0.95,
        condition: OperatingCondition = NOMINAL_CONDITION,
        seed: Optional[int] = None,
        return_scores: bool = False,
    ) -> IdentificationResult:
        """1:N identification: which enrolled chip is this device?

        :meth:`identify_many` on a batch of one.  The device answers
        the codebook's stacked query -- one selected block per enrolled
        identity, materialized once at sync time -- and one XOR +
        popcount pass scores the answers against every identity's
        packed prediction.  The genuine chip matches its own record
        perfectly; every other record sees a ~50 % coin-flip agreement,
        so the gap is unambiguous whenever ``n_challenges`` is more than
        a few dozen.  *seed* fixes the codebook's selection streams when
        this call builds it (see :meth:`codebook`).

        Returns an :class:`IdentificationResult`; ``chip_id`` is
        ``None`` when no identity clears *min_match_fraction* (an
        unenrolled or heavily degraded device).  Revoked identities
        never win.  Ties are deterministic: when two identities score
        identically, the lexicographically lowest chip id wins.
        Per-identity ``scores`` are built only on *return_scores=True*
        -- at large enrolled populations the dict itself is O(N) per
        request.
        """
        return self.identify_many(
            [responder],
            n_challenges=n_challenges,
            min_match_fraction=min_match_fraction,
            condition=condition,
            seed=seed,
            return_scores=return_scores,
        )[0]

    def identify_many(
        self,
        responders: Sequence[Responder],
        *,
        n_challenges: int = 64,
        min_match_fraction: float = 0.95,
        condition: OperatingCondition = NOMINAL_CONDITION,
        conditions: Optional[Sequence[OperatingCondition]] = None,
        seed: Optional[int] = None,
        return_scores: bool = False,
    ) -> List[IdentificationResult]:
        """Batched 1:N identification over the codebook plane.

        Every responder answers the same stacked codebook query (one
        device read each, in order); the answers fill one zero-padded
        grid that is packed once and scored in **one** XOR + popcount
        pass over 64-bit words, and one masked argmax picks every
        winner.  The per-request cost is amortized across the batch;
        :meth:`identify` is this method on a batch of one.  An answer that is not all 0/1 raises ``ValueError``
        before the next device is read.

        *conditions* optionally gives each responder its own operating
        condition (the batching front end coalesces requests observed
        at different V/T points); it overrides *condition* per item.
        """
        if not self._records:
            raise UnknownChipError("no identities enrolled")
        book = self.codebook(n_challenges, seed=seed)
        if not len(book):
            raise UnknownChipError("no active identities enrolled")
        if not responders:
            return []
        if conditions is None:
            conditions = [condition] * len(responders)
        elif len(conditions) != len(responders):
            raise ValueError(
                f"{len(responders)} responders but {len(conditions)} conditions"
            )
        ids = book.ids
        active = book.active_mask
        scores = book.match_packed(book.read_answers(responders, conditions))
        if return_scores:
            # Reported scores skip tombstoned rows; ``{}`` once every
            # identity is revoked.
            kept = np.flatnonzero(active)
            kept_ids = [ids[row] for row in kept.tolist()]
            score_dicts = [
                dict(zip(kept_ids, row)) for row in scores[:, kept].tolist()
            ]
        else:
            score_dicts = [None] * len(responders)
        if not active.any():
            return [
                IdentificationResult(
                    chip_id=None, match_fraction=0.0, scores=row_scores
                )
                for row_scores in score_dicts
            ]
        # One first-occurrence argmax over the (batch, rows) matrix:
        # ids are sorted, so ties go to the lowest chip id.  Tombstoned
        # rows are masked only when one exists.
        masked = scores if active.all() else np.where(active, scores, -1.0)
        best = masked.argmax(axis=1)
        best_scores = scores[np.arange(len(best)), best]
        return [
            IdentificationResult(
                chip_id=ids[row] if score >= min_match_fraction else None,
                match_fraction=score,
                scores=row_scores,
            )
            for row, score, row_scores in zip(
                best.tolist(), best_scores.tolist(), score_dicts
            )
        ]


@dataclasses.dataclass(frozen=True)
class IdentificationResult:
    """Outcome of a 1:N identification sweep.

    Attributes
    ----------
    chip_id:
        Best-matching enrolled identity, or ``None`` if nothing cleared
        the match threshold.
    match_fraction:
        Per-challenge agreement of the best candidate.
    scores:
        ``chip_id -> match fraction`` for every enrolled identity, or
        ``None`` unless the caller opted in with ``return_scores=True``
        (building the dict is O(N) per request at scale).
    """

    chip_id: Optional[str]
    match_fraction: float
    scores: Optional[Dict[str, float]] = None


class ModelResponder:
    """Adapter: answer challenges from an attacker's learned model.

    Wraps any estimator with a ``predict(features)`` method (an MLP or
    logistic attack) so it can be driven through the authentication
    protocol -- the paper's security claim is precisely that such a
    responder should fail against a >= 10-XOR PUF.
    """

    def __init__(self, model, chip_id: str = "attacker") -> None:
        if not hasattr(model, "predict"):
            raise TypeError("model must expose a predict(features) method")
        self._model = model
        self.chip_id = chip_id

    def xor_response(
        self,
        challenges: np.ndarray,
        condition: OperatingCondition = NOMINAL_CONDITION,
    ) -> np.ndarray:
        """Model predictions in place of silicon responses.

        The operating condition is ignored: a software clone has no
        physics.
        """
        return np.asarray(self._model.predict(parity_features(challenges)))
