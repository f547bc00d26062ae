"""The bit-packed identification codebook and its popcount matcher.

1:N identification asks "which enrolled chip is this device?".  A
naive data plane would run every identity's model-assisted challenge
selection (:class:`~repro.core.selection.ChallengeSelector`) on every
call -- a linear-regression sweep over tens of thousands of candidate
challenges *per identity per request*, ~10^2 identifications/sec.

This module turns identification into a table lookup:

* at enrollment (and whenever a record changes -- re-registration,
  threshold re-tightening) each identity's selected challenge block and
  predicted XOR responses are materialized **once**;
* predicted responses are bit-packed with :func:`numpy.packbits` into a
  contiguous ``(n_identities, n_bytes)`` codebook, each row zero-padded
  to whole 64-bit words;
* ``identify`` becomes one stacked responder query followed by
  XOR + popcount Hamming scoring against **all** rows at once, on
  ``uint64`` word views (:func:`numpy.bitwise_count` where available,
  a 256-entry byte lookup table otherwise).

Scores are bit-identical to the dense ``(responses == predicted).mean``
path: both reduce to ``n_equal / n_challenges`` with the same two
integers (pad bits cancel in the XOR), divided in the same float64 op.

Staleness is tracked **per record**: the server journals which chip ids
mutated at which epoch, and :meth:`IdentificationCodebook.sync` takes
that dirty set so a register/retighten/revoke wave touches only the
affected rows -- a fingerprint check and selector run per dirty id, an
in-place row write when membership is unchanged, one memory-only
restack when it is.  A full fingerprint sweep (``dirty=None``) remains
the recovery path for codebooks loaded from disk or servers without a
journal.  Revocation is cheaper still: :meth:`revoke_row` tombstones
the row out of the argmax *immediately* (a mask flip, no rebuild); the
next sync compacts the row away so the codebook converges to exactly
the matrix a from-scratch rebuild over the surviving identities would
produce.

Persistence is crash-safe (PR 2's tmp + fsync + rename pattern with an
embedded SHA-256 payload checksum): a save interrupted mid-write leaves
the previous generation loadable, and corrupt bytes on disk surface as
:class:`~repro.crp.dataset.CorruptDatasetError` -- which the server
treats as "discard and rebuild", never as garbage scores.
"""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

import numpy as np

from repro.core.enrollment import EnrollmentRecord
from repro.core.selection import ChallengeSelector
from repro.utils.rng import derive_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "CodebookPolicy",
    "IdentificationCodebook",
    "CodebookRow",
    "pack_responses",
    "popcount",
    "packed_match_fractions",
]

#: Per-byte popcount lookup table (fallback when numpy lacks
#: ``bitwise_count``; also handy for tests of the fast path).
_POPCOUNT_LUT = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount(packed: np.ndarray, *, use_lut: bool = False) -> np.ndarray:
    """Per-byte set-bit counts of a uint8 array.

    Uses :func:`numpy.bitwise_count` when the installed numpy provides
    it (>= 1.26); *use_lut* forces the table fallback so both kernels
    stay testable on any environment.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    if _HAVE_BITWISE_COUNT and not use_lut:
        return np.bitwise_count(packed)
    return _POPCOUNT_LUT[packed]


def padded_bits(n_challenges: int) -> int:
    """Bits per packed row: *n_challenges* rounded up to whole 64-bit words."""
    return 64 * -(-n_challenges // 64)


def _check_response_bits(bits: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry of *bits* is 0 or 1.

    Validation must not allocate grid-sized temporaries: a serving pass
    checks every transcript of a batch.  One-byte integer answers are
    range-checked with a single read-only ``max`` over their uint8 view
    (a negative int8 wraps above 1); wider integers take ``min`` and
    ``max``; only odd dtypes (floats, objects) pay for elementwise
    comparisons.
    """
    kind = bits.dtype.kind
    if not bits.size or kind == "b":
        return
    if kind in "iu":
        if bits.dtype.itemsize == 1:
            bad = int(bits.view(np.uint8).max()) > 1
        else:
            bad = int(bits.min()) < 0 or int(bits.max()) > 1
    else:
        bad = not ((bits == 0) | (bits == 1)).all()
    if bad:
        raise ValueError("response bits must be 0/1")


def _pack_padded(grid: np.ndarray) -> np.ndarray:
    """Pack a C-contiguous 0/1 uint8 grid whose rows are whole words.

    The last axis holds :func:`padded_bits` bits, a multiple of 64, so
    one flat :func:`numpy.packbits` over the whole grid packs every row
    exactly as a per-row pack would, and each packed row is a whole
    number of ``uint64`` words.
    """
    return np.packbits(grid.reshape(-1)).reshape(
        grid.shape[:-1] + (grid.shape[-1] // 8,)
    )


def pack_responses(bits: np.ndarray) -> np.ndarray:
    """Bit-pack 0/1 response bits along the last axis (big-endian).

    Each row is padded with zero bits to whole 64-bit words
    (``padded_bits(n) // 8`` bytes), so the scorer can XOR and popcount
    ``uint64`` views.  Both sides of every comparison are packed the
    same way, so the pad bits XOR to zero and never contribute to a
    Hamming distance.  At a multiple of 64 bits the bytes are exactly
    :func:`numpy.packbits`'.
    """
    bits = np.asarray(bits)
    _check_response_bits(bits)
    n_bits = bits.shape[-1]
    grid = np.zeros(bits.shape[:-1] + (padded_bits(n_bits),), dtype=np.uint8)
    grid[..., :n_bits] = bits
    return _pack_padded(grid)


def packed_match_fractions(
    packed_responses: np.ndarray,
    packed_predicted: np.ndarray,
    n_challenges: int,
    *,
    use_lut: bool = False,
) -> np.ndarray:
    """Match fractions from two bit-packed response arrays.

    Parameters
    ----------
    packed_responses / packed_predicted:
        Broadcast-compatible uint8 arrays whose last axis holds the
        word-padded rows :func:`pack_responses` produces.
    n_challenges:
        True (unpadded) number of response bits per row.

    Returns
    -------
    numpy.ndarray
        Float64 agreement fractions with the last (byte) axis reduced:
        exactly ``(n_challenges - hamming_distance) / n_challenges``.

    Distances XOR and popcount ``uint64`` word views (``use_lut=True``,
    or a numpy without ``bitwise_count``, counts bytes through the
    lookup table).  Distances are integers either way, so the scores
    are bit-identical.
    """
    check_positive_int(n_challenges, "n_challenges")
    packed_responses = np.asarray(packed_responses, dtype=np.uint8)
    packed_predicted = np.asarray(packed_predicted, dtype=np.uint8)
    for packed in (packed_responses, packed_predicted):
        if packed.shape[-1] % 8:
            raise ValueError(
                f"packed rows of {packed.shape[-1]} bytes are not whole "
                "64-bit words; pack them with pack_responses"
            )
    distances = _packed_distances(
        packed_responses, packed_predicted, use_lut=use_lut
    )
    return (n_challenges - distances) / float(n_challenges)


def _packed_distances(
    a: np.ndarray, b: np.ndarray, *, use_lut: bool
) -> np.ndarray:
    """Broadcast Hamming distances (int64) of packed rows."""
    if use_lut or not _HAVE_BITWISE_COUNT:
        xored = np.bitwise_xor(a, b)
        return popcount(xored, use_lut=True).sum(axis=-1, dtype=np.int64)
    words = np.bitwise_xor(a.view(np.uint64), b.view(np.uint64))
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


@dataclasses.dataclass(frozen=True)
class CodebookPolicy:
    """How eagerly a server keeps its codebooks in sync with the records.

    Attributes
    ----------
    deferred:
        ``False`` (default): every identification sees a fully synced
        codebook -- the historical behaviour.  ``True``: the serving
        path tolerates **bounded** staleness so a register/retighten
        wave does not stall the request that happens to arrive next;
        rows are rebuilt by explicit
        :meth:`~repro.core.server.AuthenticationServer.sync_codebooks`
        maintenance calls (or forcibly, once the bound is hit).
    max_stale_rows:
        Deferred mode's staleness bound: the serving path serves a
        stale codebook only while the number of pending dirty rows is
        at or below this; one row more forces a sync on the spot.
    rebuild_batch:
        Row-build cap per maintenance sync step (``None`` = drain
        everything).  Bounds the latency of a single
        ``sync_codebooks`` call during a retighten storm.

    Revocations are **never** deferred: a revoked identity is
    tombstoned out of every built codebook at revoke time, whatever the
    policy says -- staleness is a liveness trade-off, not a security
    one.
    """

    deferred: bool = False
    max_stale_rows: int = 64
    rebuild_batch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_stale_rows < 0:
            raise ValueError(
                f"max_stale_rows must be >= 0, got {self.max_stale_rows}"
            )
        if self.rebuild_batch is not None:
            check_positive_int(self.rebuild_batch, "rebuild_batch")


@dataclasses.dataclass(frozen=True)
class CodebookRow:
    """One identity's materialized identification block.

    Attributes
    ----------
    chip_id:
        Identity the row belongs to.
    fingerprint:
        :meth:`EnrollmentRecord.fingerprint` of the record the row was
        built from (staleness detection).
    challenges:
        ``(n_challenges, k)`` selected challenge block.
    predicted:
        ``(n_challenges,)`` predicted XOR bits (int8).
    packed:
        ``(8 * ceil(n_challenges / 64),)`` bit-packed *predicted*
        (uint8, zero-padded to whole 64-bit words).
    """

    chip_id: str
    fingerprint: str
    challenges: np.ndarray
    predicted: np.ndarray
    packed: np.ndarray


class IdentificationCodebook:
    """Contiguous, incrementally synced codebook over one enrollment database.

    Parameters
    ----------
    n_challenges:
        Identification block length per identity.
    seed:
        Root seed of the per-identity selection streams.  Row ``c`` is
        selected with ``derive_generator(seed, "identify", c)``, so two
        codebooks built with seed ``s`` hold exactly the same blocks.
        Must be an int or ``None`` (persisted alongside the rows).
    """

    def __init__(self, n_challenges: int = 64, seed: Optional[int] = None) -> None:
        self.n_challenges = check_positive_int(n_challenges, "n_challenges")
        if seed is not None and not isinstance(seed, (int, np.integer)):
            raise TypeError(
                "codebook seed must be an int or None (it is persisted), "
                f"got {type(seed).__name__}"
            )
        self.seed = None if seed is None else int(seed)
        self._rows: Dict[str, CodebookRow] = {}
        self._revoked: Set[str] = set()
        self.synced_epoch: Optional[int] = None
        self.rebuilds = 0
        self.row_writes = 0
        self.restacks = 0
        self.syncs = 0
        self.persists = 0
        # Contiguous stacked form, updated in place for content-only
        # changes and rebuilt when the row membership changes.
        self._ids: List[str] = []
        self._index: Dict[str, int] = {}
        self._active: Optional[np.ndarray] = None
        self._stacked_challenges: Optional[np.ndarray] = None
        self._packed_matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def ids(self) -> List[str]:
        """Row identities in matching (sorted) order."""
        return list(self._ids)

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean mask over :attr:`ids`: ``False`` = tombstoned row.

        Tombstones exist only between a :meth:`revoke_row` call and the
        next :meth:`sync` (which compacts the row away); a fully synced
        codebook's mask is all ``True``.
        """
        if self._active is None:
            raise RuntimeError("codebook is empty; sync it against a database")
        return self._active.copy()

    @property
    def active_ids(self) -> List[str]:
        """Row identities that are serveable (not tombstoned)."""
        if self._active is None:
            return []
        return [c for c, ok in zip(self._ids, self._active) if ok]

    @property
    def revoked_ids(self) -> List[str]:
        """Identities this codebook knows to be revoked (sorted)."""
        return sorted(self._revoked)

    @property
    def n_bytes(self) -> int:
        """Packed bytes per row (whole 64-bit words)."""
        return padded_bits(self.n_challenges) // 8

    def row(self, chip_id: str) -> CodebookRow:
        """The stored row for *chip_id* (KeyError if absent)."""
        return self._rows[chip_id]

    @property
    def stacked_challenges(self) -> np.ndarray:
        """``(n_identities * n_challenges, k)`` challenge matrix.

        Exactly the single stacked query ``identify`` sends to the
        device; row blocks follow :attr:`ids` order.
        """
        if self._stacked_challenges is None:
            raise RuntimeError("codebook is empty; sync it against a database")
        return self._stacked_challenges

    @property
    def packed_matrix(self) -> np.ndarray:
        """``(n_identities, n_bytes)`` contiguous packed predictions."""
        if self._packed_matrix is None:
            raise RuntimeError("codebook is empty; sync it against a database")
        return self._packed_matrix

    # ------------------------------------------------------------------
    # Building / invalidation
    # ------------------------------------------------------------------
    def revoke_row(self, chip_id: str) -> bool:
        """Tombstone *chip_id* immediately; returns whether a row was hit.

        A mask flip, not a rebuild: the row's bytes stay in the packed
        matrix (so no restack happens on the serving path) but it can
        never win the argmax again.  The next :meth:`sync` compacts the
        row away entirely.  Idempotent; unknown ids are recorded so a
        later sync never builds them.
        """
        self._revoked.add(chip_id)
        position = self._index.get(chip_id)
        if position is None or self._active is None:
            return False
        hit = bool(self._active[position])
        self._active[position] = False
        return hit

    def pending_rows(
        self,
        records: Mapping[str, EnrollmentRecord],
        dirty: Optional[Iterable[str]] = None,
    ) -> int:
        """How many rows :meth:`sync` would touch right now.

        With a *dirty* journal this is a cheap set computation (no
        fingerprints); without one it falls back to counting membership
        differences only -- content-stale rows are invisible until a
        full sweep, which is exactly why servers keep a journal.
        """
        wanted = {c for c in records if c not in self._revoked}
        have = set(self._rows)
        pending = len(wanted - have) + len(have - wanted)
        if dirty is not None:
            pending += len(
                {c for c in dirty if c in wanted and c in have}
            )
        return pending

    def sync(
        self,
        records: Mapping[str, EnrollmentRecord],
        selector_for: Callable[[str], ChallengeSelector],
        epoch: Optional[int] = None,
        *,
        dirty: Optional[Iterable[str]] = None,
        revoked: Optional[Iterable[str]] = None,
        limit: Optional[int] = None,
        faults=None,
    ) -> int:
        """Bring the codebook up to date with *records*; return rebuild count.

        Parameters
        ----------
        records / selector_for / epoch:
            The enrollment database view, exactly as before.
        dirty:
            Chip ids whose records *may* have changed since the last
            sync (the server's mutation journal).  When given, only
            these ids get a fingerprint check -- everything else is
            trusted, turning a fleet-wide sweep into O(|dirty|) work.
            ``None`` keeps the historical full fingerprint sweep (the
            right call for codebooks fresh off disk).  Membership
            changes (new or vanished ids) are always detected, dirty or
            not: that comparison is a set operation, not a fingerprint
            sweep.
        revoked:
            Identities to tombstone-and-compact.  Their rows are
            dropped and never rebuilt; the set is remembered, so a
            revoked id re-appearing in *records* stays excluded.
        limit:
            Cap on row *builds* this call (deferred maintenance).  When
            the cap is hit the remaining stale rows stay pending and
            :attr:`synced_epoch` does **not** advance.
        faults:
            Optional :class:`repro.faults.FaultPlan`; consulted at
            :attr:`repro.faults.Site.CODEBOOK_SYNC` with the sync
            counter, so a rebuild dying mid-flight is a testable event.

        The result after a fully drained sync is **bit-identical** to a
        from-scratch rebuild over the same surviving records: same row
        order, same stacked challenges, same packed bytes.
        """
        if faults is not None:
            from repro.faults import Site

            faults.check(Site.CODEBOOK_SYNC, self.syncs)
        self.syncs += 1
        if revoked is not None:
            for chip_id in revoked:
                if chip_id not in self._revoked:
                    self.revoke_row(chip_id)

        rebuilt = 0
        structural = False
        # Fast path: a journal plus unchanged membership (a C-speed key
        # comparison) means no drops, no adds, no sort -- the sync
        # touches only the dirty rows.  This is the steady state of
        # fleet maintenance, and it keeps the per-mutation cost
        # O(|dirty|) instead of O(N) whatever the population size.
        row_keys = self._rows.keys()
        membership_unchanged = (
            dirty is not None
            and self._stacked_challenges is not None
            and (
                records.keys() - self._revoked == row_keys
                if self._revoked
                else records.keys() == row_keys
            )
        )
        if membership_unchanged:
            wanted = self._ids
            candidates = sorted(set(dirty) & row_keys)
        else:
            wanted = [c for c in sorted(records) if c not in self._revoked]
            wanted_set = set(wanted)
            for chip_id in list(self._rows):
                if chip_id not in wanted_set:
                    del self._rows[chip_id]
                    structural = True
                    rebuilt += 1
            if dirty is None:
                candidates = wanted
            else:
                candidates = sorted(
                    set(dirty) & wanted_set | (wanted_set - set(self._rows))
                )
        built = 0
        pending = 0
        touched: List[str] = []
        for chip_id in candidates:
            row = self._rows.get(chip_id)
            fingerprint = records[chip_id].fingerprint()
            if row is not None and row.fingerprint == fingerprint:
                continue
            if limit is not None and built >= limit:
                pending += 1
                continue
            self._rows[chip_id] = self._build_row(
                chip_id, fingerprint, selector_for(chip_id)
            )
            built += 1
            rebuilt += 1
            if row is None:
                structural = True
            else:
                touched.append(chip_id)

        if membership_unchanged:
            # No drops or adds happened (candidates were all existing
            # rows), so the stacked order is untouched.
            present = self._ids
        else:
            present = [c for c in wanted if c in self._rows]
        if structural or self._stacked_challenges is None or present != self._ids:
            if present or self._ids:
                self._restack(present)
        elif touched:
            for chip_id in touched:
                self._write_row(self._index[chip_id], self._rows[chip_id])
        self.rebuilds += rebuilt
        if pending == 0:
            self.synced_epoch = epoch
        return rebuilt

    def _build_row(
        self,
        chip_id: str,
        fingerprint: str,
        selector: ChallengeSelector,
    ) -> CodebookRow:
        challenges, predicted = selector.select(
            self.n_challenges, derive_generator(self.seed, "identify", chip_id)
        )
        return CodebookRow(
            chip_id=chip_id,
            fingerprint=fingerprint,
            challenges=np.ascontiguousarray(challenges),
            predicted=np.ascontiguousarray(predicted, dtype=np.int8),
            packed=pack_responses(predicted),
        )

    def _restack(self, ids: Sequence[str]) -> None:
        self.restacks += 1
        self._ids = list(ids)
        self._index = {c: i for i, c in enumerate(self._ids)}
        if not self._ids:
            self._active = None
            self._stacked_challenges = None
            self._packed_matrix = None
            return
        self._active = np.ones(len(self._ids), dtype=bool)
        self._stacked_challenges = np.ascontiguousarray(
            np.concatenate([self._rows[c].challenges for c in self._ids])
        )
        self._packed_matrix = np.ascontiguousarray(
            np.stack([self._rows[c].packed for c in self._ids])
        )

    def _write_row(self, position: int, row: CodebookRow) -> None:
        """Overwrite one row of the stacked form in place (no restack)."""
        self.row_writes += 1
        n = self.n_challenges
        self._stacked_challenges[position * n : (position + 1) * n] = row.challenges
        self._packed_matrix[position] = row.packed

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def read_answers(
        self,
        responders: Sequence,
        conditions: Sequence,
    ) -> np.ndarray:
        """Read every device once and pack the batch's answers.

        Each responder answers :attr:`stacked_challenges` under its
        condition, in order.  Its answer goes into its slot of one
        zero-padded ``(n_requests, n_identities, padded_bits(n))`` grid
        and is range-checked right away, so an answer that is not all
        0/1 raises ``ValueError`` before the next device is read.  One
        flat pack of the whole grid then gives the word-padded rows
        :meth:`match_packed` scores.
        """
        n_rows = len(self._ids)
        if n_rows == 0:
            raise RuntimeError("codebook is empty; sync it against a database")
        n = self.n_challenges
        grid = np.zeros(
            (len(responders), n_rows, padded_bits(n)), dtype=np.uint8
        )
        for slot, (responder, condition) in enumerate(
            zip(responders, conditions)
        ):
            answer = np.asarray(
                responder.xor_response(self._stacked_challenges, condition)
            )
            _check_response_bits(answer)
            grid[slot, :, :n] = answer.reshape(n_rows, n)
        return _pack_padded(grid)

    def match_packed(
        self, packed: np.ndarray, *, use_lut: bool = False
    ) -> np.ndarray:
        """Scores for responses that are *already* bit-packed.

        *packed* is ``(n_requests, n_identities, n_bytes)`` word-padded
        rows as produced by :func:`pack_responses` or
        :meth:`read_answers`; returns ``(n_requests, n_identities)``
        float64 match fractions in :attr:`ids` order.  Tombstoned rows
        still get a score here (the matrix is contiguous); winners are
        excluded at argmax time via :attr:`active_mask`.
        """
        n = len(self._ids)
        if n == 0:
            raise RuntimeError("codebook is empty; sync it against a database")
        packed = np.asarray(packed, dtype=np.uint8)
        expected = self._packed_matrix.shape[-1]
        if packed.shape[-2:] != (n, expected):
            raise ValueError(
                f"packed responses shaped {packed.shape}, codebook expects "
                f"(..., {n}, {expected})"
            )
        packed = packed.reshape(-1, n, expected)
        return packed_match_fractions(
            packed, self.packed_matrix[None, :, :], self.n_challenges,
            use_lut=use_lut,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path], *, faults=None) -> None:
        """Serialise rows + metadata to one ``.npz`` file, crash-safely.

        The write is atomic (tmp + fsync + rename, see
        :func:`repro.engine.runtime.atomic_write_bytes`) and the payload
        carries an embedded SHA-256 checksum: a crash mid-save leaves
        the previous file generation intact, and bit rot is detected at
        load time instead of producing silently wrong scores.  *faults*
        hooks :attr:`repro.faults.Site.CODEBOOK_PERSIST`.
        """
        if not self._ids:
            raise RuntimeError("refusing to save an empty codebook")
        # The persist counter only advances once the atomic rename has
        # happened, so a save killed by a fault replays the same index
        # on retry (``fail_attempts`` then heals transient failures).
        if faults is not None:
            from repro.faults import Site

            faults.check(Site.CODEBOOK_PERSIST, self.persists)
        meta = {
            "version": 2,
            "n_challenges": self.n_challenges,
            "seed": self.seed,
            "ids": self._ids,
            "fingerprints": [self._rows[c].fingerprint for c in self._ids],
            "revoked": sorted(self._revoked),
        }
        challenges = np.stack([self._rows[c].challenges for c in self._ids])
        arrays = {
            "challenges": np.packbits(challenges.astype(np.uint8), axis=-1),
            "predicted": np.stack([self._rows[c].packed for c in self._ids]),
            "n_stages": np.int64(challenges.shape[-1]),
            "n_challenges": np.int64(self.n_challenges),
            "meta": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ),
        }
        from repro.crp.dataset import _payload_checksum
        from repro.engine.runtime import atomic_write_bytes

        buffer = io.BytesIO()
        np.savez_compressed(
            buffer, checksum=np.str_(_payload_checksum(arrays)), **arrays
        )
        data = buffer.getvalue()
        if faults is not None:
            from repro.faults import Site

            # Same visit as the check above, so ``fail_attempts``
            # counts whole saves, not individual hook calls.
            data = faults.corrupt_bytes(
                Site.CODEBOOK_PERSIST, data, self.persists, attempt=0
            )
        atomic_write_bytes(Path(path), data)
        self.persists += 1

    @classmethod
    def load(cls, path: Union[str, Path], *, faults=None) -> "IdentificationCodebook":
        """Rebuild a codebook from :meth:`save` output.

        Loaded rows carry their stored fingerprints; the next
        :meth:`sync` against a database validates them and rebuilds
        only rows whose records changed since the save.  Persisted
        tombstones are re-applied immediately.  Rows are re-packed from
        their unpacked bits, so files written with the older
        ``ceil(n_challenges / 8)``-byte rows load into the word-padded
        layout.

        Raises
        ------
        repro.crp.dataset.CorruptDatasetError
            For truncated, damaged or checksum-failing files (including
            version-2 files whose stored SHA-256 does not match).
            Files written before checksums existed still load.
        """
        if faults is not None:
            from repro.faults import Site

            faults.check(Site.CODEBOOK_PERSIST)
        from repro.crp.dataset import _checked_load

        data = _checked_load(
            Path(path),
            ("challenges", "predicted", "n_stages", "n_challenges", "meta"),
        )
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        packed_challenges = data["challenges"]
        packed_predicted = data["predicted"]
        n_stages = int(data["n_stages"])
        book = cls(n_challenges=int(meta["n_challenges"]), seed=meta["seed"])
        n = book.n_challenges
        for index, (chip_id, fingerprint) in enumerate(
            zip(meta["ids"], meta["fingerprints"])
        ):
            challenges = np.unpackbits(
                packed_challenges[index], axis=-1, count=n_stages
            ).astype(np.int8)
            predicted = np.unpackbits(packed_predicted[index], count=n)
            book._rows[chip_id] = CodebookRow(
                chip_id=chip_id,
                fingerprint=fingerprint,
                challenges=np.ascontiguousarray(challenges),
                predicted=predicted.astype(np.int8),
                packed=pack_responses(predicted),
            )
        book._restack(meta["ids"])
        for chip_id in meta.get("revoked", ()):
            book.revoke_row(chip_id)
        return book
