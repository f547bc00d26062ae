"""Degenerate-population edge cases of the codebook identification plane.

The identification path must stay well-typed at the boundaries a long
fleet life actually reaches -- nothing enrolled yet, everything
revoked, a fleet of one -- instead of leaking raw numpy errors
(``argmax of an empty sequence``, zero-length reshapes) out of the
packed matcher.  These tests pin the contract the sharded fleet's
refresh also relies on: total revocation answers with the typed
``UnknownChipError``, never a raw kernel exception.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codebook import (
    IdentificationCodebook,
    pack_responses,
    packed_match_fractions,
)
from repro.core.server import AuthenticationServer, UnknownChipError
from repro.silicon.chip import fabricate_lot

N_STAGES = 32


@pytest.fixture(scope="module")
def small_lot_server():
    """Three enrolled chips (module-scoped; treat as read-only)."""
    lot = fabricate_lot(3, 3, N_STAGES, seed=960)
    server = AuthenticationServer()
    for index, chip in enumerate(lot):
        server.enroll(
            chip, seed=961 + index,
            n_enroll_challenges=1200, n_validation_challenges=5000,
        )
    return lot, server


def mutable_copy(server: AuthenticationServer) -> AuthenticationServer:
    return AuthenticationServer(
        {chip_id: server.record(chip_id) for chip_id in server.enrolled_ids}
    )


class TestEmptyPopulation:
    def test_identify_raises_typed_error(self, small_lot_server):
        lot, _ = small_lot_server
        empty = AuthenticationServer()
        with pytest.raises(UnknownChipError):
            empty.identify(lot[0])

    def test_identify_many_raises_typed_error(self, small_lot_server):
        """Batched identification refuses an empty database up front.

        Without the guard the call would die deep in the codebook
        plane (an empty-matrix reshape cannot infer the batch size);
        the caller must see the same typed error as ``identify``.
        """
        lot, _ = small_lot_server
        empty = AuthenticationServer()
        with pytest.raises(UnknownChipError):
            empty.identify_many(lot)
        with pytest.raises(UnknownChipError):
            empty.identify_many([])

    def test_unsynced_book_names_the_remedy(self):
        book = IdentificationCodebook(64, seed=5)
        with pytest.raises(RuntimeError, match="sync it against a database"):
            book.read_answers([], [])
        with pytest.raises(RuntimeError, match="sync it against a database"):
            book.match_packed(np.zeros((2, 0, 8), dtype=np.uint8))


class TestAllRevoked:
    """Total revocation compacts the codebook to zero rows.

    Both identification planes must answer with the *typed*
    :class:`UnknownChipError` -- the same refusal an empty database
    gets -- never a raw empty-codebook ``RuntimeError`` or a numpy
    argmax failure from deep inside the packed matcher.
    """

    def test_identify_raises_typed_error(self, small_lot_server):
        lot, module_server = small_lot_server
        server = mutable_copy(module_server)
        server.codebook(64, seed=973)
        for chip_id in list(server.active_ids):
            server.revoke(chip_id)
        with pytest.raises(UnknownChipError):
            server.identify(lot[0])

    def test_identify_many_raises_typed_error(self, small_lot_server):
        lot, module_server = small_lot_server
        server = mutable_copy(module_server)
        server.codebook(64, seed=973)
        for chip_id in list(server.active_ids):
            server.revoke(chip_id)
        with pytest.raises(UnknownChipError):
            server.identify_many(lot, seed=973, return_scores=True)

    def test_revoked_row_never_wins_and_leaves_the_scores(
        self, small_lot_server
    ):
        """The genuine-but-revoked identity can neither win nor score."""
        lot, module_server = small_lot_server
        server = mutable_copy(module_server)
        server.codebook(64, seed=973)
        server.revoke(lot[0].chip_id)
        result = server.identify(lot[0], return_scores=True)
        # The genuine row would score near 1.0, but revocation removed
        # it: it must not win, and it must not appear in the scores.
        assert result.chip_id != lot[0].chip_id
        assert lot[0].chip_id not in result.scores
        # The survivors see only ~50 % coin-flip agreement.
        assert result.chip_id is None


class TestSingleIdentity:
    def test_identify_fleet_of_one(self, small_lot_server):
        lot, module_server = small_lot_server
        server = AuthenticationServer(
            {lot[0].chip_id: module_server.record(lot[0].chip_id)}
        )
        server.codebook(64, seed=990)
        result = server.identify(lot[0], return_scores=True)
        assert result.chip_id == lot[0].chip_id
        assert result.match_fraction > 0.95
        assert set(result.scores) == {lot[0].chip_id}

    def test_identify_many_fleet_of_one(self, small_lot_server):
        lot, module_server = small_lot_server
        server = AuthenticationServer(
            {lot[0].chip_id: module_server.record(lot[0].chip_id)}
        )
        server.codebook(64, seed=990)
        results = server.identify_many([lot[0], lot[1]], seed=990)
        assert results[0].chip_id == lot[0].chip_id
        # The imposter sees a ~50 % coin-flip row and clears nothing.
        assert results[1].chip_id is None


class TestZeroRowKernels:
    def test_packed_match_fractions_zero_rows(self):
        fractions = packed_match_fractions(
            np.zeros((0, 8), np.uint8), np.zeros((0, 8), np.uint8), 64
        )
        assert fractions.shape == (0,)

    def test_pack_responses_zero_rows(self):
        packed = pack_responses(np.zeros((0, 64), np.int8))
        assert packed.shape == (0, 8)


class TestShardBounds:
    """The fleet's contiguous partition helper on the codebook."""

    @pytest.fixture()
    def synced_book(self, small_lot_server):
        _, server = small_lot_server
        return server.codebook(64, seed=971)

    def test_partition_is_contiguous_and_complete(self, synced_book):
        bounds = synced_book.shard_bounds(2)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(synced_book)
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_rows_yields_empty_shards(self, synced_book):
        bounds = synced_book.shard_bounds(len(synced_book) + 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == len(synced_book)
        assert sum(stop - start for start, stop in bounds) == len(synced_book)
        assert sum(1 for start, stop in bounds if start == stop) == 3

    def test_row_position_round_trips_ids(self, synced_book):
        for chip_id in synced_book.ids:
            position = synced_book.row_position(chip_id)
            assert synced_book.ids[position] == chip_id

    def test_invalid_shard_count_rejected(self, synced_book):
        with pytest.raises(ValueError):
            synced_book.shard_bounds(0)
