"""Tests of the bit-packed identification codebook data plane.

The load-bearing claim is *bit-identity*: the packed XOR + popcount
matcher must produce exactly the scores of the dense
``(responses == predicted).mean`` path -- same integers, same float64
division -- across odd block lengths, any population size, and after
every invalidation path (re-registration, re-tightening, persistence
round-trips).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.adjustment import BetaFactors
from repro.core.codebook import (
    IdentificationCodebook,
    pack_responses,
    packed_match_fractions,
    popcount,
)
from repro.core.enrollment import enroll_chip
from repro.core.server import AuthenticationServer
from repro.silicon.chip import fabricate_lot
from tests.core.test_server import dense_identify

N_STAGES = 32


def dense_fractions(responses: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """The reference dense scoring the packed matcher must reproduce."""
    return (responses == predicted).mean(axis=-1)


# ----------------------------------------------------------------------
# Pure matcher kernels
# ----------------------------------------------------------------------
class TestPackedKernels:
    @given(
        n_ids=st.integers(1, 64),
        n_challenges=st.integers(1, 129),
        seed=st.integers(0, 2**31),
        use_lut=st.booleans(),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_bit_identical_to_dense(self, n_ids, n_challenges, seed, use_lut):
        """Packed scores equal dense scores exactly, any geometry.

        Odd ``n_challenges`` exercises the zero-padding of packbits:
        both operands pad identically, so pad bits cancel in the XOR.
        """
        rng = np.random.default_rng(seed)
        responses = rng.integers(0, 2, size=(n_ids, n_challenges), dtype=np.int8)
        predicted = rng.integers(0, 2, size=(n_ids, n_challenges), dtype=np.int8)
        packed = packed_match_fractions(
            pack_responses(responses),
            pack_responses(predicted),
            n_challenges,
            use_lut=use_lut,
        )
        dense = dense_fractions(responses, predicted)
        assert packed.dtype == dense.dtype == np.float64
        assert (packed == dense).all()

    def test_bit_identical_at_n_1000(self):
        """One explicit large-population example (hypothesis stays small)."""
        rng = np.random.default_rng(7)
        responses = rng.integers(0, 2, size=(1000, 61), dtype=np.int8)
        predicted = rng.integers(0, 2, size=(1000, 61), dtype=np.int8)
        packed = packed_match_fractions(
            pack_responses(responses), pack_responses(predicted), 61
        )
        assert (packed == dense_fractions(responses, predicted)).all()

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_lut_equals_bitwise_count(self, seed):
        rng = np.random.default_rng(seed)
        packed = rng.integers(0, 256, size=(17, 9), dtype=np.uint8)
        assert (popcount(packed, use_lut=True) == popcount(packed)).all()

    def test_pack_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            pack_responses(np.array([0, 1, 2]))

    def test_match_fractions_rejects_bad_length(self):
        with pytest.raises(ValueError, match="n_challenges"):
            packed_match_fractions(
                np.zeros((1, 8), np.uint8), np.zeros((1, 8), np.uint8), 0
            )


# ----------------------------------------------------------------------
# Codebook against a live server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lot_and_server():
    """Three enrolled chips; tests treat the pair as read-only."""
    lot = fabricate_lot(3, 3, N_STAGES, seed=160)
    server = AuthenticationServer()
    for i, chip in enumerate(lot):
        server.enroll(
            chip, seed=161 + i,
            n_enroll_challenges=1200, n_validation_challenges=5000,
        )
    return lot, server


def fresh_server(lot_and_server):
    """A mutable copy of the module server (same records, own caches)."""
    _, server = lot_and_server
    return AuthenticationServer(
        {chip_id: server.record(chip_id) for chip_id in server.enrolled_ids}
    )


@pytest.fixture(scope="module")
def aliased_corpus():
    """Eight base chips registered under ``id-%05d`` aliases.

    The fixed-seed regression corpus: every alias gets its own
    identification block, and the first three chips of the lot are
    the probes.
    """
    lot = fabricate_lot(8, 3, N_STAGES, seed=650)
    server = AuthenticationServer()
    for index, chip in enumerate(lot):
        record = enroll_chip(
            chip, seed=651 + index,
            n_enroll_challenges=1200, n_validation_challenges=5000,
        )
        server.register(dataclasses.replace(record, chip_id=f"id-{index:05d}"))
    return lot, server


class TestCodebookIdentify:
    @pytest.mark.parametrize(
        "n_challenges, corpus",
        [(61, "lot"), (64, "lot"), (64, "aliased")],
        ids=["61", "64", "aliased-64"],
    )
    def test_bit_identical_to_dense_identify(
        self, request, lot_and_server, n_challenges, corpus
    ):
        """Codebook identify equals the dense oracle bit-for-bit.

        Twin chips fabricated from one seed share their noise streams;
        both lots are fabricated *fresh* here so each device pair sits
        at the same stream position, the oracle and the codebook see
        identical answers, and any score difference would be the
        matcher's fault alone.
        """
        if corpus == "lot":
            server, seed, lot_seed = fresh_server(lot_and_server), 170, 160
        else:
            corpus_pair = request.getfixturevalue("aliased_corpus")
            server, seed, lot_seed = fresh_server(corpus_pair), 700, 650
        for index, (chip, twin) in enumerate(zip(
            fabricate_lot(3, 3, N_STAGES, seed=lot_seed),
            fabricate_lot(3, 3, N_STAGES, seed=lot_seed),
        )):
            expected = dense_identify(server, chip, n_challenges, seed)
            got = server.identify(
                twin, n_challenges=n_challenges, seed=seed, return_scores=True
            )
            assert got.chip_id == server.enrolled_ids[index]
            assert got == expected

    def test_codebook_used_by_default_once_built(self, lot_and_server):
        lot, _ = lot_and_server
        server = fresh_server(lot_and_server)
        server.codebook(64, seed=171)
        before = server.codebook(64, seed=171).rebuilds
        result = server.identify(lot[0])
        assert result.chip_id == lot[0].chip_id
        assert server.codebook(64, seed=171).rebuilds == before

    def test_scores_are_opt_in(self, lot_and_server):
        lot, _ = lot_and_server
        server = fresh_server(lot_and_server)
        assert server.identify(lot[0], seed=172).scores is None
        scored = server.identify(lot[0], seed=172, return_scores=True)
        assert set(scored.scores) == set(server.enrolled_ids)

    def test_identify_many_matches_identify(self, lot_and_server):
        lot, _ = lot_and_server
        server = fresh_server(lot_and_server)
        batch = server.identify_many(lot, n_challenges=64, seed=173)
        singles = [server.identify(chip, n_challenges=64) for chip in lot]
        assert [r.chip_id for r in batch] == [r.chip_id for r in singles]
        assert [r.match_fraction for r in batch] == [
            r.match_fraction for r in singles
        ]

    def test_conflicting_seed_is_refused(self, lot_and_server):
        """A seed the built codebook was not built with raises.

        Its rows were selected from other streams, so silently serving
        them would ignore the caller's seed; ``seed=None`` takes
        whatever is built.
        """
        lot, _ = lot_and_server
        server = fresh_server(lot_and_server)
        server.identify_many([lot[0]], seed=1)
        with pytest.raises(ValueError, match="seed 1, not the requested seed 2"):
            server.identify_many([lot[0]], seed=2)
        assert server.codebook(64).seed == 1
        assert server.codebook(64, seed=1).seed == 1


class TestEpochInvalidation:
    def test_register_bumps_epoch_and_rebuilds_one_row(self, lot_and_server):
        server = fresh_server(lot_and_server)
        book = server.codebook(64, seed=180)
        n = len(server.enrolled_ids)
        assert book.rebuilds == n
        epoch = server.epoch
        record = server.record(server.enrolled_ids[0])
        server.register(record.with_betas(BetaFactors(0.5, 1.5)))
        assert server.epoch == epoch + 1
        book = server.codebook(64, seed=180)
        assert book.rebuilds == n + 1  # only the changed row

    def test_retighten_invalidates_only_that_row(self, lot_and_server):
        server = fresh_server(lot_and_server)
        book = server.codebook(64, seed=181)
        n = book.rebuilds
        target = server.enrolled_ids[1]
        old = server.record(target).betas
        updated = server.retighten(target, 0.25, 2.2)
        assert updated.betas.beta0 == pytest.approx(old.beta0 * 0.25)
        assert updated.betas.beta1 == pytest.approx(old.beta1 * 2.2)
        book = server.codebook(64, seed=181)
        assert book.rebuilds == n + 1

    def test_unenrolled_rows_dropped(self, lot_and_server):
        server = fresh_server(lot_and_server)
        book = server.codebook(64, seed=182)
        victim = server.enrolled_ids[0]
        server._records.pop(victim)  # simulate revocation
        server._sorted_ids = None
        server._epoch += 1
        book = server.codebook(64, seed=182)
        assert victim not in book.ids

    def test_unsynced_codebook_raises(self):
        book = IdentificationCodebook(64)
        with pytest.raises(RuntimeError, match="empty"):
            book.match_packed(np.zeros((1, 0, 8), dtype=np.uint8))
        with pytest.raises(RuntimeError, match="empty"):
            _ = book.stacked_challenges

    def test_enrolled_ids_cached_and_invalidated(self, lot_and_server):
        server = fresh_server(lot_and_server)
        first = server.enrolled_ids
        assert server.enrolled_ids == first
        record = server.record(first[0])
        server.register(dataclasses.replace(record, chip_id="zz-new"))
        assert "zz-new" in server.enrolled_ids
        # The returned list is a copy; mutating it must not poison the cache.
        server.enrolled_ids.append("bogus")
        assert "bogus" not in server.enrolled_ids


class TestPersistence:
    def test_codebook_save_load_roundtrip(self, lot_and_server, tmp_path):
        lot, _ = lot_and_server
        book = fresh_server(lot_and_server).codebook(64, seed=190)
        path = tmp_path / "book.npz"
        book.save(path)
        loaded = IdentificationCodebook.load(path)
        assert loaded.ids == book.ids
        assert loaded.seed == book.seed
        assert (loaded.stacked_challenges == book.stacked_challenges).all()
        assert (loaded.packed_matrix == book.packed_matrix).all()
        responses = np.asarray(lot[0].xor_response(loaded.stacked_challenges))
        packed = pack_responses(responses.reshape(1, len(book), 64))
        assert (loaded.match_packed(packed) == book.match_packed(packed)).all()

    def test_database_roundtrip_carries_codebook(self, lot_and_server, tmp_path):
        lot, _ = lot_and_server
        server = fresh_server(lot_and_server)
        server.codebook(64, seed=191)
        server.save_database(tmp_path / "db")
        assert (tmp_path / "db" / "_codebook_64.npz").exists()
        reloaded = AuthenticationServer.load_database(tmp_path / "db")
        assert reloaded.enrolled_ids == server.enrolled_ids
        result = reloaded.identify(lot[0])
        assert result.chip_id == lot[0].chip_id
        # The persisted rows were valid, so the sweep rebuilt nothing.
        assert reloaded.codebook(64).rebuilds == 0

    def test_stale_persisted_rows_rebuilt(self, lot_and_server, tmp_path):
        lot, _ = lot_and_server
        base = fresh_server(lot_and_server)
        base.codebook(64, seed=192)
        base.save_database(tmp_path / "db")
        reloaded = AuthenticationServer.load_database(tmp_path / "db")
        target = reloaded.enrolled_ids[0]
        reloaded.retighten(target, 0.25, 2.2)
        book = reloaded.codebook(64)
        assert book.rebuilds == 1  # the re-tightened row only
        assert reloaded.identify(lot[0]).chip_id == lot[0].chip_id

    def test_empty_codebook_refuses_save(self, tmp_path):
        with pytest.raises(RuntimeError, match="empty"):
            IdentificationCodebook(64).save(tmp_path / "empty.npz")
