"""Tests for the authentication server and model responder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.logistic import LogisticAttack
from repro.core.server import (
    AuthenticationServer,
    IdentificationResult,
    ModelResponder,
    UnknownChipError,
)
from repro.crp.challenges import random_challenges
from repro.crp.transform import parity_features
from repro.silicon.chip import PufChip
from repro.utils.rng import derive_generator

N_STAGES = 32


def dense_identify(server, device, n_challenges, seed):
    """The dense identify plane: the codebook plane's oracle.

    Selects each active identity's block from
    ``(seed, "identify", chip_id)``, sends every block to *device* in
    one stacked nominal read (sorted-id order, as the codebook stacks
    them), scores ``(responses == predicted).mean`` per identity and
    takes the first-occurrence argmax, so ties go to the lowest chip
    id; the winner must clear ``identify``'s default 0.95.
    """
    ids = server.active_ids
    blocks = [
        server.selector(chip_id).select(
            n_challenges, derive_generator(seed, "identify", chip_id)
        )
        for chip_id in ids
    ]
    stacked = np.concatenate([challenges for challenges, _ in blocks])
    predicted = np.stack([predicted for _, predicted in blocks])
    responses = np.asarray(device.xor_response(stacked))
    match = (responses.reshape(len(ids), n_challenges) == predicted).mean(axis=1)
    best = int(np.argmax(match))
    score = float(match[best])
    return IdentificationResult(
        chip_id=ids[best] if score >= 0.95 else None,
        match_fraction=score,
        scores=dict(zip(ids, match.tolist())),
    )


class TestDatabase:
    def test_register_and_lookup(self, enrolled_chip_and_record):
        _, record = enrolled_chip_and_record
        server = AuthenticationServer()
        server.register(record)
        assert server.enrolled_ids == [record.chip_id]
        assert server.record(record.chip_id) is record

    def test_unknown_chip_error(self):
        server = AuthenticationServer()
        with pytest.raises(UnknownChipError, match="not enrolled"):
            server.record("ghost")

    def test_init_with_records(self, enrolled_chip_and_record):
        _, record = enrolled_chip_and_record
        server = AuthenticationServer({record.chip_id: record})
        assert record.chip_id in server.enrolled_ids

    def test_enroll_registers(self):
        server = AuthenticationServer()
        chip = PufChip.create(2, N_STAGES, seed=1, chip_id="srv-1")
        record = server.enroll(
            chip, seed=2, n_enroll_challenges=800, n_validation_challenges=3000
        )
        assert server.record("srv-1") is record
        assert chip.is_deployed

    def test_selector_cached(self, enrolled_chip_and_record):
        _, record = enrolled_chip_and_record
        server = AuthenticationServer({record.chip_id: record})
        assert server.selector(record.chip_id) is server.selector(record.chip_id)

    def test_register_invalidates_selector_cache(self, enrolled_chip_and_record):
        _, record = enrolled_chip_and_record
        server = AuthenticationServer({record.chip_id: record})
        old = server.selector(record.chip_id)
        server.register(record)
        assert server.selector(record.chip_id) is not old


class TestPersistence:
    def test_save_load_roundtrip(self, enrolled_chip_and_record, tmp_path, serve):
        chip, record = enrolled_chip_and_record
        server = AuthenticationServer({record.chip_id: record})
        server.save_database(tmp_path / "db")
        loaded = AuthenticationServer.load_database(tmp_path / "db")
        assert loaded.enrolled_ids == server.enrolled_ids
        assert serve(loaded, seed=21).authenticate(chip).approved

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="database"):
            AuthenticationServer.load_database(tmp_path / "nope")

    def test_loaded_records_select_identically(
        self, enrolled_chip_and_record, tmp_path
    ):
        _, record = enrolled_chip_and_record
        server = AuthenticationServer({record.chip_id: record})
        server.save_database(tmp_path / "db")
        loaded = AuthenticationServer.load_database(tmp_path / "db")
        a, _ = server.selector(record.chip_id).select(30, seed=22)
        b, _ = loaded.selector(record.chip_id).select(30, seed=22)
        np.testing.assert_array_equal(a, b)


class TestAuthenticate:
    def test_honest_default_claim(self, enrolled_chip_and_record, serve):
        chip, record = enrolled_chip_and_record
        server = AuthenticationServer({record.chip_id: record})
        assert serve(server, seed=3).authenticate(chip).approved

    def test_explicit_impostor_claim(self, enrolled_chip_and_record, serve):
        _, record = enrolled_chip_and_record
        server = AuthenticationServer({record.chip_id: record})
        impostor = PufChip.create(4, N_STAGES, seed=97, chip_id="other")
        result = serve(server, seed=4, n_challenges=96).authenticate(
            impostor, claimed_id=record.chip_id
        )
        assert not result.approved

    def test_responder_without_id_needs_claim(self, enrolled_chip_and_record, serve):
        _, record = enrolled_chip_and_record
        server = AuthenticationServer({record.chip_id: record})

        class Anonymous:
            def xor_response(self, challenges, condition=None):
                return np.zeros(len(challenges), dtype=np.int8)

        with pytest.raises(ValueError, match="claimed_id"):
            serve(server, seed=5).authenticate(Anonymous())


class TestIdentify:
    #: One codebook seed per server: a cached codebook refuses another.
    SEED = 70

    @pytest.fixture(scope="class")
    def multi_server(self):
        from repro.silicon.chip import fabricate_lot

        lot = fabricate_lot(3, 3, N_STAGES, seed=60)
        server = AuthenticationServer()
        for i, chip in enumerate(lot):
            server.enroll(
                chip, seed=61 + i,
                n_enroll_challenges=1200, n_validation_challenges=5000,
            )
        return lot, server

    def test_genuine_chip_identified(self, multi_server):
        lot, server = multi_server
        for chip in lot:
            result = server.identify(chip, seed=self.SEED)
            assert result.chip_id == chip.chip_id
            assert result.match_fraction == pytest.approx(1.0, abs=0.02)

    def test_scores_cover_all_identities(self, multi_server):
        lot, server = multi_server
        result = server.identify(lot[0], seed=self.SEED, return_scores=True)
        assert set(result.scores) == {c.chip_id for c in lot}

    def test_non_matching_identities_near_coinflip(self, multi_server):
        lot, server = multi_server
        result = server.identify(
            lot[0], n_challenges=128, seed=self.SEED, return_scores=True
        )
        others = [v for k, v in result.scores.items() if k != lot[0].chip_id]
        assert all(abs(v - 0.5) < 0.2 for v in others)

    def test_unenrolled_device_rejected(self, multi_server):
        _, server = multi_server
        stranger = PufChip.create(3, N_STAGES, seed=999, chip_id="stranger")
        result = server.identify(stranger, n_challenges=128, seed=self.SEED)
        assert result.chip_id is None
        assert result.match_fraction < 0.95

    def test_vectorized_scores_match_reference_loop(self, multi_server):
        """Codebook identify equals the dense oracle bit-for-bit.

        Two chips fabricated from the same seed carry identical noise
        generators; one answers the oracle's stacked read, the other
        the codebook's, so both see the same noise stream.
        """
        _, server = multi_server
        device_loop = PufChip.create(3, N_STAGES, seed=31337, chip_id="twin")
        device_vec = PufChip.create(3, N_STAGES, seed=31337, chip_id="twin")
        expected = dense_identify(server, device_loop, 64, self.SEED)
        result = server.identify(
            device_vec, n_challenges=64, seed=self.SEED, return_scores=True
        )
        assert result == expected
        assert result.match_fraction == max(expected.scores.values())

    def test_empty_database_raises(self):
        with pytest.raises(UnknownChipError, match="no identities"):
            AuthenticationServer().identify(
                PufChip.create(1, N_STAGES, seed=1)
            )

    def test_tie_breaks_to_lowest_chip_id(self, enrolled_chip_and_record):
        """A perfect tie resolves to the lexicographically lowest id.

        Registering the same record under several ids makes the genuine
        chip score identically against all of them (each alias predicts
        the chip's own responses perfectly), so the winner is decided
        purely by the tie-break -- which must be deterministic, not
        dict-order.
        """
        import dataclasses

        chip, record = enrolled_chip_and_record
        server = AuthenticationServer()
        # Aliases sorting both after and before the genuine id.
        for alias in ("z-twin", record.chip_id, "a-twin"):
            server.register(dataclasses.replace(record, chip_id=alias))
        result = server.identify(chip, seed=75, return_scores=True)
        tied = [k for k, v in result.scores.items() if v == result.match_fraction]
        assert set(tied) == {"a-twin", record.chip_id, "z-twin"}
        assert result.chip_id == "a-twin"
        assert result.match_fraction == pytest.approx(1.0)


class TestModelResponder:
    def test_requires_predict(self):
        with pytest.raises(TypeError, match="predict"):
            ModelResponder(object())

    def test_wraps_attack_model(self, arbiter_puf):
        ch = random_challenges(3000, N_STAGES, seed=6)
        attack = LogisticAttack(seed=7).fit(
            parity_features(ch), arbiter_puf.noise_free_response(ch)
        )
        responder = ModelResponder(attack, chip_id="clone")
        test_ch = random_challenges(500, N_STAGES, seed=8)
        out = responder.xor_response(test_ch)
        assert out.shape == (500,)
        assert responder.chip_id == "clone"

    def test_good_clone_of_single_puf_would_pass(self, arbiter_puf):
        """Sanity: a near-perfect software clone passes prediction-match;
        the defence against it is XOR width, not the protocol."""
        ch = random_challenges(4000, N_STAGES, seed=9)
        attack = LogisticAttack(seed=10).fit(
            parity_features(ch), arbiter_puf.noise_free_response(ch)
        )
        test_ch = random_challenges(2000, N_STAGES, seed=11)
        clone_bits = ModelResponder(attack).xor_response(test_ch)
        true_bits = arbiter_puf.noise_free_response(test_ch)
        assert (clone_bits == true_bits).mean() > 0.95
