"""The revocation lifecycle state machine, end to end through the server.

Revocation is terminal and total: the identity stops authenticating and
identifying *immediately*, its name is burned against re-registration,
and the fact survives persistence -- including a corrupt revocation
table, which must refuse to load rather than silently resurrect burned
identities.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.lifecycle import (
    LifecycleError,
    LifecycleState,
    RevocationRecord,
    RevokedChipError,
    revocations_from_payload,
    revocations_to_payload,
)
from repro.core.server import AuthenticationServer, UnknownChipError
from repro.crp.dataset import CorruptDatasetError
from repro.service import AuthOutcome
from repro.silicon.chip import fabricate_lot

from tests.core.test_codebook_incremental import seeded_server, synth_record

N_STAGES = 32


class TestStateMachine:
    def test_active_then_revoked_is_terminal(self):
        server = seeded_server(40)
        chip_id = server.enrolled_ids[0]
        assert server.lifecycle_state(chip_id) is LifecycleState.ACTIVE
        assert not server.is_revoked(chip_id)
        record = server.revoke(chip_id, reason="compromised")
        assert isinstance(record, RevocationRecord)
        assert record.chip_id == chip_id and record.reason == "compromised"
        assert server.lifecycle_state(chip_id) is LifecycleState.REVOKED
        assert server.revocation(chip_id) == record
        with pytest.raises(LifecycleError, match="already revoked"):
            server.revoke(chip_id)

    def test_unknown_chip_cannot_be_revoked(self):
        server = seeded_server(41)
        with pytest.raises(UnknownChipError):
            server.revoke("stranger")
        with pytest.raises(UnknownChipError):
            server.lifecycle_state("stranger")

    def test_revoked_name_is_burned(self):
        """Neither re-registration nor re-tightening revives the id."""
        server = seeded_server(42)
        chip_id = server.enrolled_ids[0]
        server.revoke(chip_id, reason="model extracted")
        with pytest.raises(RevokedChipError, match="re-registration"):
            server.register(synth_record(chip_id, 4242))
        with pytest.raises(RevokedChipError, match="re-tightening"):
            server.retighten(chip_id, 0.5, 1.5)
        # The error message is human-readable, not KeyError-quoted.
        try:
            server.retighten(chip_id, 0.5, 1.5)
        except RevokedChipError as exc:
            assert "model extracted" in str(exc)
            assert not str(exc).startswith('"')

    def test_record_retained_for_audit(self):
        server = seeded_server(43)
        chip_id = server.enrolled_ids[0]
        record = server.record(chip_id)
        server.revoke(chip_id)
        assert server.record(chip_id) == record
        assert chip_id in server.enrolled_ids
        assert chip_id not in server.active_ids

    def test_payload_round_trip(self):
        table = {
            "chip-0": RevocationRecord("chip-0", "stolen", epoch=3),
            "chip-9": RevocationRecord("chip-9", "", epoch=7),
        }
        assert revocations_from_payload(revocations_to_payload(table)) == table
        with pytest.raises(ValueError, match="revoked"):
            revocations_from_payload({"not": "a table"})


class TestRevokedServing:
    @pytest.fixture(scope="class")
    def fleet(self):
        """Two real enrolled chips (serving tests need real responses)."""
        lot = fabricate_lot(2, 3, N_STAGES, seed=440)
        server = AuthenticationServer()
        for index, chip in enumerate(lot):
            server.enroll(
                chip, seed=441 + index,
                n_enroll_challenges=1200, n_validation_challenges=5000,
            )
        return lot, server

    def fresh(self, fleet):
        lot, server = fleet
        clone = AuthenticationServer(
            {c: server.record(c) for c in server.enrolled_ids}
        )
        return lot, clone

    def test_authentication_refused(self, fleet, serve):
        lot, server = self.fresh(fleet)
        server.revoke(lot[0].chip_id)
        service = serve(server, seed=1)
        refused = service.authenticate(lot[0])
        assert refused.outcome is AuthOutcome.REVOKED
        assert refused.challenges_spent == 0
        # The other chip still authenticates normally.
        assert service.authenticate(lot[1]).approved

    def test_identify_excludes_revoked(self, fleet):
        lot, server = self.fresh(fleet)
        server.codebook(64, seed=444)
        server.revoke(lot[0].chip_id)
        # Tombstoned row cannot win even pre-compaction.
        result = server.identify(lot[0], return_scores=True)
        assert result.chip_id != lot[0].chip_id
        assert lot[0].chip_id not in result.scores

    def test_identify_with_no_active_identities(self, fleet):
        lot, server = self.fresh(fleet)
        server.codebook(64, seed=445)
        book = server.codebook(64)
        for chip_id in list(server.active_ids):
            server.revoke(chip_id)
        # Pre-compaction the rows still exist but none may win argmax.
        assert not book.active_mask.any()
        # Once synced the fleet is empty; identify refuses to guess.
        with pytest.raises(UnknownChipError, match="no active"):
            server.identify(lot[0])


class TestLifecyclePersistence:
    def test_revocations_survive_round_trip(self, tmp_path):
        server = seeded_server(45)
        victim = server.enrolled_ids[0]
        server.codebook(64, seed=45)
        server.revoke(victim, reason="field unit lost")
        server.save_database(tmp_path / "db")
        reloaded = AuthenticationServer.load_database(tmp_path / "db")
        assert reloaded.is_revoked(victim)
        assert reloaded.revocation(victim).reason == "field unit lost"
        assert victim not in reloaded.codebook(64).ids
        with pytest.raises(RevokedChipError):
            reloaded.register(synth_record(victim, 999))

    def test_corrupt_lifecycle_table_refuses_to_load(self, tmp_path):
        server = seeded_server(46)
        server.revoke(server.enrolled_ids[0])
        server.save_database(tmp_path / "db")
        path = tmp_path / "db" / "_lifecycle.json"
        path.write_text(path.read_text()[:-20])
        with pytest.raises(CorruptDatasetError):
            AuthenticationServer.load_database(tmp_path / "db")
        path.write_text(json.dumps({"version": 1, "revoked": "oops"}))
        with pytest.raises(CorruptDatasetError):
            AuthenticationServer.load_database(tmp_path / "db")
