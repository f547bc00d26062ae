"""Unit tests for audit events, challenge digests and the replay check."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.service import AuditLog, AuthEvent, AuthOutcome, challenge_digests
from repro.service.events import PackedDigests

pytestmark = pytest.mark.service


def event(seq, chip_id="chip-0", outcome=AuthOutcome.APPROVED, digests=()):
    return AuthEvent(
        seq=seq, request=seq, chip_id=chip_id, outcome=outcome, digests=digests
    )


class TestChallengeDigests:
    def test_digest_is_a_function_of_the_bit_pattern(self):
        rows = np.array([[0, 1, 1, 0], [1, 1, 0, 0]])
        as_int8 = challenge_digests(rows.astype(np.int8))
        as_int64 = challenge_digests(rows.astype(np.int64))
        as_fortran = challenge_digests(np.asfortranarray(rows))
        assert as_int8 == as_int64 == as_fortran

    def test_equal_rows_collide_distinct_rows_do_not(self):
        rows = np.array([[0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]])
        digests = challenge_digests(rows)
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError, match="2-D"):
            challenge_digests(np.array([0, 1, 0, 1]))


class TestPackedDigests:
    def test_event_packs_row_digests_to_their_bytes(self):
        digests = challenge_digests(np.eye(5, 32, dtype=np.int8))
        packed = event(0, digests=digests).digests
        assert isinstance(packed, PackedDigests)
        assert len(packed.raw) == 8 * len(digests)
        assert packed == digests and digests == packed
        assert list(packed) == list(digests) and packed[-1] == digests[-1]
        assert event(0, digests=packed) == event(0, digests=digests)
        assert event(0, digests=digests).to_dict()["digests"] == list(digests)

    def test_no_digests(self):
        assert event(0).digests == () and () == event(0).digests
        assert not event(0).digests
        assert event(0).digests is event(1, digests=[]).digests

    def test_unequal_lengths_are_refused(self):
        with pytest.raises(ValueError, match="same length"):
            PackedDigests.of(("aa", "bbbb"))


class TestAuditLog:
    def test_append_returns_the_event_and_type_checks(self):
        log = AuditLog()
        first = event(0)
        assert log.append(first) is first
        assert len(log) == 1
        with pytest.raises(TypeError, match="AuthEvent"):
            log.append({"outcome": "approved"})

    def test_queries(self):
        log = AuditLog()
        log.append(event(0, "chip-0", AuthOutcome.APPROVED))
        log.append(event(1, "chip-1", AuthOutcome.REJECTED))
        log.append(event(2, "chip-0", AuthOutcome.BUDGET_LOW))
        assert [e.seq for e in log.for_chip("chip-0")] == [0, 2]
        assert [e.seq for e in log.with_outcome(AuthOutcome.REJECTED)] == [1]
        # BUDGET_LOW is informational, not a decision.
        assert [e.seq for e in log.decisions()] == [0, 1]
        assert log.outcome_counts() == {
            "approved": 1, "rejected": 1, "budget-low": 1,
        }

    def test_replay_detection_per_chip(self):
        log = AuditLog()
        log.append(event(0, "chip-0", digests=("aa", "bb")))
        log.append(event(1, "chip-1", digests=("aa",)))  # other chip: fine
        assert log.replayed_digests() == {}
        log.append(event(2, "chip-0", digests=("bb", "cc")))
        assert log.replayed_digests() == {"chip-0": ["bb"]}
        assert log.issued_digests("chip-0") == ["aa", "bb", "bb", "cc"]

    def test_replays_in_two_chips_match_a_per_chip_rescan(self):
        log = AuditLog()
        log.append(event(0, "chip-b", digests=("aa", "bb")))
        log.append(event(1, "chip-a", digests=("aa", "cc")))
        log.append(event(2, None, digests=("aa", "aa")))  # anonymous: skipped
        log.append(event(3, "chip-b", digests=("bb", "dd", "bb")))
        log.append(event(4, "chip-a", AuthOutcome.RUNG_ESCALATED))
        log.append(event(5, "chip-a", digests=("cc", "ee", "aa")))
        replayed = log.replayed_digests()
        assert replayed == {"chip-a": ["cc", "aa"], "chip-b": ["bb", "bb"]}
        assert list(replayed) == ["chip-a", "chip-b"]

        rescan = {}
        for chip_id in ("chip-a", "chip-b"):
            digests = log.issued_digests(chip_id)
            duplicates = [d for i, d in enumerate(digests) if d in digests[:i]]
            if duplicates:
                rescan[chip_id] = duplicates
        assert replayed == rescan

    def test_save_round_trips_through_json_lines(self, tmp_path):
        log = AuditLog()
        log.append(event(0, digests=("aa", "bb")))
        log.append(event(1, outcome=AuthOutcome.DEVICE_ERROR))
        path = log.save(tmp_path / "audit.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        rows = [json.loads(line) for line in lines]
        assert rows[0]["digests"] == ["aa", "bb"]
        assert rows[1]["outcome"] == "device-error"
