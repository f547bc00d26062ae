"""The batch identification pass against the per-request reference.

:meth:`AuthenticationServer.identify_many` reads every device into one
word-padded answer grid, packs it once, scores ``uint64`` words and
picks every winner with one masked argmax.  The reference it must
reproduce bit for bit is the per-request path it replaced, kept here as
the oracle: each transcript packed on its own at ``ceil(n / 8)`` bytes,
a byte-wise popcount sum against the codebook's predicted bits, then
a masked per-request argmax (:func:`best_match`).
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.codebook import (
    CodebookPolicy,
    IdentificationCodebook,
    _POPCOUNT_LUT,
    pack_responses,
    packed_match_fractions,
)
from repro.core.server import AuthenticationServer, IdentificationResult
from repro.service.frontend import _GuardedResponder
from repro.silicon.chip import fabricate_lot

N_STAGES = 32
SEED = 1207

#: Block lengths around every byte and word boundary.
N_VALUES = (1, 7, 8, 61, 63, 64, 65, 128, 130)


@pytest.fixture(scope="module")
def records():
    """Five identities: three enrolled chips and two aliases of one."""
    lot = fabricate_lot(3, 3, N_STAGES, seed=1200)
    server = AuthenticationServer()
    for index, chip in enumerate(lot):
        server.enroll(
            chip, seed=1201 + index,
            n_enroll_challenges=1200, n_validation_challenges=5000,
        )
    out = {chip_id: server.record(chip_id) for chip_id in server.enrolled_ids}
    base = out[lot[0].chip_id]
    for alias in ("alias-a", "alias-b"):
        out[alias] = dataclasses.replace(base, chip_id=alias)
    return out


@pytest.fixture(scope="module")
def books(records):
    """One synced codebook per block length, built at epoch 0."""
    server = AuthenticationServer(records)
    return {n: server.codebook(n, seed=SEED) for n in N_VALUES}


def serving_server(records, books, n):
    """A deferred-policy server holding a private copy of *n*'s codebook.

    Deferred sync keeps a revoked row tombstoned (not compacted) until
    maintenance runs, so the masked argmax path is what serves.
    """
    server = AuthenticationServer(
        records, codebook_policy=CodebookPolicy(deferred=True)
    )
    server._codebooks[n] = copy.deepcopy(books[n])
    return server


class FixedResponder:
    """Answers the stacked codebook query with a precomputed array."""

    def __init__(self, answer):
        self.answer = answer
        self.reads = 0

    def xor_response(self, challenges, condition=None):
        self.reads += 1
        return self.answer


def predicted_rows(book):
    return np.stack([book.row(c).predicted for c in book.ids])


def best_match(ids, match, min_match_fraction, return_scores, active):
    """One request's winner, tombstoned rows masked out of everything."""
    if not active.all():
        if not active.any():
            return IdentificationResult(
                chip_id=None,
                match_fraction=0.0,
                scores={} if return_scores else None,
            )
        match_kept = np.where(active, match, -1.0)
    else:
        match_kept = match
    best = int(np.argmax(match_kept))
    best_score = float(match[best])
    return IdentificationResult(
        chip_id=ids[best] if best_score >= min_match_fraction else None,
        match_fraction=best_score,
        scores=(
            {
                chip_id: float(value)
                for chip_id, value, kept in zip(ids, match, active)
                if kept
            }
            if return_scores else None
        ),
    )


def oracle(book, answers, min_match_fraction, return_scores):
    """The per-request reference: ceil(n / 8)-byte packs, byte popcount."""
    n = book.n_challenges
    ids = book.ids
    active = book.active_mask
    predicted = np.packbits(predicted_rows(book).astype(np.uint8), axis=-1)
    results = []
    for answer in answers:
        bits = np.asarray(answer).astype(np.uint8).reshape(len(ids), n)
        packed = np.packbits(bits, axis=-1)
        distances = _POPCOUNT_LUT[packed ^ predicted].sum(
            axis=-1, dtype=np.int64
        )
        results.append(best_match(
            ids, (n - distances) / float(n), min_match_fraction,
            return_scores, active,
        ))
    return results


@st.composite
def answer_grids(draw, predicted):
    """One device's answer: each row at a drawn distance from its row.

    A *tie* gives a random pair of rows the same, best distance (the
    lower id must win); a *stranger* answers uniform noise.
    """
    n_rows, n = predicted.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from((np.int8, np.uint8, np.int64, np.bool_)))
    if draw(st.booleans()) and draw(st.booleans()):
        answer = rng.integers(0, 2, size=(n_rows, n))
        return answer.reshape(-1).astype(dtype)
    distances = draw(
        st.lists(st.integers(0, n), min_size=n_rows, max_size=n_rows)
    )
    if n_rows > 1 and draw(st.booleans()):
        a, b = sorted(rng.choice(n_rows, size=2, replace=False))
        distances[a] = distances[b] = min(distances)
    answer = predicted.copy()
    for row, distance in enumerate(distances):
        flips = rng.choice(n, size=distance, replace=False)
        answer[row, flips] ^= 1
    return answer.reshape(-1).astype(dtype)


class TestBatchEqualsOracle:
    @given(data=st.data())
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
        ],
    )
    def test_results_scores_and_winners(self, records, books, data):
        n = data.draw(st.sampled_from(N_VALUES), label="n")
        batch = data.draw(st.sampled_from((1, 2, 33)), label="batch")
        return_scores = data.draw(st.booleans(), label="return_scores")
        min_match = data.draw(st.sampled_from((0.5, 0.95, 1.0)))
        server = serving_server(records, books, n)
        ids = server.codebook(n).ids
        revoked = data.draw(
            st.one_of(
                st.just(list(ids)),  # every row tombstoned
                st.lists(st.sampled_from(ids), unique=True, max_size=3),
            ),
            label="revoked",
        )
        for chip_id in revoked:
            server.revoke(chip_id)
        book = server.codebook(n)
        assert book.ids == ids  # tombstoned, not compacted
        predicted = predicted_rows(book)
        answers = [
            data.draw(answer_grids(predicted), label=f"answer{i}")
            for i in range(batch)
        ]
        got = server.identify_many(
            [FixedResponder(a) for a in answers],
            n_challenges=n,
            min_match_fraction=min_match,
            return_scores=return_scores,
        )
        assert got == oracle(book, answers, min_match, return_scores)
        single = server.identify(
            FixedResponder(answers[0]),
            n_challenges=n,
            min_match_fraction=min_match,
            return_scores=return_scores,
        )
        assert single == got[0]

    @pytest.mark.parametrize("n", N_VALUES)
    def test_tie_goes_to_lowest_id(self, records, books, n):
        server = serving_server(records, books, n)
        book = server.codebook(n)
        answer = predicted_rows(book).copy()
        # Every row one flip away (n = 1: every row fully wrong): all
        # rows tie, so the first id wins whatever the threshold.
        answer[:, 0] ^= 1
        (result,) = server.identify_many(
            [FixedResponder(answer.reshape(-1))],
            n_challenges=n, min_match_fraction=0.0,
        )
        assert result.chip_id == book.ids[0]
        assert result.match_fraction == (n - 1) / n


class TestRowLayout:
    @pytest.mark.parametrize("n", N_VALUES)
    def test_rows_are_whole_words(self, books, n):
        book = books[n]
        words = -(-n // 64)
        assert book.n_bytes == 8 * words
        assert book.packed_matrix.shape == (len(book), 8 * words)
        head = np.packbits(predicted_rows(book).astype(np.uint8), axis=-1)
        np.testing.assert_array_equal(
            book.packed_matrix[:, : head.shape[1]], head
        )
        assert not book.packed_matrix[:, head.shape[1]:].any()

    def test_pack_responses_is_packbits_at_whole_words(self):
        bits = np.random.default_rng(3).integers(0, 2, (4, 128), dtype=np.int8)
        np.testing.assert_array_equal(
            pack_responses(bits), np.packbits(bits.astype(np.uint8), axis=-1)
        )

    def test_byte_width_rows_are_refused_by_name(self):
        """A plain ``np.packbits`` row of 13 bytes (n = 100) is refused."""
        bits = np.random.default_rng(4).integers(0, 2, (3, 100), dtype=np.int8)
        byte_rows = np.packbits(bits.astype(np.uint8), axis=-1)
        assert byte_rows.shape[-1] == 13
        with pytest.raises(ValueError, match="pack_responses"):
            packed_match_fractions(byte_rows, pack_responses(bits), 100)
        with pytest.raises(ValueError, match="pack_responses"):
            packed_match_fractions(pack_responses(bits), byte_rows, 100)


class TestValidationOrder:
    """A bad answer stops the batch before the next device is read."""

    @pytest.mark.parametrize(
        "bad",
        [
            np.int8(-1),
            np.int8(2),
            np.int64(256),
            np.float64(0.5),
        ],
        ids=["int8-neg", "int8-two", "int64-256", "float-half"],
    )
    def test_invalid_bits_raise_before_next_read(self, records, books, bad):
        server = serving_server(records, books, 64)
        predicted = predicted_rows(server.codebook(64)).reshape(-1)
        answer = predicted.astype(np.asarray(bad).dtype)
        answer[17] = bad
        first = FixedResponder(predicted)
        third = FixedResponder(predicted)
        with pytest.raises(ValueError, match="0/1"):
            server.identify_many(
                [first, FixedResponder(answer), third], n_challenges=64
            )
        assert first.reads == 1
        assert third.reads == 0

    def test_bool_answer_accepted(self, records, books):
        server = serving_server(records, books, 64)
        book = server.codebook(64)
        predicted = predicted_rows(book).reshape(-1)
        as_bool, as_int = server.identify_many(
            [FixedResponder(predicted.astype(bool)), FixedResponder(predicted)],
            n_challenges=64, return_scores=True,
        )
        assert as_bool == as_int

    def test_guarded_zero_row_leaves_batchmates_alone(self, records, books):
        class Broken:
            def xor_response(self, challenges, condition=None):
                raise RuntimeError("radio dropped")

        server = serving_server(records, books, 64)
        book = server.codebook(64)
        predicted = predicted_rows(book)
        answers = []
        for row in range(len(book)):
            answer = np.random.default_rng(row).integers(
                0, 2, predicted.shape, dtype=np.int8
            )
            answer[row] = predicted[row]
            answers.append(answer.reshape(-1))
        alone = [
            server.identify_many([FixedResponder(a)], return_scores=True)[0]
            for a in answers
        ]
        guard = _GuardedResponder(Broken())
        mixed = server.identify_many(
            [FixedResponder(answers[0]), guard,
             *(FixedResponder(a) for a in answers[1:])],
            return_scores=True,
        )
        assert isinstance(guard.error, RuntimeError)
        assert mixed[0] == alone[0]
        assert mixed[2:] == alone[1:]
        assert mixed[1].chip_id is None


def _write_legacy_codebook(book, path):
    """Save *book* the way files were written with ceil(n / 8)-byte rows."""
    from repro.crp.dataset import _payload_checksum

    ids = book.ids
    meta = {
        "version": 2,
        "n_challenges": book.n_challenges,
        "seed": book.seed,
        "ids": ids,
        "fingerprints": [book.row(c).fingerprint for c in ids],
        "revoked": book.revoked_ids,
    }
    challenges = np.stack([book.row(c).challenges for c in ids])
    arrays = {
        "challenges": np.packbits(challenges.astype(np.uint8), axis=-1),
        "predicted": np.packbits(predicted_rows(book).astype(np.uint8), axis=-1),
        "n_stages": np.int64(challenges.shape[-1]),
        "n_challenges": np.int64(book.n_challenges),
        "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    }
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer, checksum=np.str_(_payload_checksum(arrays)), **arrays
    )
    path.write_bytes(buffer.getvalue())


class TestPersistence:
    def test_byte_width_file_loads_and_scores_identically(self, records, tmp_path):
        server = AuthenticationServer(records)
        book = server.codebook(100, seed=SEED)
        path = tmp_path / "legacy.npz"
        _write_legacy_codebook(book, path)
        with np.load(path) as raw:
            assert raw["predicted"].shape == (len(book), 13)
        loaded = IdentificationCodebook.load(path)
        assert loaded.ids == book.ids
        np.testing.assert_array_equal(loaded.packed_matrix, book.packed_matrix)
        np.testing.assert_array_equal(
            loaded.stacked_challenges, book.stacked_challenges
        )
        rng = np.random.default_rng(5)
        packed = pack_responses(
            rng.integers(0, 2, (3, len(book), 100), dtype=np.int8)
        )
        np.testing.assert_array_equal(
            loaded.match_packed(packed), book.match_packed(packed)
        )

    def test_save_at_64_writes_packbits_bytes(self, books, tmp_path):
        book = books[64]
        path = tmp_path / "book.npz"
        book.save(path)
        with np.load(path) as raw:
            np.testing.assert_array_equal(
                raw["predicted"],
                np.packbits(predicted_rows(book).astype(np.uint8), axis=-1),
            )
