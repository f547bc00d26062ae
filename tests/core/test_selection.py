"""Tests for model-assisted challenge selection (Fig. 7, server side)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import LinearPufModel, XorPufModel
from repro.core.selection import FIRST_CHUNK, ChallengeSelector, SelectionExhaustedError
from repro.core.thresholds import ResponseCategory, ThresholdPair, category_to_bit
from repro.crp.challenges import ChallengeStream, random_challenges
from repro.service import ServiceConfig

N_STAGES = 32


@pytest.fixture(scope="module")
def selector(enrolled_chip_and_record):
    _, record = enrolled_chip_and_record
    return record.selector()


class TestConstruction:
    def test_pair_count_validated(self):
        rng = np.random.default_rng(0)
        xm = XorPufModel([LinearPufModel(rng.normal(size=9)) for _ in range(2)])
        with pytest.raises(ValueError, match="threshold pairs"):
            ChallengeSelector(xm, [ThresholdPair(0.3, 0.7)])

    def test_properties(self, selector):
        assert selector.n_pufs == 4
        assert selector.n_stages == N_STAGES


class TestClassification:
    def test_categories_shape(self, selector, challenge_batch):
        cats = selector.categories(challenge_batch)
        assert cats.shape == (4, len(challenge_batch))
        assert set(np.unique(cats)) <= {
            ResponseCategory.STABLE_ZERO,
            ResponseCategory.UNSTABLE,
            ResponseCategory.STABLE_ONE,
        }

    def test_stable_mask_is_and_of_categories(self, selector, challenge_batch):
        cats = selector.categories(challenge_batch)
        expected = (cats != ResponseCategory.UNSTABLE).all(axis=0)
        np.testing.assert_array_equal(selector.stable_mask(challenge_batch), expected)

    def test_predicted_fraction_between_0_and_1(self, selector, challenge_batch):
        frac = selector.predicted_stable_fraction(challenge_batch)
        assert 0.0 < frac < 1.0

    def test_predicted_xor_response_is_xor_of_bits(self, selector, challenge_batch):
        cats = selector.categories(challenge_batch)
        bits = (cats == ResponseCategory.STABLE_ONE).astype(np.int8)
        expected = np.bitwise_xor.reduce(bits, axis=0)
        np.testing.assert_array_equal(
            selector.predicted_xor_response(challenge_batch), expected
        )


class TestSelect:
    def test_select_returns_requested_count(self, selector):
        challenges, predicted = selector.select(100, seed=1)
        assert challenges.shape == (100, N_STAGES)
        assert predicted.shape == (100,)

    def test_selected_challenges_pass_filter(self, selector):
        challenges, _ = selector.select(100, seed=2)
        assert selector.stable_mask(challenges).all()

    def test_selection_reproducible(self, selector):
        a, _ = selector.select(50, seed=3)
        b, _ = selector.select(50, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_challenges(self, selector):
        a, _ = selector.select(50, seed=4)
        b, _ = selector.select(50, seed=5)
        assert not np.array_equal(a, b)

    def test_budget_guard(self, selector):
        with pytest.raises(SelectionExhaustedError, match="collected only"):
            selector.select(10_000, seed=6, max_draws=128)

    def test_selected_responses_are_truly_stable(
        self, enrolled_chip_and_record, selector
    ):
        """The whole point: selected CRPs never flip on the real chip."""
        chip, _ = enrolled_chip_and_record
        challenges, predicted = selector.select(200, seed=7)
        for trial in range(3):
            responses = chip.xor_response(challenges)
            np.testing.assert_array_equal(responses, predicted)


def _reference_select(selector, n_challenges, seed):
    """The full-batch rejection loop: classify whole 4096-row batches
    and truncate the stable rows to *n_challenges* at the end."""
    stream = ChallengeStream(selector.n_stages, seed)
    kept, bits = [], []
    while sum(len(rows) for rows in kept) < n_challenges:
        batch = stream.take(4096)
        categories = selector.categories(batch)
        mask = (categories != ResponseCategory.UNSTABLE).all(axis=0)
        kept.append(batch[mask])
        bits.append(
            np.bitwise_xor.reduce(category_to_bit(categories[:, mask]), axis=0)
        )
    return np.concatenate(kept)[:n_challenges], np.concatenate(bits)[:n_challenges]


def _synthetic_selector(n_stages, tightened):
    """Two-PUF selector on random linear models centred on 0.5.

    The nominal pair accepts about half of the challenges and the
    tightened one about 5 %, so ``n = 513`` runs past the doubling
    chunks into the capped ones.
    """
    rng = np.random.default_rng(n_stages)
    models = []
    for _ in range(2):
        weights = rng.normal(scale=0.5 / np.sqrt(n_stages), size=n_stages + 1)
        weights[-1] = 0.5
        models.append(LinearPufModel(weights))
    pair = ThresholdPair(0.3, 0.7)
    if tightened:
        pair = pair.scale(0.25, 2.2)
    return ChallengeSelector(XorPufModel(models), [pair, pair])


class TestChunkedSelectionOracle:
    """``select`` stops at the chunk that completes the request, yet
    returns exactly what the full-batch loop returns.  Odd widths make a
    chunk whose row count is not a multiple of 4 shift the stream."""

    @pytest.mark.parametrize("tightened", [False, True], ids=["nominal", "tight"])
    @pytest.mark.parametrize("n_stages", [32, 33, 63, 64])
    def test_matches_full_batch_loop(self, n_stages, tightened):
        selector = _synthetic_selector(n_stages, tightened)
        for n_challenges in (1, 7, 64, 513):
            for seed in range(20):
                got = selector.select(n_challenges, seed=seed)
                want = _reference_select(selector, n_challenges, seed)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])


class TestStabilityCascade:
    """The per-constituent cascade in ``select`` against the category
    array.  On a real enrolled XOR-4 record it runs at the nominal
    thresholds and at the service's default re-tightening, where the
    accept ratio falls to about 3e-4 and many chunks lose every row
    before the last PUF."""

    @pytest.mark.parametrize("retightened", [False, True], ids=["nominal", "retightened"])
    @pytest.mark.parametrize("n_challenges", [1, 64])
    def test_matches_full_batch_loop_on_enrolled_record(
        self, enrolled_chip_and_record, n_challenges, retightened
    ):
        _, record = enrolled_chip_and_record
        pairs = record.adjusted_pairs
        if retightened:
            config = ServiceConfig()
            pairs = [
                pair.scale(config.retighten_beta0, config.retighten_beta1)
                for pair in pairs
            ]
        selector = ChallengeSelector(record.xor_model, pairs)
        for seed in range(8):
            got = selector.select(n_challenges, seed=seed)
            want = _reference_select(selector, n_challenges, seed)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("tied", [0, 1], ids=["first-puf", "last-puf"])
    def test_ties_at_the_thresholds_are_unstable(self, tied):
        """Rows scored exactly on a threshold are unstable, as in
        :func:`classify_predictions`.  One PUF's pair sits on two scores
        of the first chunk's rows; the other PUF calls every row stable,
        so each tied row reaches the test."""
        selector = _synthetic_selector(N_STAGES, tightened=False)
        batch = ChallengeStream(N_STAGES, seed=0).take(FIRST_CHUNK)
        scores = np.sort(selector.xor_model.predict_individual_soft(batch)[tied])
        pairs = [ThresholdPair(10.0, 11.0)] * 2
        pairs[tied] = ThresholdPair(
            scores[FIRST_CHUNK // 3], scores[2 * FIRST_CHUNK // 3]
        )
        selector = ChallengeSelector(selector.xor_model, pairs)
        got = selector.select(FIRST_CHUNK, seed=0)
        want = _reference_select(selector, FIRST_CHUNK, seed=0)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
