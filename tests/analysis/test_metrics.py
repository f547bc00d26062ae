"""Tests for classical PUF quality metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import (
    inter_chip_hd,
    intra_chip_hd,
    reliability,
    uniformity,
    uniqueness,
)
from repro.crp.challenges import random_challenges
from repro.silicon.chip import fabricate_lot

N_STAGES = 32


class TestUniformity:
    def test_balanced(self):
        assert uniformity(np.array([0, 1, 0, 1])) == 0.5

    def test_all_ones(self):
        assert uniformity(np.ones(10, dtype=np.int8)) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            uniformity(np.array([], dtype=np.int8))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            uniformity(np.array([0, 2]))


class TestIntraChipHd:
    def test_identical_reevaluations(self):
        ref = np.array([0, 1, 1, 0], dtype=np.int8)
        reev = np.tile(ref, (5, 1))
        assert intra_chip_hd(ref, reev) == 0.0
        assert reliability(ref, reev) == 1.0

    def test_one_flipped_bit(self):
        ref = np.array([0, 0, 0, 0], dtype=np.int8)
        reev = np.zeros((2, 4), dtype=np.int8)
        reev[0, 0] = 1
        assert intra_chip_hd(ref, reev) == pytest.approx(1 / 8)

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="bits"):
            intra_chip_hd(np.zeros(4, dtype=np.int8), np.zeros((2, 5), dtype=np.int8))


class TestInterChipHd:
    def test_pair_count(self):
        resp = np.random.default_rng(0).integers(0, 2, (5, 100), dtype=np.int8)
        assert len(inter_chip_hd(resp)) == 10

    def test_identical_chips_zero(self):
        row = np.random.default_rng(1).integers(0, 2, 50, dtype=np.int8)
        resp = np.tile(row, (3, 1))
        np.testing.assert_allclose(inter_chip_hd(resp), 0.0)

    def test_complementary_chips_one(self):
        row = np.random.default_rng(2).integers(0, 2, 50, dtype=np.int8)
        resp = np.stack([row, 1 - row])
        np.testing.assert_allclose(inter_chip_hd(resp), 1.0)

    def test_needs_two_chips(self):
        with pytest.raises(ValueError, match="two chips"):
            inter_chip_hd(np.zeros((1, 10), dtype=np.int8))


class TestOnSiliconLot:
    """The simulated lot shows textbook PUF statistics."""

    @pytest.fixture(scope="class")
    def lot_responses(self):
        lot = fabricate_lot(6, 1, N_STAGES, seed=3)
        ch = random_challenges(4000, N_STAGES, seed=4)
        return np.stack(
            [chip.oracle().noise_free_response(ch) for chip in lot]
        )

    def test_uniqueness_near_half(self, lot_responses):
        assert uniqueness(lot_responses) == pytest.approx(0.5, abs=0.06)

    def test_uniformity_reasonable(self, lot_responses):
        # Single arbiter PUFs carry an instance bias (arbiter offset);
        # the lot average should still be near balanced.
        means = lot_responses.mean(axis=1)
        assert abs(means.mean() - 0.5) < 0.15

    def test_reliability_above_90_percent(self):
        lot = fabricate_lot(1, 1, N_STAGES, seed=5)
        puf = lot[0].oracle().pufs[0]
        ch = random_challenges(2000, N_STAGES, seed=6)
        ref = puf.noise_free_response(ch)
        reev = np.stack(
            [puf.eval(ch, rng=np.random.default_rng(i)) for i in range(5)]
        )
        assert reliability(ref, reev) > 0.9
