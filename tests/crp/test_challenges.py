"""Tests for repro.crp.challenges."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crp.challenges import (
    ChallengeStream,
    all_challenges,
    random_challenges,
)


class TestRandomChallenges:
    def test_shape_and_dtype(self):
        ch = random_challenges(10, 32, seed=1)
        assert ch.shape == (10, 32)
        assert ch.dtype == np.int8

    def test_binary(self):
        ch = random_challenges(100, 16, seed=2)
        assert set(np.unique(ch)) <= {0, 1}

    def test_reproducible(self):
        np.testing.assert_array_equal(
            random_challenges(20, 8, seed=3), random_challenges(20, 8, seed=3)
        )

    def test_roughly_uniform(self):
        ch = random_challenges(20_000, 16, seed=4)
        assert abs(ch.mean() - 0.5) < 0.01

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            random_challenges(0, 8)
        with pytest.raises(ValueError):
            random_challenges(8, 0)


class TestAllChallenges:
    def test_count(self):
        assert len(all_challenges(4)) == 16

    def test_rows_are_binary_expansions(self):
        ch = all_challenges(3)
        np.testing.assert_array_equal(ch[5], [1, 0, 1])

    def test_all_distinct(self):
        ch = all_challenges(6)
        assert len({row.tobytes() for row in ch}) == 64

    def test_large_space_refused(self):
        with pytest.raises(ValueError, match="refusing"):
            all_challenges(21)


class TestChallengeStream:
    def test_deterministic_for_seed(self):
        a = ChallengeStream(16, seed=7).take(10)
        b = ChallengeStream(16, seed=7).take(10)
        np.testing.assert_array_equal(a, b)

    def test_take_advances(self):
        stream = ChallengeStream(16, seed=8)
        first = stream.take(5)
        second = stream.take(5)
        assert not np.array_equal(first, second)
        assert stream.drawn == 10

    def test_split_take_equals_single_take(self):
        one = ChallengeStream(8, seed=9).take(10)
        stream = ChallengeStream(8, seed=9)
        two = np.concatenate([stream.take(4), stream.take(6)])
        np.testing.assert_array_equal(one, two)

    def test_chunked_take_is_prefix_of_one_draw_at_odd_width(self):
        # The selector's chunk rule: row counts that are multiples of 4
        # keep the draws contiguous even when n * k bytes would not be.
        one = ChallengeStream(33, seed=11).take(3072)
        stream = ChallengeStream(33, seed=11)
        two = np.concatenate([stream.take(1024), stream.take(2048)])
        np.testing.assert_array_equal(one, two)

    def test_iteration_yields_single_challenges(self):
        stream = ChallengeStream(8, seed=10)
        first = next(iter(stream))
        assert first.shape == (8,)


SPLITS = ([4, 4, 4], [1024, 2048, 4096], [3, 5, 7, 1], [1] * 5)


class TestRawWordDraw:
    """The raw-word draw behind ``take`` and ``random_challenges`` is
    ``rng.integers(0, 2, (n, k), dtype=np.int8)`` row for row, and it
    leaves the generator where numpy would, buffered half-word included."""

    @staticmethod
    def _assert_same_generator(ours, oracle):
        assert ours.integers(2**31) == oracle.integers(2**31)
        assert ours.random() == oracle.random()

    @pytest.mark.parametrize("split", SPLITS, ids=lambda s: "-".join(map(str, s)))
    @pytest.mark.parametrize("n_stages", [1, 7, 32, 33, 63, 64, 65])
    def test_stream_matches_rng_integers(self, n_stages, split):
        for seed in range(4):
            stream = ChallengeStream(n_stages, seed=seed)
            oracle = np.random.default_rng(seed)
            if seed % 2:
                # Start from a buffered 32-bit half-word.
                stream._rng.integers(2**31)
                oracle.integers(2**31)
            for n in split:
                np.testing.assert_array_equal(
                    stream.take(n),
                    oracle.integers(0, 2, size=(n, n_stages), dtype=np.int8),
                )
            assert stream._rng.bit_generator.state == oracle.bit_generator.state
            self._assert_same_generator(stream._rng, oracle)

    @pytest.mark.parametrize("n_stages", [1, 7, 32, 33, 63, 64, 65])
    def test_random_challenges_matches_rng_integers(self, n_stages):
        for seed in range(4):
            ours = np.random.default_rng(seed)
            oracle = np.random.default_rng(seed)
            for n in (1, 3, 100):
                np.testing.assert_array_equal(
                    random_challenges(n, n_stages, seed=ours),
                    oracle.integers(0, 2, size=(n, n_stages), dtype=np.int8),
                )
            assert ours.bit_generator.state == oracle.bit_generator.state
            self._assert_same_generator(ours, oracle)

    @pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937])
    def test_other_bit_generators_take_numpys_path(self, bit_generator):
        ours = np.random.Generator(bit_generator(5))
        oracle = np.random.Generator(bit_generator(5))
        for n in (3, 5, 64):
            np.testing.assert_array_equal(
                random_challenges(n, 33, seed=ours),
                oracle.integers(0, 2, size=(n, 33), dtype=np.int8),
            )
        self._assert_same_generator(ours, oracle)
