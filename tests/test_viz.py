"""Tests for the ASCII visualisation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.viz import ascii_decay_table, ascii_histogram


class TestAsciiHistogram:
    def test_row_count(self):
        out = ascii_histogram(np.linspace(0, 1, 100), bins=10)
        assert len(out.splitlines()) == 10

    def test_percentages_sum(self):
        out = ascii_histogram(np.full(50, 0.5), bins=4)
        assert "100.0%" in out

    def test_peak_bar_longest(self):
        values = np.concatenate([np.zeros(90), np.ones(10)])
        lines = ascii_histogram(values, bins=2, width=30).splitlines()
        assert lines[0].count("#") == 30
        assert lines[1].count("#") < 30

    def test_clipping_into_edges(self):
        out = ascii_histogram(np.array([-5.0, 5.0]), bins=2)
        assert "50.0%" in out

    def test_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            ascii_histogram(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="bins"):
            ascii_histogram(np.zeros(5), bins=0)
        with pytest.raises(ValueError, match="value_range"):
            ascii_histogram(np.zeros(5), value_range=(1.0, 0.0))


class TestAsciiDecayTable:
    def test_exponential_renders_staircase(self):
        fractions = {n: 0.5**n for n in range(1, 6)}
        lines = ascii_decay_table(fractions, width=20).splitlines()
        bars = [line.count("#") for line in lines]
        steps = [a - b for a, b in zip(bars, bars[1:])]
        # log-scaled bars of an exponential decay shrink uniformly.
        assert all(s >= 0 for s in steps)
        assert max(steps) - min(steps) <= 2

    def test_reference_column(self):
        out = ascii_decay_table({1: 0.8, 2: 0.64}, reference_base=0.8)
        assert "ref" in out

    def test_zero_fraction_handled(self):
        out = ascii_decay_table({1: 0.5, 2: 0.0})
        assert "0.0000%" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ascii_decay_table({})
