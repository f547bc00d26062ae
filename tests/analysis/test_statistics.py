"""Tests for statistical helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.statistics import (
    fit_exponential_decay,
    wilson_interval,
)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(40, 100)
        assert lo < 0.4 < hi

    def test_extreme_zero(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert 0.0 < hi < 0.2

    def test_extreme_all(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0
        assert 0.8 < lo < 1.0

    def test_narrows_with_n(self):
        narrow = wilson_interval(400, 1000)
        wide = wilson_interval(4, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    @given(st.integers(1, 500), st.integers(0, 500))
    @settings(max_examples=60)
    def test_bounds_property(self, n, successes):
        if successes > n:
            return
        lo, hi = wilson_interval(successes, n)
        assert 0.0 <= lo <= successes / n <= hi <= 1.0


class TestExponentialDecayFit:
    def test_exact_power_law_recovered(self):
        ns = np.arange(1, 11)
        fractions = 0.8**ns
        fit = fit_exponential_decay(ns, fractions)
        assert fit.base == pytest.approx(0.8, abs=1e-9)
        assert fit.amplitude == pytest.approx(1.0, abs=1e-9)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-9)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(1)
        ns = np.arange(1, 11)
        fractions = 0.8**ns * np.exp(rng.normal(0, 0.02, 10))
        fit = fit_exponential_decay(ns, fractions)
        assert fit.base == pytest.approx(0.8, abs=0.02)

    def test_zero_entries_skipped(self):
        ns = np.array([1, 2, 3, 4])
        fractions = np.array([0.5, 0.25, 0.0, 0.0625])
        fit = fit_exponential_decay(ns, fractions)
        assert fit.base == pytest.approx(0.5, abs=0.05)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="two positive"):
            fit_exponential_decay(np.array([1, 2]), np.array([0.5, 0.0]))

    def test_predict(self):
        fit = fit_exponential_decay(np.arange(1, 6), 0.5 ** np.arange(1, 6))
        np.testing.assert_allclose(fit.predict(np.array([7])), [0.5**7], rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            fit_exponential_decay(np.array([1, 2]), np.array([0.5]))
