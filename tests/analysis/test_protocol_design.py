"""Tests for analytic authentication error rates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.protocol_design import (
    challenges_for_far,
    false_accept_rate,
    false_reject_rate,
)


class TestFalseAcceptRate:
    def test_zero_hd_is_two_to_minus_n(self):
        """The paper's policy: a coin-flip impostor passes with 2**-n."""
        assert false_accept_rate(64) == pytest.approx(2.0**-64, rel=1e-9)
        assert false_accept_rate(10) == pytest.approx(2.0**-10, rel=1e-9)

    def test_tolerance_raises_far(self):
        strict = false_accept_rate(64, tolerance=0)
        lax = false_accept_rate(64, tolerance=6)
        assert lax > strict

    def test_ten_percent_budget_cost(self):
        """The HD<=10% relaxation of the baselines costs ~2^20 in FAR
        at 64 bits -- the quantitative core of the paper's argument."""
        strict = false_accept_rate(64, 0)
        relaxed = false_accept_rate(64, 6)
        assert relaxed / strict > 1e5

    def test_accurate_clone_dominates(self):
        """A 95 %-accurate model clone passes zero-HD sessions often:
        protocol stringency cannot replace modeling resistance."""
        clone = false_accept_rate(64, 0, impostor_match_probability=0.95)
        assert clone > 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            false_accept_rate(10, tolerance=11)
        with pytest.raises(ValueError):
            false_accept_rate(10, impostor_match_probability=1.5)

    @given(
        n=st.integers(1, 200),
        tol=st.integers(0, 50),
    )
    @settings(max_examples=60)
    def test_monotone_in_n_and_tolerance(self, n, tol):
        if tol > n:
            return
        far = false_accept_rate(n, tol)
        assert 0.0 <= far <= 1.0
        if tol < n:
            assert false_accept_rate(n, tol + 1) >= far
        assert false_accept_rate(n + 1, tol) <= far + 1e-12


class TestFalseRejectRate:
    def test_stable_crps_never_reject(self):
        """p_flip = 0 (the paper's selected CRPs): FRR is exactly 0."""
        assert false_reject_rate(64, 0, p_flip=0.0) == 0.0

    def test_unselected_crps_reject_often(self):
        """With ~4 % one-shot flips, zero-HD over 64 bits almost always
        rejects -- why selection is a precondition for the policy."""
        assert false_reject_rate(64, 0, p_flip=0.04) > 0.9

    def test_tolerance_lowers_frr(self):
        tight = false_reject_rate(64, 0, p_flip=0.01)
        loose = false_reject_rate(64, 6, p_flip=0.01)
        assert loose < tight


class TestSizing:
    def test_challenges_for_far_inverts(self):
        n = challenges_for_far(1e-9, tolerance=0)
        assert false_accept_rate(n, 0) <= 1e-9
        assert false_accept_rate(n - 1, 0) > 1e-9

    def test_tolerance_increases_requirement(self):
        strict = challenges_for_far(1e-9, tolerance=0)
        relaxed = challenges_for_far(1e-9, tolerance=6)
        assert relaxed > strict

    def test_unreachable_returns_none(self):
        assert challenges_for_far(
            1e-9, tolerance=0, impostor_match_probability=0.999,
            max_challenges=100,
        ) is None

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            challenges_for_far(0.0)
