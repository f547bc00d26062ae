"""Scale-tier resolution from REPRO_SCALE."""

from __future__ import annotations

import pytest

from repro.bench import TIERS, active_tier, full_scale


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)


class TestActiveTier:
    def test_default_is_laptop(self):
        assert active_tier() == "laptop"
        assert not full_scale()

    @pytest.mark.parametrize("tier", TIERS)
    def test_repro_scale_selects_tier(self, monkeypatch, tier):
        monkeypatch.setenv("REPRO_SCALE", tier)
        assert active_tier() == tier

    def test_repro_scale_is_case_insensitive(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", " SMOKE ")
        assert active_tier() == "smoke"

    def test_unknown_tier_is_an_error_not_a_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            active_tier()
