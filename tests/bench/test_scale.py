"""Scale-tier resolution and the fixed truthiness of REPRO_FULL_SCALE."""

from __future__ import annotations

import pytest

from repro.bench import TIERS, active_tier, env_flag, full_scale


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)


class TestEnvFlag:
    @pytest.mark.parametrize(
        "value", ["", "0", "false", "False", "FALSE", "no", "NO", "off",
                  "Off", "  off  "],
    )
    def test_falsy_spellings_mean_off(self, monkeypatch, value):
        # The seed treated "False"/"no"/"off" as *on*, silently
        # launching hours of paper-scale work.
        monkeypatch.setenv("REPRO_FULL_SCALE", value)
        assert not env_flag("REPRO_FULL_SCALE")

    @pytest.mark.parametrize("value", ["1", "true", "True", "yes", "on", "x"])
    def test_truthy_spellings_mean_on(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FULL_SCALE", value)
        assert env_flag("REPRO_FULL_SCALE")

    def test_unset_means_off(self):
        assert not env_flag("REPRO_FULL_SCALE")


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

    def test_legacy_full_scale_selects_paper(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert active_tier() == "paper"
        assert full_scale()

    def test_legacy_full_scale_false_stays_laptop(self, monkeypatch):
        # The satellite fix: these spellings used to enable full scale.
        for value in ("False", "no", "off"):
            monkeypatch.setenv("REPRO_FULL_SCALE", value)
            assert active_tier() == "laptop"
            assert not full_scale()

    def test_repro_scale_wins_over_legacy_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert active_tier() == "smoke"
