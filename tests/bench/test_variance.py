"""The variance gate: regressions caught, noise tolerated, legacy handled.

Synthetic sample sets exercise every branch of
:func:`repro.bench.variance.compare_cell` and the run-level report of
:func:`compare_runs` -- no real benchmarks run here.
"""

from __future__ import annotations

import pytest

from repro.bench import GateConfig, compare_cell, compare_runs
from repro.bench.timing import sample_stats


def entry(samples, direction="higher", metric="speedup", gated=True, **extra):
    """A minimal schema-v2 cell entry around a synthetic sample set."""
    return {
        "case": extra.pop("case", "synthetic"),
        "metric": metric,
        "direction": direction,
        "gated": gated,
        "samples": list(samples),
        "stats": sample_stats(samples),
        **extra,
    }


class TestSampleStats:
    def test_percentiles_present_and_consistent(self):
        stats = sample_stats(list(range(1, 101)))
        assert stats["p50"] == stats["median"]
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]
        assert stats["p95"] == pytest.approx(95.05)
        assert stats["p99"] == pytest.approx(99.01)

    def test_single_sample_percentiles_collapse(self):
        stats = sample_stats([3.0])
        assert stats["p50"] == stats["p95"] == stats["p99"] == 3.0

    def test_percentile_keys_are_additive_for_the_gate(self):
        """A baseline recorded before p50/p95/p99 existed must still
        compare cleanly -- the gate reads only median/mad/n."""
        old = entry([10.0, 10.1, 9.9])
        for key in ("p50", "p95", "p99"):
            del old["stats"][key]
        verdict = compare_cell("c", old, entry([10.0, 9.9, 10.1]))
        assert verdict.status == "ok"
        assert not verdict.failed
        # ... and a real shift is still caught without them.
        assert compare_cell(
            "c", old, entry([6.0, 6.0, 6.0])
        ).status == "regression"


class TestCompareCell:
    def test_real_regression_is_rejected(self):
        # Tight baseline at 10x, candidate drops to 7x: -30% and ~20
        # robust sigmas -- unambiguous signal on both axes.
        verdict = compare_cell(
            "c", entry([10.0, 10.1, 9.9]), entry([7.0, 7.05, 6.95])
        )
        assert verdict.status == "regression"
        assert verdict.failed
        assert verdict.rel_shift == pytest.approx(0.30, abs=0.02)
        assert verdict.sigmas > 4.0

    def test_noisy_but_flat_passes(self):
        # Wide scatter, same location: the shift never clears the band.
        verdict = compare_cell(
            "c",
            entry([10.0, 11.0, 9.0, 10.5, 9.5]),
            entry([9.6, 10.4, 9.8, 10.2, 10.0]),
        )
        assert verdict.status == "ok"
        assert not verdict.failed

    def test_significant_but_tiny_shift_passes(self):
        # MAD = 0 on both sides, so any wobble is "many sigmas" -- the
        # relative floor (and the sigma floor) keep a 5% dip from
        # failing the build.
        verdict = compare_cell(
            "c", entry([10.0, 10.0, 10.0]), entry([9.5, 9.5, 9.5])
        )
        assert verdict.status == "ok"
        assert verdict.rel_shift == pytest.approx(0.05)

    def test_large_but_insignificant_shift_passes(self):
        # A -30% move inside a huge noise band is not evidence.
        verdict = compare_cell(
            "c", entry([10.0, 16.0, 4.0]), entry([7.0, 7.1, 6.9])
        )
        assert verdict.status == "ok"
        assert verdict.sigmas < 4.0

    def test_lower_is_better_direction(self):
        base = entry([1.0, 1.02, 0.98], direction="lower",
                     metric="elapsed_seconds")
        slower = entry([1.5, 1.52, 1.48], direction="lower",
                       metric="elapsed_seconds")
        faster = entry([0.5, 0.51, 0.49], direction="lower",
                       metric="elapsed_seconds")
        assert compare_cell("c", base, slower).status == "regression"
        assert compare_cell("c", base, faster).status == "improved"

    def test_improvement_never_fails(self):
        verdict = compare_cell(
            "c", entry([10.0, 10.1, 9.9]), entry([20.0, 20.1, 19.9])
        )
        assert verdict.status == "improved"
        assert not verdict.failed

    def test_non_finite_median_is_a_regression(self):
        verdict = compare_cell(
            "c", entry([10.0, 10.0, 10.0]), entry([float("nan")] * 3)
        )
        assert verdict.status == "regression"

    def test_thresholds_are_configurable(self):
        cfg = GateConfig(sigma_threshold=1.0, min_rel_shift=0.01)
        verdict = compare_cell(
            "c", entry([10.0, 10.0, 10.0]), entry([9.5, 9.5, 9.5]), cfg
        )
        assert verdict.status == "regression"


class TestLegacyPointEstimates:
    """n=1 entries (pre-matrix committed numbers) use the wide ratio."""

    def test_within_legacy_tolerance_passes(self):
        verdict = compare_cell("c", entry([10.0]), entry([6.0, 6.0, 6.0]))
        assert verdict.status == "ok"

    def test_beyond_legacy_tolerance_fails(self):
        verdict = compare_cell("c", entry([10.0]), entry([4.0, 4.0, 4.0]))
        assert verdict.status == "regression"

    def test_single_sample_candidate_also_degrades(self):
        verdict = compare_cell("c", entry([10.0, 10.1, 9.9]), entry([6.0]))
        assert verdict.status == "ok"

    def test_legacy_improvement_reported(self):
        verdict = compare_cell("c", entry([10.0]), entry([25.0, 25.0, 25.0]))
        assert verdict.status == "improved"

    def test_stats_derived_from_samples_when_missing(self):
        bare = {"direction": "higher", "samples": [10.0, 10.1, 9.9]}
        verdict = compare_cell("c", bare, entry([7.0, 7.0, 7.0]))
        assert verdict.status == "regression"

    def test_entry_without_samples_or_stats_raises(self):
        with pytest.raises(ValueError):
            compare_cell("c", {"direction": "higher"}, entry([1.0, 1.0, 1.0]))


class TestCompareRuns:
    def _trajectory(self, cells):
        return {"schema_version": 2, "cells": cells}

    def test_clean_run_is_ok(self):
        base = self._trajectory({"a:smoke:j1:numpy": entry([10.0, 10.1, 9.9])})
        cand = self._trajectory({"a:smoke:j1:numpy": entry([10.0, 9.9, 10.1])})
        report = compare_runs(base, cand)
        assert report["ok"]
        assert report["failures"] == 0
        assert report["compared"] == 1

    def test_gated_regression_fails_the_run(self):
        base = self._trajectory({"a:smoke:j1:numpy": entry([10.0, 10.1, 9.9])})
        cand = self._trajectory({"a:smoke:j1:numpy": entry([6.0, 6.0, 6.0])})
        report = compare_runs(base, cand)
        assert not report["ok"]
        assert report["failures"] == 1
        assert report["verdicts"][0]["status"] == "regression"

    def test_ungated_regression_is_informational(self):
        base = self._trajectory(
            {"a:smoke:j1:numpy": entry([10.0, 10.1, 9.9], gated=False)}
        )
        cand = self._trajectory(
            {"a:smoke:j1:numpy": entry([6.0, 6.0, 6.0], gated=False)}
        )
        report = compare_runs(base, cand)
        assert report["ok"]
        (verdict,) = report["verdicts"]
        assert verdict["status"] == "regression"
        assert not verdict["enforced"]
        # ... unless the caller asks for every cell to enforce.
        assert not compare_runs(base, cand, gated_only=False)["ok"]

    def test_new_cell_is_not_a_failure(self):
        base = self._trajectory({})
        cand = self._trajectory({"a:smoke:j1:numpy": entry([6.0, 6.0, 6.0])})
        report = compare_runs(base, cand)
        assert report["ok"]
        assert report["new_cells"] == 1
        assert report["verdicts"][0]["status"] == "new"

    def test_baseline_requires_matching_metric(self):
        # A committed cell that measured another quantity is no
        # baseline: comparing medians across metrics would be noise.
        base = self._trajectory({
            "soft_sweep:smoke:j1:numpy": entry(
                [10.0, 10.0, 10.0], case="soft_sweep"
            )
        })
        cand = self._trajectory({
            "soft_sweep:smoke:j1:numpy": entry(
                [50.0, 50.0, 50.0], case="soft_sweep",
                metric="elapsed_seconds", direction="lower",
            )
        })
        report = compare_runs(base, cand)
        assert report["ok"]
        assert report["verdicts"][0]["status"] == "new"