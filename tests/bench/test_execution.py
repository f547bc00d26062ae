"""The shared execution layer: warmup, sampling, schema, artifacts.

Synthetic cases with counting bodies stand in for real benchmarks, so
these tests assert the runner's contract (sample counts, versioned
entries, artifact files) without timing anything heavy.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchmarkCase,
    Matrix,
    cell_id,
    load_trajectory,
    record_result,
    run_cell,
    run_for_test,
)
from repro.bench.schema import results_dir, trajectory_path


def counting_case(metric="elapsed_seconds", warmup=1, **kwargs):
    """A case whose body counts its own invocations."""
    calls = []

    def body(ctx):
        calls.append(ctx)
        payload = {"value": len(calls)}
        if metric not in ("elapsed_seconds", "value"):
            payload[metric] = 4.2
        return payload

    case = BenchmarkCase(
        name=kwargs.pop("name", "synthetic"),
        fn=body,
        tiers=kwargs.pop("tiers", {"smoke": {"n": 10}, "laptop": {"n": 100}}),
        metric=metric,
        warmup=warmup,
        **kwargs,
    )
    return case, calls


class TestRunCell:
    def test_smoke_tier_collects_at_least_three_samples(self):
        case, calls = counting_case()
        result = run_cell(case, tier="smoke")
        assert result.stats["n"] >= 3
        assert len(result.samples) == result.stats["n"]
        # warmup once, then one body run per timed sample
        assert len(calls) == case.warmup + result.stats["n"]

    def test_warmup_runs_are_not_sampled(self):
        case, calls = counting_case(warmup=2)
        result = run_cell(case, tier="smoke", samples=1)
        assert len(calls) == 3
        assert result.payload["value"] == 3  # last (timed) invocation

    def test_elapsed_seconds_is_stamped(self):
        case, _ = counting_case()
        result = run_cell(case, tier="smoke", samples=1)
        assert result.payload["elapsed_seconds"] >= 0.0
        assert result.samples == [result.payload["elapsed_seconds"]]

    def test_payload_metric_is_sampled(self):
        case, _ = counting_case(metric="speedup", unit="x", direction="higher")
        result = run_cell(case, tier="smoke", samples=3)
        assert result.samples == [4.2, 4.2, 4.2]
        assert result.metric_value == 4.2

    def test_missing_metric_is_an_error(self):
        case, _ = counting_case(metric="value", warmup=0)
        # "value" exists, so first confirm the happy path...
        assert run_cell(case, tier="smoke", samples=1).metric_value == 1.0
        # ...then a declared metric the payload never carries.
        bad = BenchmarkCase(
            name="bad", fn=lambda ctx: {"other": 1}, tiers={"smoke": {}},
            metric="speedup",
        )
        with pytest.raises(KeyError, match="speedup"):
            run_cell(bad, tier="smoke", samples=1)

    def test_context_carries_tier_params_and_id(self):
        case, calls = counting_case()
        result = run_cell(case, tier="smoke", jobs=2, samples=1)
        ctx = calls[-1]
        assert ctx.tier == "smoke"
        assert ctx.params == {"n": 10}
        assert ctx.jobs == 2
        assert result.cell_id == cell_id("synthetic", "smoke", 2, ctx.backend)

    def test_tier_params_fall_back_to_nearest_smaller(self):
        case, calls = counting_case(tiers={"smoke": {"n": 1}, "paper": {"n": 9}})
        run_cell(case, tier="laptop", samples=1)
        assert calls[-1].params == {"n": 1}
        laptop_only, calls2 = counting_case(tiers={"laptop": {"n": 5}})
        run_cell(laptop_only, tier="smoke", samples=1)
        run_cell(laptop_only, tier="paper", samples=1)
        assert all(c.params == {"n": 5} for c in calls2)


class TestEntrySchema:
    def test_versioned_entry_fields(self):
        case, _ = counting_case(gated=True, trajectory=True)
        entry = run_cell(case, tier="smoke").entry()
        assert entry["schema_version"] == SCHEMA_VERSION
        assert entry["case"] == "synthetic"
        assert entry["tier"] == "smoke"
        assert entry["metric"] == "elapsed_seconds"
        assert entry["direction"] == "lower"
        assert entry["gated"] is True
        assert len(entry["samples"]) >= 3
        stats = entry["stats"]
        assert {"n", "min", "max", "mean", "median", "mad"} <= set(stats)
        assert stats["min"] <= stats["median"] <= stats["max"]
        env = entry["env"]
        assert {"python", "numpy", "platform", "timestamp"} <= set(env)
        json.dumps(entry)  # the whole envelope must be JSON-able


class TestRecordResult:
    @pytest.fixture(autouse=True)
    def _bench_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "benchmarks"))
        self.root = tmp_path

    def test_results_file_written_for_every_cell(self):
        case, _ = counting_case()
        record_result(run_cell(case, tier="smoke"))
        path = results_dir() / "synthetic.json"
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["stats"]["n"] >= 3

    def test_trajectory_cells_merge_into_the_committed_file(self):
        case, _ = counting_case(trajectory=True)
        result = run_cell(case, tier="smoke")
        record_result(result)
        trajectory = load_trajectory(trajectory_path())
        assert result.cell_id in trajectory["cells"]
        entry = trajectory["cells"][result.cell_id]
        assert entry["samples"] == result.samples

    def test_non_trajectory_cells_leave_it_alone(self):
        case, _ = counting_case(trajectory=False)
        record_result(run_cell(case, tier="smoke"))
        assert not trajectory_path().exists()

    def test_merge_preserves_other_cells(self):
        trajectory_path().write_text(json.dumps(
            {"schema_version": 2, "cells": {"other:cell": {"samples": [1.0]}}}
        ))
        case, _ = counting_case(trajectory=True)
        result = run_cell(case, tier="smoke")
        record_result(result)
        merged = load_trajectory(trajectory_path())
        assert merged["cells"]["other:cell"] == {"samples": [1.0]}
        assert result.cell_id in merged["cells"]

    def test_pytest_entry_point_leaves_committed_files_alone(self, monkeypatch):
        # A bench's pytest run must not rewrite the committed baselines;
        # only `repro-puf bench run` records.
        case, _ = counting_case(trajectory=True, warmup=0)
        registry = Matrix()
        registry.register(case)
        monkeypatch.setattr("repro.bench.execution.matrix", registry)
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        results = results_dir() / "synthetic.json"
        results.parent.mkdir(parents=True)
        results.write_text('{"committed": true}\n')
        trajectory_path().write_text('{"schema_version": 2, "cells": {}}\n')
        before = results.read_bytes(), trajectory_path().read_bytes()
        run_for_test("synthetic")
        assert (results.read_bytes(), trajectory_path().read_bytes()) == before

    def test_other_schema_is_refused(self):
        # A flat pre-matrix file has no schema_version; it is not read
        # as an empty trajectory (recording would overwrite it).
        trajectory_path().write_text(json.dumps({"soft_sweep": {"speedup": 9.0}}))
        with pytest.raises(ValueError, match="schema"):
            load_trajectory(trajectory_path())


class TestMatrixRegistry:
    def test_cell_decorator_registers_and_replaces(self):
        reg = Matrix()

        @reg.cell("a", tiers={"smoke": {}})
        def a_body(ctx):
            return {}

        assert "a" in reg and len(reg) == 1

        @reg.cell("a", tiers={"smoke": {}}, metric="speedup")
        def a_body_v2(ctx):
            return {"speedup": 1.0}

        assert len(reg) == 1
        assert reg.get("a").metric == "speedup"

    def test_unknown_case_raises_with_known_names(self):
        reg = Matrix()
        with pytest.raises(KeyError, match="unknown benchmark case"):
            reg.get("nope")

    def test_validation_rejects_bad_declarations(self):
        with pytest.raises(ValueError, match="direction"):
            BenchmarkCase(name="x", fn=lambda c: {}, tiers={"smoke": {}},
                          direction="sideways")
        with pytest.raises(ValueError, match="unknown tiers"):
            BenchmarkCase(name="x", fn=lambda c: {}, tiers={"medium": {}})
        with pytest.raises(ValueError, match="at least one tier"):
            BenchmarkCase(name="x", fn=lambda c: {}, tiers={})
