"""The ``repro-puf bench`` subcommand end to end, via exit codes.

Each test builds an isolated benchmarks directory (``--dir``) holding a
tiny synthetic bench module, so the CLI exercises discovery, execution
and the variance gate without touching the real benchmark tree.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.timing import sample_stats
from repro.cli import main
from repro.kernels import current_backend_name

TINY_BENCH = """\
from repro.bench import matrix


@matrix.cell(
    "{case}",
    title="synthetic CLI-test cell",
    tiers={{"smoke": {{"n": 4}}, "laptop": {{"n": 8}}}},
    metric="speedup", unit="x", direction="higher",
    trajectory=True, gated=True, warmup=0,
)
def {case}_cell(ctx):
    return {{"speedup": 5.0, "n": ctx.params["n"]}}
"""


@pytest.fixture(autouse=True)
def _isolated_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "sandbox-bench"))
    for var in ("REPRO_SCALE", "REPRO_JOBS", "REPRO_CHUNK_SIZE"):
        monkeypatch.delenv(var, raising=False)


def bench_dir(tmp_path, case=None):
    directory = tmp_path / "benchmarks"
    directory.mkdir(exist_ok=True)
    if case:
        (directory / f"bench_{case}.py").write_text(TINY_BENCH.format(case=case))
    return directory


def trajectory_file(path, case, samples, tier="smoke"):
    cid = f"{case}:{tier}:j1:{current_backend_name()}"
    path.write_text(json.dumps({
        "schema_version": 2,
        "cells": {cid: {
            "case": case, "tier": tier, "metric": "speedup",
            "direction": "higher", "gated": True,
            "samples": list(samples), "stats": sample_stats(samples),
        }},
    }))
    return path


class TestCompareExitCodes:
    def _cells(self, samples):
        return {"schema_version": 2, "cells": {
            "a:smoke:j1:numpy": {
                "case": "a", "metric": "speedup", "direction": "higher",
                "gated": True, "samples": list(samples),
                "stats": sample_stats(samples),
            }
        }}

    def test_matching_trajectory_exits_zero(self, tmp_path):
        empty = bench_dir(tmp_path)
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(self._cells([10.0, 10.1, 9.9])))
        cand.write_text(json.dumps(self._cells([10.1, 9.9, 10.0])))
        assert main(["bench", "compare", str(cand), "--against", str(base),
                     "--dir", str(empty)]) == 0

    def test_injected_regression_exits_nonzero(self, tmp_path):
        empty = bench_dir(tmp_path)
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(self._cells([10.0, 10.1, 9.9])))
        cand.write_text(json.dumps(self._cells([6.0, 6.05, 5.95])))
        assert main(["bench", "compare", str(cand), "--against", str(base),
                     "--dir", str(empty)]) == 1

    def test_relaxed_thresholds_wave_it_through(self, tmp_path):
        empty = bench_dir(tmp_path)
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(self._cells([10.0, 10.1, 9.9])))
        cand.write_text(json.dumps(self._cells([6.0, 6.05, 5.95])))
        assert main(["bench", "compare", str(cand), "--against", str(base),
                     "--min-rel-shift", "0.9", "--dir", str(empty)]) == 0

    def test_missing_baseline_exits_two(self, tmp_path):
        empty = bench_dir(tmp_path)
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps(self._cells([10.0, 10.1, 9.9])))
        assert main(["bench", "compare", str(cand),
                     "--against", str(tmp_path / "missing.json"),
                     "--dir", str(empty)]) == 2

    def test_missing_candidate_exits_two(self, tmp_path):
        empty = bench_dir(tmp_path)
        base = tmp_path / "base.json"
        base.write_text(json.dumps(self._cells([10.0, 10.1, 9.9])))
        assert main(["bench", "compare", str(tmp_path / "missing.json"),
                     "--against", str(base), "--dir", str(empty)]) == 2

    def test_other_schema_exits_two(self, tmp_path):
        empty = bench_dir(tmp_path)
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(self._cells([10.0, 10.1, 9.9])))
        cand.write_text(json.dumps({"soft_sweep": {"speedup": 9.0}}))
        assert main(["bench", "compare", str(cand), "--against", str(base),
                     "--dir", str(empty)]) == 2

    def test_new_cell_warns_but_exits_zero(self, tmp_path, capsys):
        # A candidate cell the baseline has never seen is NOT a
        # regression: warn loudly, gate nothing, and keep exit 0 so a
        # PR adding a benchmark is not blocked by its own novelty.
        empty = bench_dir(tmp_path)
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(
            {"schema_version": 2, "cells": {}}
        ))
        cand.write_text(json.dumps(self._cells([10.0, 10.1, 9.9])))
        assert main(["bench", "compare", str(cand), "--against", str(base),
                     "--dir", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "warning" in out
        assert "no baseline" in out

    def test_new_cell_warning_rides_with_a_real_regression(self, tmp_path,
                                                           capsys):
        # Mixed report: one regressed known cell + one unknown cell.
        # The regression still wins the exit code; the unknown cell is
        # still surfaced as a warning, not silently dropped.
        empty = bench_dir(tmp_path)
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(self._cells([10.0, 10.1, 9.9])))
        doc = self._cells([6.0, 6.05, 5.95])
        doc["cells"]["b:smoke:j1:numpy"] = {
            "case": "b", "metric": "speedup", "direction": "higher",
            "gated": True, "samples": [3.0, 3.1, 2.9],
            "stats": sample_stats([3.0, 3.1, 2.9]),
        }
        cand.write_text(json.dumps(doc))
        assert main(["bench", "compare", str(cand), "--against", str(base),
                     "--dir", str(empty)]) == 1
        out = capsys.readouterr().out
        assert "no baseline" in out


class TestList:
    def test_lists_discovered_cells(self, tmp_path, capsys):
        directory = bench_dir(tmp_path, case="clilist")
        assert main(["bench", "list", "--tier", "smoke",
                     "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "clilist" in out
        assert "metric=speedup" in out
        assert "gated" in out


class TestRun:
    def test_unknown_case_exits_two(self, tmp_path):
        empty = bench_dir(tmp_path)
        assert main(["bench", "run", "no_such_case", "--tier", "smoke",
                     "--no-record", "--dir", str(empty)]) == 2

    def test_run_records_cell_with_samples(self, tmp_path):
        directory = bench_dir(tmp_path, case="clirun")
        out = tmp_path / "run.json"
        assert main(["bench", "run", "clirun", "--tier", "smoke",
                     "--no-record", "--output", str(out),
                     "--dir", str(directory)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 2
        (cell,) = doc["cells"].values()
        assert cell["case"] == "clirun"
        assert cell["tier"] == "smoke"
        assert len(cell["samples"]) >= 3
        assert cell["stats"]["median"] == pytest.approx(5.0)

    def test_run_compare_gates_against_committed_trajectory(self, tmp_path):
        # The acceptance scenario: the committed file claims 10x with a
        # tight band; the cell actually delivers 5x -> non-zero exit.
        directory = bench_dir(tmp_path, case="cligate")
        inflated = trajectory_file(
            tmp_path / "inflated.json", "cligate", [10.0, 10.0, 10.0]
        )
        honest = trajectory_file(
            tmp_path / "honest.json", "cligate", [5.0, 5.0, 5.0]
        )
        argv = ["bench", "run", "cligate", "--tier", "smoke", "--no-record",
                "--compare", "--dir", str(directory)]
        assert main(argv + ["--against", str(inflated)]) == 1
        assert main(argv + ["--against", str(honest)]) == 0

    def test_recording_run_compares_against_the_prior_trajectory(
        self, tmp_path
    ):
        # A recording run merges into the committed trajectory; --compare
        # must gate against the file as it stood before the run, not
        # against the run itself.
        directory = bench_dir(tmp_path, case="clirecord")
        committed = trajectory_file(
            tmp_path / "BENCH_throughput.json", "clirecord", [10.0, 10.0, 10.0]
        )
        assert main(["bench", "run", "clirecord", "--tier", "smoke",
                     "--compare", "--dir", str(directory)]) == 1
        (cell,) = json.loads(committed.read_text())["cells"].values()
        assert cell["stats"]["median"] == pytest.approx(5.0)

    def test_run_compare_with_unseen_cell_warns_and_passes(self, tmp_path,
                                                           capsys):
        # `run --compare` for a brand-new cell (committed trajectory
        # has never recorded it): surfaced as a warning, exit 0.
        directory = bench_dir(tmp_path, case="clinew")
        empty_traj = tmp_path / "empty.json"
        empty_traj.write_text(json.dumps(
            {"schema_version": 2, "cells": {}}
        ))
        assert main(["bench", "run", "clinew", "--tier", "smoke",
                     "--no-record", "--compare",
                     "--against", str(empty_traj),
                     "--dir", str(directory)]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_saved_run_document_feeds_compare(self, tmp_path):
        directory = bench_dir(tmp_path, case="clisave")
        out = tmp_path / "run.json"
        main(["bench", "run", "clisave", "--tier", "smoke", "--no-record",
              "--output", str(out), "--dir", str(directory)])
        inflated = trajectory_file(
            tmp_path / "inflated.json", "clisave", [10.0, 10.0, 10.0]
        )
        assert main(["bench", "compare", str(out), "--against", str(inflated),
                     "--dir", str(directory)]) == 1
