"""Tests for the repro-puf command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "command",
        ["stability", "enroll", "attack", "auth", "aging", "lifecycle-sim"],
    )
    def test_subcommands_parse(self, command):
        args = build_parser().parse_args([command])
        assert args.command == command

    def test_revoke_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["revoke", "some-db"])

    def test_global_seed(self):
        args = build_parser().parse_args(["--seed", "9", "stability"])
        assert args.seed == 9


class TestCommands:
    def test_stability(self, capsys):
        code = main(
            ["stability", "--n-pufs", "2", "--challenges", "2000",
             "--trials", "1000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ref" in out  # the 0.8**n reference column
        assert out.count("\n") >= 2

    def test_enroll_and_save(self, capsys, tmp_path):
        path = tmp_path / "record.npz"
        code = main(
            ["enroll", "--n-pufs", "2", "--train", "800",
             "--validation", "3000", "--save", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "betas" in out
        assert path.exists()

    def test_attack(self, capsys):
        code = main(
            ["attack", "--n-pufs", "2", "--train", "3000", "--pool", "15000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy" in out

    def test_auth_sessions_pass(self, capsys):
        code = main(["auth", "--n-pufs", "2", "--sessions", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 sessions approved" in out

    def test_figure_prints_json(self, capsys):
        import json

        code = main(["figure", "fig08"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert "thr0" in payload and "thr1" in payload

    def test_figure_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_lifecycle_sim_passes(self, capsys, tmp_path):
        report = tmp_path / "life.json"
        code = main(
            ["lifecycle-sim", "--chips", "3", "--ticks", "3",
             "--requests-per-chip", "2", "--report", str(report)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no challenge replayed: True" in out
        assert report.exists()

    @pytest.mark.parametrize(
        "command, unmeetable",
        [
            (["serve-sim", "--chips", "2", "--nominal-steps", "8",
              "--ramp-steps", "24", "--corner-steps", "8",
              "--return-steps", "4", "--fault-chip", "-1"],
             ["--min-corner-availability", "1.01"]),
            (["lifecycle-sim", "--chips", "3", "--ticks", "3",
              "--requests-per-chip", "2"],
             ["--min-availability", "1.01"]),
        ],
        ids=["serve-sim", "lifecycle-sim"],
    )
    def test_gate_exit_codes(self, capsys, command, unmeetable):
        assert main(command) == 0
        assert "FAIL:" not in capsys.readouterr().err
        assert main(command + unmeetable) == 1
        assert "FAIL:" in capsys.readouterr().err

    def test_revoke_round_trip(self, capsys, tmp_path):
        db = tmp_path / "db"
        assert main(
            ["identify", "--chips", "2", "--probes", "2", "--train", "1000",
             "--validation", "4000", "--save-db", str(db)]
        ) == 0
        capsys.readouterr()
        code = main(["revoke", str(db), "chip-0", "--reason", "lost"])
        out = capsys.readouterr().out
        assert code == 0
        assert "revoked chip-0" in out and "lost" in out
        # Terminal: the second attempt fails, as does a stranger.
        assert main(["revoke", str(db), "chip-0"]) == 1
        assert main(["revoke", str(db), "nobody"]) == 1
        assert main(["revoke", str(tmp_path / "missing"), "chip-0"]) == 2

    def test_aging_table(self, capsys):
        code = main(
            ["aging", "--n-pufs", "2", "--selected", "2000",
             "--amplitude", "0.3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "flip rate" in out
