"""CLI argument validation and the --resume plumbing."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.faults


def parse(argv):
    return build_parser().parse_args(argv)


class TestJobsValidation:
    def test_negative_jobs_is_a_clear_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse(["--jobs", "-2", "stability"])
        assert excinfo.value.code == 2
        assert "--jobs must be >= 0" in capsys.readouterr().err

    def test_non_integer_jobs_is_a_clear_error(self, capsys):
        with pytest.raises(SystemExit):
            parse(["--jobs", "many", "stability"])
        assert "expects an integer" in capsys.readouterr().err

    def test_zero_means_all_cores_and_parses(self):
        assert parse(["--jobs", "0", "stability"]).jobs == 0

    def test_positive_jobs_parses(self):
        assert parse(["--jobs", "4", "stability"]).jobs == 4


class TestChunkSizeValidation:
    @pytest.mark.parametrize("value", ["0", "-4096"])
    def test_non_positive_chunk_size_is_a_clear_error(self, value, capsys):
        with pytest.raises(SystemExit):
            parse(["--chunk-size", value, "stability"])
        assert "--chunk-size must be >= 1" in capsys.readouterr().err

    def test_non_integer_chunk_size_is_a_clear_error(self, capsys):
        with pytest.raises(SystemExit):
            parse(["--chunk-size", "big", "stability"])
        assert "expects an integer" in capsys.readouterr().err

    def test_default_is_none(self):
        assert parse(["stability"]).chunk_size is None


class TestAuthValidation:
    @pytest.mark.parametrize("flag", ["--max-attempts", "--challenges"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_count_fails_before_enrollment(
        self, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["auth", flag, value])
        assert excinfo.value.code == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err

    def test_non_integer_count_is_a_clear_error(self, capsys):
        with pytest.raises(SystemExit):
            parse(["auth", "--max-attempts", "few"])
        assert "expects an integer" in capsys.readouterr().err


class TestResumeOption:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stability", "--resume", "campdir"],
            ["enroll", "--resume", "campdir"],
            ["attack", "--resume", "campdir"],
            ["figure", "fig03", "--resume", "campdir"],
        ],
    )
    def test_long_running_subcommands_accept_resume(self, argv):
        assert parse(argv).resume == "campdir"

    def test_resume_defaults_to_none(self):
        assert parse(["stability"]).resume is None

    def test_non_engine_figure_rejects_resume(self, tmp_path, capsys):
        code = main(["figure", "fig08", "--resume", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "does not run through the evaluation engine" in err
        assert "fig02" in err

    def test_auth_subcommand_has_no_resume(self):
        with pytest.raises(SystemExit):
            parse(["auth", "--resume", "campdir"])


class TestEndToEndResume:
    def test_stability_resumes_from_campaign_dir(self, tmp_path, capsys):
        argv = [
            "--seed", "5", "--chunk-size", "4096",
            "stability", "--n-pufs", "2", "--challenges", "4096",
            "--trials", "51", "--resume", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert any(tmp_path.iterdir()), "no campaign directory was created"
        # Second run consumes the journalled chunks and prints the
        # same table.
        assert main(argv) == 0
        assert capsys.readouterr().out == first
