"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.verify.oracles import ORACLE_BUILDERS


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig_point_vs_eps" in out
        assert "abl_consistency" in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 2
        assert "experiment" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig_bogus"]) == 2
        assert "error" in capsys.readouterr().err

    def test_runs_table1(self, capsys):
        assert main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "evaluation datasets" in out
        assert "nettrace" in out

    def test_runs_quick_figure(self, capsys):
        assert main(["fig_budget_split", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "structure fraction" in out


class TestRunSweepCli:
    SWEEP = ["run", "--publishers", "dwork", "--epsilons", "0.5",
             "--bins-sweep", "16", "--total", "5000", "--sweep-seeds", "2"]

    def test_clean_sweep_exits_zero(self, capsys, tmp_path):
        argv = self.SWEEP + ["--journal", str(tmp_path / "j.jsonl")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "supervised sweep" in out
        assert "sweep/age/dwork/eps=0.5" in out

    def test_resume_requires_journal(self, capsys):
        assert main(self.SWEEP + ["--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_retry_failed_requires_resume(self, capsys, tmp_path):
        argv = self.SWEEP + ["--journal", str(tmp_path / "j.jsonl"),
                             "--retry-failed"]
        assert main(argv) == 2
        assert "--retry-failed requires --resume" in capsys.readouterr().err

    def test_bad_option_values_exit_two(self, capsys):
        assert main(self.SWEEP + ["--retries", "-1"]) == 2
        assert main(self.SWEEP + ["--timeout", "0"]) == 2
        assert main(self.SWEEP + ["--epsilons", "zero"]) == 2
        assert main(["run", "--publishers", "bogus"]) == 2

    def test_resume_after_complete_run_is_idempotent(self, tmp_path,
                                                     capsys):
        journal = str(tmp_path / "j.jsonl")
        assert main(self.SWEEP + ["--journal", journal]) == 0
        capsys.readouterr()
        assert main(self.SWEEP + ["--journal", journal, "--resume"]) == 0
        assert "sweep/age/dwork/eps=0.5" in capsys.readouterr().out


class TestEachCommandTakesOnlyItsFlags:
    def test_experiment_refuses_a_sweep_flag(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        assert main(["table1", "--journal", str(journal)]) == 2
        assert "--journal" in capsys.readouterr().err
        assert not journal.exists()

    def test_verify_refuses_a_sweep_flag(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        assert main(["verify", "--publisher", "uniform", "--trials", "10",
                     "--bins", "16", "--journal", str(journal)]) == 2
        assert capsys.readouterr().out == ""
        assert not journal.exists()

    def test_report_refuses_n_jobs(self, capsys, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        assert main(TestRunSweepCli.SWEEP + ["--journal", journal]) == 0
        capsys.readouterr()
        assert main(["report", journal, "--n-jobs", "2"]) == 2
        assert "--n-jobs" in capsys.readouterr().err

    def test_usage_errors_return_two_instead_of_exiting(self, capsys):
        assert main(["serve", "--bogus"]) == 2
        assert "--bogus" in capsys.readouterr().err
        assert main(["history", "ingest"]) == 2
        assert "required" in capsys.readouterr().err

    def test_help_lists_only_the_commands_flags(self, capsys):
        assert main(["run", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--journal" in out and "--trials" not in out
        assert main(["table1", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--quick" in out and "--journal" not in out


class TestVerify:
    @pytest.mark.parametrize("publisher", sorted(ORACLE_BUILDERS))
    def test_every_oracle_publisher_calibrates(self, capsys, publisher):
        code = main(["verify", "--publisher", publisher, "--trials", "20",
                     "--bins", "32"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"verify {publisher} " in out
        assert "[OK]" in out
