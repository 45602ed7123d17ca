"""CLI tests (driving main() in-process)."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    @pytest.mark.parametrize("argv", [
        ["solve", "--cores", "x3"],
        ["ops", "sweep", "--cores", "2x2x2"],
        ["cluster", "solve", "--cards", "0x1"],
        ["faults", "--seeds", "1,x"],
        ["serve", "chaos", "--intensities", "1,a"],
    ])
    def test_malformed_values_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_comma_lists_drop_empty_entries(self):
        parse = build_parser().parse_args
        assert parse(["bench", "--only", "engine_events,,cb_roundtrip"]) \
            .only == parse(["bench", "--only", "engine_events,cb_roundtrip"]) \
            .only

    def test_table_registry_loads_drivers_lazily(self):
        # the reference data is imported on hot set-up paths; it must not
        # pull in any table driver
        code = ("import sys, repro.experiments.reference; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('repro.experiments.table')))")
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src))
                             ).stdout
        assert out.strip() == "[]"


class TestCommands:
    def test_solve_cpu(self, capsys):
        assert main(["solve", "--backend", "cpu", "--nx", "32",
                     "--ny", "32", "--iterations", "10"]) == 0
        out = capsys.readouterr().out
        assert "GPt/s" in out and "backend=cpu" in out

    def test_solve_device(self, capsys):
        assert main(["solve", "--backend", "e150", "--nx", "32",
                     "--ny", "32", "--iterations", "5"]) == 0
        out = capsys.readouterr().out
        assert "interior range" in out

    def test_solve_model_multicore(self, capsys):
        assert main(["solve", "--backend", "e150-model", "--cores", "2x2",
                     "--nx", "32", "--ny", "32", "--iterations", "5"]) == 0
        assert "cores=(2, 2)" in capsys.readouterr().out

    def test_table_quick(self, capsys):
        assert main(["table", "8", "--quick"]) == 0
        assert "Table VIII" in capsys.readouterr().out

    def test_table5_quick(self, capsys):
        assert main(["table", "5", "--quick"]) == 0
        assert "Replication" in capsys.readouterr().out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "fig6" in out

    def test_stream(self, capsys):
        assert main(["stream", "--rows", "32", "--row-elems", "256",
                     "--read-batch", "64"]) == 0
        out = capsys.readouterr().out
        assert "GB/s read" in out

    def test_profile(self, capsys):
        assert main(["profile", "--nx", "32", "--ny", "32",
                     "--iterations", "2", "--variant", "initial"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out

    def test_solve_sram_variant(self, capsys):
        assert main(["solve", "--variant", "sram", "--nx", "32",
                     "--ny", "32", "--iterations", "4"]) == 0
        out = capsys.readouterr().out
        assert "variant=sram" in out and "interior range" in out

    def test_profile_sram_variant(self, capsys):
        assert main(["profile", "--nx", "32", "--ny", "32",
                     "--iterations", "2", "--variant", "sram"]) == 0
        assert "bottleneck" in capsys.readouterr().out


class TestSweepCommand:
    _argv = ["sweep", "pages", "--rows", "32", "--row-elems", "256"]

    def test_parallel_stdout_matches_sequential(self, capsys):
        assert main(self._argv + ["--no-cache", "-j", "1"]) == 0
        seq = capsys.readouterr().out
        assert main(self._argv + ["--no-cache", "-j", "2"]) == 0
        par = capsys.readouterr().out
        assert par == seq
        assert "sweep pages" in seq and "runtime s" in seq

    def test_global_jobs_flag_before_subcommand(self, capsys):
        assert main(["-j", "2", "--no-cache"] + self._argv) == 0
        assert "sweep pages" in capsys.readouterr().out

    def test_report_flag_adds_job_table(self, capsys):
        assert main(self._argv + ["--no-cache", "--report"]) == 0
        out = capsys.readouterr().out
        assert "Sweep job report" in out

    def test_second_run_is_served_from_cache(self, capsys, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "cache"))
        assert main(self._argv) == 0
        cold = capsys.readouterr()
        assert main(self._argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out          # byte-identical from cache
        assert "hits=0" in cold.err
        assert "failures=0 " in warm.err
        assert "hits=0" not in warm.err      # every point was a hit

    def test_batch_and_multicore_kinds(self, capsys):
        assert main(["sweep", "batch", "--rows", "32", "--row-elems",
                     "256", "--no-cache"]) == 0
        assert "sweep batch" in capsys.readouterr().out
        assert main(["sweep", "multicore", "--rows", "32", "--row-elems",
                     "256", "--no-cache"]) == 0
        assert "sweep multicore" in capsys.readouterr().out


class TestFaultsSeeds:
    _argv = ["faults", "--seeds", "0,1", "--iterations", "16",
             "--no-cache"]

    def test_multi_seed_summary(self, capsys):
        assert main(self._argv) == 0
        out = capsys.readouterr().out
        assert "Campaign sweep summary" in out
        assert "seed=0" in out and "seed=1" in out

    def test_parallel_matches_sequential(self, capsys):
        assert main(self._argv + ["-j", "1"]) == 0
        seq = capsys.readouterr().out
        assert main(self._argv + ["-j", "2"]) == 0
        par = capsys.readouterr().out
        assert par == seq

    def test_report_flag(self, capsys):
        assert main(self._argv + ["-j", "2", "--report"]) == 0
        out = capsys.readouterr().out
        assert "Sweep job report" in out

    def test_single_seed_output_unchanged(self, capsys):
        # the pre-engine single-campaign path must be byte-stable
        assert main(["faults", "--seed", "1", "--iterations", "16"]) == 0
        out = capsys.readouterr().out
        assert "Fault-injection campaign (seed=1)" in out


class TestParallelTableFlags:
    def test_table5_quick_j2_matches_sequential(self, capsys):
        assert main(["table", "5", "--quick", "--no-cache", "-j", "1"]) == 0
        seq = capsys.readouterr().out
        assert main(["table", "5", "--quick", "--no-cache", "-j", "2"]) == 0
        par = capsys.readouterr().out
        assert par == seq

    def test_table8_quick_j2_matches_sequential(self, capsys):
        assert main(["table", "8", "--quick", "--no-cache", "-j", "1"]) == 0
        seq = capsys.readouterr().out
        assert main(["table", "8", "--quick", "--no-cache", "-j", "2"]) == 0
        par = capsys.readouterr().out
        assert par == seq
