"""End-to-end tests for the experiment harness."""

import contextlib
import errno
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strictsaddle
from strictsaddle import analysis, cli, ica, tensor4
from strictsaddle.cli import ICA_RECORD_EVERY, main, parse_config_file, trailing_window_stats

FAST = ["--d", "3", "--iters", "200", "--eta", "0.05", "--record-every", "50"]


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def strip_elapsed(path):
    """Trace CSV lines with the wall-clock column removed."""
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iter,f,grad_norm,recon_error,elapsed_ms"
    return [line.rsplit(",", 1)[0] for line in lines]


def assert_seeds_same_alone(argv, seeds, batch, tmp_path):
    """Every seed's traces and summary row in ``batch`` equal its run alone."""
    summary = (batch / "summary.csv").read_text().strip().split("\n")
    traces = sorted(p.name for p in batch.iterdir() if p.name.startswith("seed"))
    assert len(summary) == 1 + len(seeds) and traces
    for seed, row in zip(seeds, summary[1:]):
        alone = tmp_path / f"alone{seed}"
        main([*argv, "--seed", str(seed), "--out", str(alone)])
        assert (alone / "summary.csv").read_text().strip().split("\n") == [summary[0], row]
        mine = [name for name in traces if name.split(".")[0].split("-")[0] == f"seed{seed}"]
        assert mine == sorted(p.name for p in alone.iterdir() if p.name.startswith("seed"))
        for name in mine:
            assert strip_elapsed(batch / name) == strip_elapsed(alone / name), name


class TestConfigHandling:
    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n d = 5 \n\neta=0.3  # trailing\nseeds=2,7,9\n")
        data = parse_config_file(path)
        assert data == {"d": "5", "eta": "0.3", "seeds": "2,7,9"}

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta=0.5\nd=6\niters=50\nnoise=0\n")
        out = tmp_path / "out"
        rc = main(["decompose", "--config", str(cfg), "--eta", "0.02",
                   "--out", str(out), "--record-every", "25"])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["config"]["eta"] == 0.02
        assert manifest["config"]["d"] == 6

    def test_seed_list_from_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seeds=3,9\n")
        out = tmp_path / "out"
        rc = main(["decompose", "--config", str(cfg), "--out", str(out), *FAST])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["seeds"] == [3, 9]
        assert "seed3.csv" in manifest["outputs"]
        assert "seed9.csv" in manifest["outputs"]

    def test_seed_count_flag(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["decompose", "--seed", "5", "--seeds", "2", "--out", str(out), *FAST])
        assert rc == 0
        assert read_manifest(out)["seeds"] == [5, 6]

    def test_env_var_sets_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "results"))
        rc = main(["decompose", *FAST])
        assert rc == 0
        assert (tmp_path / "results" / "decompose" / "summary.csv").exists()

    def test_existing_dir_needs_overwrite(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["decompose", "--out", str(out), *FAST]) == 0
        assert main(["decompose", "--out", str(out), *FAST]) == 2
        assert "overwrite" in capsys.readouterr().err
        assert main(["decompose", "--out", str(out), "--overwrite", *FAST]) == 0

    @pytest.mark.parametrize("argv,needle", [
        (["decompose", "--iters", "0"], "iters must be >= 1"),
        (["decompose", "--sampler", "ica", "--objective", "maxeig"], "correlation"),
        (["escape", "--trials", "0"], "trials"),
        (["decompose", "--eta", "nan"], "eta must be finite"),
        (["decompose", "--noise", "inf"], "noise must be finite"),
        (["escape", "--d", "1"], "d >= 2"),
        (["verify", "--d", "1"], "d >= 2"),
        (["decompose", "--seed", "-1"], "non-negative"),
        (["decompose", "--config", "seeds=3,3"], "distinct"),
        (["decompose", "--config", "seeds=2,-1"], "non-negative"),
        (["ica", "--eta", "1e308"], "eta must be finite"),
        (["minima", "--d", "1"], "d >= 2"),
        (["decompose", "--config", "seeds=,"], "bad value for seeds: ','"),
        (["decompose", "--config", "overwrite=banana"], "bad value for overwrite: 'banana'"),
    ])
    def test_validation_errors_exit_2(self, tmp_path, capsys, argv, needle):
        if "--config" in argv:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(argv[-1] + "\n")
            argv = [*argv[:-1], str(cfg)]
        rc = main(argv + ["--out", str(tmp_path / "out")])
        assert rc == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_errors_name_the_flag(self, tmp_path, capsys):
        """--seed and each listed seed meet SgdConfig's one seed rule, and
        the message names the setting that holds the bad seed."""
        assert main(["decompose", "--seed", "-1", "--out", str(tmp_path / "a")]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seeds=2,-1\n")
        assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == "error: seeds lists -1: seed must be a non-negative integer\n"

    def test_rejected_run_leaves_no_directory(self, tmp_path, capsys):
        """A command-specific limit fails before the output directory is
        made, so the corrected rerun needs no --overwrite."""
        out = str(tmp_path / "out")
        assert main(["escape", "--d", "1", "--out", out]) == 2
        assert not os.path.exists(out)
        assert main(["escape", "--d", "3", "--trials", "2", "--iters", "50", "--out", out]) == 0
        assert "overwrite" not in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["junk line", "d 5", "seeds: 2,3"])
    def test_malformed_config_line_exits_2(self, tmp_path, capsys, line):
        """A line with no '=' is a config error naming the file, the line
        number and the line, and no output directory is made."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\nd = 3\n\n{line}  # trailing\n")
        with pytest.raises(cli.CliError, match=f"^{re.escape(f'{cfg}:4: expected KEY=VALUE, got {line!r}')}$"):
            parse_config_file(cfg)
        assert main(["escape", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:4: expected KEY=VALUE, got {line!r}\n"
        assert not (tmp_path / "out").exists()

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("objective=banana\n")
        rc = main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "objective" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, where):
        """A config file that cannot be read is a config error, named with
        the OS's reason, and no output directory is made."""
        cfg = tmp_path / "run.cfg"
        if where == "directory":
            cfg.mkdir()
        assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file: [Errno ") and str(cfg) in err
        assert not (tmp_path / "out").exists()

    def test_io_error_exits_2_and_removes_the_output_it_made(self, tmp_path, capsys, monkeypatch):
        """An OSError during the run prints an i/o error, exits 2 and removes
        the output directory this call made."""
        def disk_full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "write_manifest", disk_full)
        out = tmp_path / "out"
        assert main(["decompose", "--out", str(out), *FAST]) == 2
        assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"
        assert not out.exists()

    def test_output_path_under_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["decompose", "--out", str(tmp_path / "file" / "out"), *FAST]) == 2
        assert capsys.readouterr().err.startswith("i/o error: [Errno ")

    def test_trailing_window_stats(self):
        mean, spread = trailing_window_stats([10.0, 10.0, 10.0, 10.0, 2.0, 4.0, 3.0, 3.0, 2.0, 4.0])
        np.testing.assert_allclose(mean, 3.0)
        np.testing.assert_allclose(spread, 2.0)
        mean_one, spread_one = trailing_window_stats([7.0])
        assert (mean_one, spread_one) == (7.0, 0.0)


class TestDecompose:
    def test_outputs_and_summary_schema(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["decompose", "--seeds", "2", "--out", str(out), *FAST])
        assert rc == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == "seed,final_f,final_grad_norm,final_recon_error,n_steps,diverged"
        assert len(lines) == 3
        for row in lines[1:]:
            seed, f, g, err, n_steps, diverged = row.split(",")
            float(f), float(g), float(err)
            assert int(n_steps) == 200
            assert diverged == "0"

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        """The manifest's environment block names python, numpy, BLAS, the
        CPU count and the package version; it changes no output byte."""
        out = tmp_path / "out"
        assert main(["decompose", "--seeds", "2", "--out", str(out), *FAST]) == 0
        env = read_manifest(out)["environment"]
        assert sorted(env) == ["blas", "blas_version", "cpu_count", "numpy", "python", "strictsaddle"]
        assert env["numpy"] == np.__version__ and env["strictsaddle"] == strictsaddle.__version__
        assert env["python"] == ".".join(map(str, sys.version_info[:3])) and env["cpu_count"] == os.cpu_count()
        monkeypatch.setattr(cli, "_environment", dict)
        bare = tmp_path / "bare"
        assert main(["decompose", "--seeds", "2", "--out", str(bare), *FAST]) == 0
        assert read_manifest(bare)["environment"] == {}
        assert (out / "summary.csv").read_bytes() == (bare / "summary.csv").read_bytes()
        for name in ("seed0.csv", "seed1.csv"):
            assert strip_elapsed(out / name) == strip_elapsed(bare / name)

    def test_manifest_lists_every_file(self, tmp_path):
        out = tmp_path / "out"
        main(["decompose", "--seeds", "2", "--out", str(out), *FAST])
        manifest = read_manifest(out)
        on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["outputs"] == on_disk
        assert manifest["command"] == "decompose"
        assert manifest["config"]["d"] == 3

    def test_rerun_is_deterministic_up_to_wall_clock(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["decompose", "--seed", "3", "--out", str(out), *FAST]) == 0
        assert strip_elapsed(out_a / "seed3.csv") == strip_elapsed(out_b / "seed3.csv")
        assert (out_a / "summary.csv").read_text() == (out_b / "summary.csv").read_text()

    def test_seed_trace_same_alone_or_in_batch(self, tmp_path):
        """Seed k's traces and summary row are the same whether it runs
        alone or as a row of a batch of seeds: decompose under every
        objective and either sampler, and both phases of ica."""
        cases = [["decompose", "--objective", objective] for objective in cli.OBJECTIVES]
        cases += [["decompose", "--sampler", "ica", "--batch", "5"], ["ica", "--batch", "5"]]
        for case, argv in enumerate(c + FAST for c in cases):
            batch = tmp_path / f"batch{case}"
            main([*argv, "--seed", "4", "--seeds", "3", "--out", str(batch)])
            assert_seeds_same_alone(argv, [4, 5, 6], batch, tmp_path / f"case{case}")
        assert (tmp_path / "batch4" / "seed5-invt.csv").exists()

    def test_one_gradient_call_per_step_on_the_seed_stack(self, tmp_path, monkeypatch):
        calls = []
        oracle = ica.SimpleSampler.gradient

        def counted(self, W, samples):
            calls.append((W.shape, samples.shape))
            return oracle(self, W, samples)

        monkeypatch.setattr(ica.SimpleSampler, "gradient", counted)
        assert main(["decompose", "--seeds", "3", "--out", str(tmp_path / "out"), *FAST]) == 0
        assert calls == [((3, 9), (3, 3))] * 200

    def test_rows_leaving_at_different_steps_equal_their_runs_alone(self, tmp_path):
        """At d=1 and eta=1 the rows step onto the sphere's centre at steps
        0, 1 and 2; each leaves the stack there and its outputs are its
        run alone."""
        argv = ["decompose", "--d", "1", "--eta", "1", "--iters", "50"]
        batch = tmp_path / "batch"
        assert main([*argv, "--seed", "0", "--seeds", "6", "--out", str(batch)]) == 1
        rows = [row.split(",") for row in (batch / "summary.csv").read_text().strip().split("\n")[1:]]
        assert sorted({int(r[4]) for r in rows}) == [0, 1, 2] and all(r[5] == "1" for r in rows)
        assert_seeds_same_alone(argv, range(6), batch, tmp_path)

    def test_converges_on_easy_problem(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["decompose", "--d", "2", "--iters", "2000", "--eta", "0.05",
                   "--noise", "0.5", "--record-every", "500", "--out", str(out)])
        assert rc == 0
        last = (out / "summary.csv").read_text().strip().split("\n")[-1]
        final_err = float(last.split(",")[3])
        assert final_err < 0.5


class TestIca:
    def test_outputs_and_default_stride(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["ica", "--d", "3", "--iters", "300", "--eta", "0.05",
                   "--batch", "20", "--out", str(out)])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["config"]["record_every"] == ICA_RECORD_EVERY
        assert manifest["outputs"] == ["seed0-constant.csv", "seed0-invt.csv", "summary.csv"]
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == ("seed,plateau_mean,plateau_range,final_error_constant,"
                            "final_error_invt,improved,diverged")
        seed, pm, pr, ec, ei, improved, diverged = lines[1].split(",")
        assert seed == "0"
        assert float(pm) > 0 and float(pr) >= 0
        assert improved in ("0", "1") and diverged == "0"

    def test_stride_flag_overrides_default(self, tmp_path):
        out = tmp_path / "out"
        main(["ica", "--d", "3", "--iters", "100", "--eta", "0.05", "--batch", "10",
              "--record-every", "25", "--out", str(out)])
        assert read_manifest(out)["config"]["record_every"] == 25
        trace = (out / "seed0-constant.csv").read_text().strip().split("\n")
        assert len(trace) == 1 + 5  # header + records at 0,25,50,75,100

    def test_constant_phase_is_the_decompose_ica_run(self, tmp_path):
        """Seed k's constant trace is ``decompose --sampler ica --objective
        correlation``'s trace of seed k, apart from elapsed_ms."""
        argv = ["--d", "3", "--iters", "200", "--eta", "0.05", "--batch", "20", "--record-every", "50",
                "--seed", "4", "--seeds", "2"]
        assert main(["ica", *argv, "--out", str(tmp_path / "ica")]) == 0
        assert main(["decompose", "--sampler", "ica", "--objective", "correlation", *argv,
                     "--out", str(tmp_path / "decompose")]) == 0
        for seed in (4, 5):
            assert (strip_elapsed(tmp_path / "ica" / f"seed{seed}-constant.csv")
                    == strip_elapsed(tmp_path / "decompose" / f"seed{seed}.csv"))

    def test_ica_continues_only_the_constant_runs_that_survived(self, tmp_path):
        """A seed whose constant run diverged gets no row in the annealed
        stack; the seeds after it still get their own continuation."""
        argv = ["ica", "--d", "1", "--eta", "1", "--iters", "2", "--record-every", "1"]
        batch = tmp_path / "batch"
        assert main([*argv, "--seed", "0", "--seeds", "8", "--out", str(batch)]) == 1
        # seed 0's constant run diverges, so each continuation belongs to a later row
        assert not (batch / "seed0-invt.csv").exists() and 0 < len(list(batch.glob("seed*-invt.csv"))) < 8
        assert_seeds_same_alone(argv, range(8), batch, tmp_path)


class TestVerify:
    def test_passes_without_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["verify", "--d", "3", "--seed", "7"])
        assert rc == 0
        assert not (tmp_path / "runs").exists()
        stdout = capsys.readouterr().out
        assert "checks passed" in stdout
        assert "FAIL" not in stdout

    def test_writes_report_when_asked(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["verify", "--d", "3", "--seed", "7", "--out", str(out)])
        assert rc == 0
        report = (out / "verify_report.txt").read_text()
        assert report.count("PASS") == len(report.strip().split("\n"))
        assert read_manifest(out)["outputs"] == ["verify_report.json", "verify_report.txt"]

    def test_json_report_holds_every_margin(self, tmp_path, capsys):
        """verify_report.json has one object per check; the text report and
        stdout lines are unchanged by it."""
        out = tmp_path / "out"
        assert main(["verify", "--d", "3", "--seed", "7", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert main(["verify", "--d", "3", "--seed", "7"]) == 0
        assert capsys.readouterr().out == stdout
        lines = (out / "verify_report.txt").read_text().strip().split("\n")
        assert lines == stdout.strip().split("\n")[:-1]
        with open(out / "verify_report.json") as fh:
            checks = json.load(fh)
        assert len(checks) == len(lines)
        for check, line in zip(checks, lines):
            assert set(check) == {"name", "value", "tolerance", "margin", "passed"}
            assert line.startswith(f"PASS {check['name']}: ")
            assert check["passed"] is True
            assert check["margin"] == check["tolerance"] - check["value"]

    def test_detects_injected_estimator_fault(self, tmp_path, monkeypatch, capsys):
        """A sign-flipped stochastic gradient must fail the battery."""
        true_grad = ica.minibatch_gradient
        monkeypatch.setattr(ica, "minibatch_gradient", lambda U, Y: -true_grad(U, Y))
        monkeypatch.chdir(tmp_path)
        rc = main(["verify", "--d", "3", "--seed", "7"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestEscapeCommand:
    def test_escape_csv(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["escape", "--d", "4", "--trials", "5", "--iters", "2000",
                   "--eta", "0.02", "--noise", "1", "--out", str(out)])
        assert rc == 0
        lines = (out / "escape.csv").read_text().strip().split("\n")
        assert lines[0] == "trial,steps,f_decrease"
        assert len(lines) == 6
        for row in lines[1:]:
            trial, steps, dec = row.split(",")
            assert int(steps) >= 1 or int(steps) == -1
            float(dec)
        assert read_manifest(out)["outputs"] == ["escape.csv"]

    def test_trial_same_alone_or_in_batch(self, tmp_path):
        """Row 0 of a five-trial run equals the one row of a one-trial run."""
        rows = {}
        for trials in ("5", "1"):
            out = tmp_path / f"t{trials}"
            assert main(["escape", "--d", "6", "--trials", trials, "--iters", "2000",
                         "--seed", "3", "--out", str(out)]) == 0
            rows[trials] = (out / "escape.csv").read_text().strip().split("\n")
        assert len(rows["5"]) == 6 and len(rows["1"]) == 2
        assert rows["5"][1] == rows["1"][1]

    def test_started_is_stamped_before_the_work(self, tmp_path, monkeypatch):
        """The manifest's start time is taken before the command computes."""
        ticks = itertools.count()
        monkeypatch.setattr(cli, "_utc_stamp", lambda: next(ticks))
        entered = []
        escape_statistics = analysis.escape_statistics

        def spy(*args):
            entered.append(next(ticks))
            return escape_statistics(*args)

        monkeypatch.setattr(analysis, "escape_statistics", spy)
        out = tmp_path / "out"
        assert main(["escape", "--d", "3", "--trials", "2", "--iters", "50", "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["started"] < entered[0] < manifest["finished"]

    def test_noise_free_runs_never_escape(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["escape", "--d", "4", "--trials", "3", "--iters", "200",
                   "--eta", "0.02", "--noise", "0", "--out", str(out)])
        assert rc == 0
        rows = (out / "escape.csv").read_text().strip().split("\n")[1:]
        assert all(row.split(",")[1] == "-1" for row in rows)


class TestDivergedRuns:
    @pytest.mark.parametrize("argv", [
        ["decompose", "--noise", "1e308", "--d", "3", "--iters", "20"],
        ["ica", "--noise", "1e308", "--d", "3", "--iters", "20"],
        ["minima", "--eta", "1e308", "--d", "2", "--starts", "3", "--iters", "20"],
        ["escape", "--noise", "1e308", "--d", "3", "--trials", "3", "--iters", "20"],
        ["escape", "--eta", "1e308", "--d", "3", "--trials", "3", "--iters", "20"],
    ], ids=["decompose", "ica", "minima", "escape", "escape-eta"])
    def test_overflowing_step_exits_1_with_outputs(self, argv, tmp_path):
        """A step that overflows is a diverged run: exit 1, no traceback or
        numpy warning, and the manifest lists exactly the files written."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(strictsaddle.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "strictsaddle", *argv, "--out", str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert on_disk and read_manifest(out)["outputs"] == on_disk

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, line", [
        (["escape", "--eta", "1e308", "--d", "3", "--trials", "3", "--iters", "20"], "3 trials diverged"),
        (["minima", "--eta", "1e308", "--d", "2", "--starts", "3", "--iters", "20"], "3 starts diverged"),
    ], ids=["escape", "minima"])
    def test_diverged_count_is_printed(self, argv, line, tmp_path, capsys):
        """In this process: a step so long that every trial overflows exits
        1, and the summary's last line counts the diverged trials."""
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == line


class TestMinimaCommand:
    def test_minima_csv(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["minima", "--d", "2", "--objective", "correlation", "--starts", "30",
                   "--iters", "800", "--eta", "0.05", "--noise", "0.5",
                   "--record-every", "800", "--out", str(out)])
        assert rc == 0
        lines = (out / "minima.csv").read_text().strip().split("\n")
        assert lines[0].startswith("min_eig,hits,w0")
        assert 1 <= len(lines) - 1 <= 8
        hits = sum(int(row.split(",")[1]) for row in lines[1:])
        assert hits <= 30


TINY = ["--d", "3", "--iters", "50", "--record-every", "25"]


class TestNoDenseTensor:
    @pytest.mark.parametrize("argv", [
        ["decompose", "--objective", "correlation", *TINY],
        ["decompose", "--objective", "reconstruction", *TINY],
        ["decompose", "--objective", "maxeig", *TINY],
        ["ica", "--batch", "5", *TINY],
        ["escape", "--trials", "3", *TINY],
        ["minima", "--starts", "3", *TINY],
        ["verify", "--d", "2"],
    ], ids=["decompose-correlation", "decompose-reconstruction", "decompose-maxeig", "ica", "escape",
            "minima", "verify"])
    def test_command_builds_no_dense_tensor(self, argv, tmp_path, monkeypatch):
        """Problems come from the decomposition basis; the d^4 tensor is never formed."""
        def refuse(self, entries):
            raise AssertionError("a dense Tensor4 was built")

        monkeypatch.setattr(tensor4.Tensor4, "__init__", refuse)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0


class TestModuleEntryPoint:
    def test_python_m_strictsaddle_version(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(strictsaddle.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "strictsaddle", "--version"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.strip() == f"strictsaddle {strictsaddle.__version__}"

    def test_numpy_is_the_only_dependency(self, tmp_path):
        """Importing the package and running the battery load no scipy module."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(strictsaddle.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        script = ("import sys, strictsaddle\n"
                  "code = strictsaddle.cli.main(['verify', '--d', '2'])\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                  "sys.exit(code)\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


COMMON_OPTIONS = {"-h", "--help", "--config", "--seed", "--seeds", "--out", "--d", "--eta", "--iters",
                  "--schedule", "--batch", "--objective", "--sampler", "--noise", "--record-every",
                  "--overwrite"}
COMMAND_OPTIONS = {"escape": {"--trials"}, "minima": {"--starts"}}
CHOICES = {"--objective": ["correlation", "reconstruction", "maxeig"],
           "--sampler": ["simple", "ica"],
           "--schedule": ["constant", "inv-t"]}
CONFIG_KEYS = {"d": "3", "objective": "maxeig", "sampler": "simple", "batch": "10", "eta": "0.05",
               "iters": "100", "schedule": "inv-t", "noise": "0.5", "seed": "1", "seeds": "2",
               "record_every": "10", "record-every": "10", "trials": "5", "starts": "5",
               "out": "elsewhere", "overwrite": "1"}
COMMANDS = ("decompose", "ica", "verify", "escape", "minima")


def _subcommand_options(command):
    parser = cli.make_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return {opt: action for action in sub.choices[command]._actions for opt in action.option_strings}


class TestCliSurface:
    """Flags, choices and config keys every command accepts."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_option_strings_and_choices(self, command):
        options = _subcommand_options(command)
        assert set(options) == COMMON_OPTIONS | COMMAND_OPTIONS.get(command, set())
        for flag, choices in CHOICES.items():
            assert list(options[flag].choices) == choices

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_config_key_accepted(self, command, tmp_path):
        for key, value in CONFIG_KEYS.items():
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key}={value}\n")
            args = cli.make_parser().parse_args([command, "--config", str(cfg)])
            cli.build_config(args)
        cfg = tmp_path / "list.cfg"
        cfg.write_text("seeds=0,4\n")
        cli.build_config(cli.make_parser().parse_args([command, "--config", str(cfg)]))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_key_exits_2(self, command, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "unknown config key 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# Values for the bad-input contract, as the text a flag or a config file
# holds.  Sizes stay small (d <= 4, iters <= 50, batch <= 200, trials,
# starts and seeds <= 5) so every accepted run is quick.  Every run sets
# the sizes, since their defaults are too big for a quick run; any one
# setting may be garbled.
_FLOATS = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "0.05", "1"]),
    st.floats(min_value=-2.0, max_value=2.0).map(repr),
)
_SIZES = {"d": 4, "iters": 50, "batch": 200, "trials": 5, "starts": 5, "seeds": 5, "record_every": 60}
_CHOICES = {
    "schedule": ["constant", "inv-t", "inverse_t", "bogus"],
    "objective": ["correlation", "reconstruction", "maxeig", "bogus"],
    "sampler": ["simple", "ica", "bogus"],
}
_VALUES = {
    **{key: st.integers(1, cap) for key, cap in _SIZES.items()},
    **{key: st.sampled_from(choices) for key, choices in _CHOICES.items()},
    "seeds": st.one_of(st.integers(1, 5), st.sampled_from(["1,2", "2,2", "-1,3", "0,", "4,x"])),
    "seed": st.one_of(st.integers(0, 5), st.integers(0, 2**70)),
    "eta": _FLOATS,
    "noise": _FLOATS,
}
_GARBLED = st.one_of(st.integers(-2, 0), st.sampled_from(["nan", "inf", "1e308", "1.5", "", "x"]))

# Edge values for the fuzzed contract.  Per setting, a short list of values
# every command accepts alone and one of values some command refuses: the
# bounds of each size, the smallest subnormal and a huge float, seeds up to
# 2**64 and seed lists.  Sizes stay at d <= 3 and iters <= 7; verify runs
# its fixed census whatever the iters, so it is one command in thirteen.
_EDGES = {
    "d": (["2", "3"], ["-1", "0", "1"]),
    "iters": (["1", "7"], ["-1", "0"]),
    "batch": (["1", "3"], ["0"]),
    "trials": (["1", "3"], ["0"]),
    "starts": (["1", "3"], ["0"]),
    "seeds": (["1", "3", "0,1", f"{2**64 - 1},0"], ["0", "2,2", "-1,1", ","]),
    "record_every": (["1", "3", "7", "8"], ["0"]),
    "eta": (["5e-324", "0.05", "1", "1e300"], ["-1", "0", "nan", "inf"]),
    "noise": (["0", "5e-324", "0.5", "1e300"], ["-1", "nan", "inf"]),
    "seed": (["0", "1", str(2**63), str(2**64 - 1), str(2**64)], ["-1"]),
    "schedule": (["constant", "inv-t"], ["bogus"]),
    "objective": (["correlation", "reconstruction", "maxeig"], ["bogus"]),
    "sampler": (["simple", "ica"], ["bogus"]),
    "overwrite": (["0", "1"], ["maybe"]),
}
_EDGE_SIZES = ("d", "iters", "batch", "trials", "starts", "seeds")


class TestBadInput:
    """Any flags and config files: exit 0, 1 or 2, never a traceback, and an
    exit 2 leaves no output directory."""

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(("decompose", "ica", "escape", "minima") * 3 + ("verify",)),
           data=st.data())
    def test_fuzzed_config_file_keeps_the_contract(self, command, data):
        """A config file of edge values, at most one of them refused, for
        every command: exit 0, 1 or 2, no traceback, and an exit 2 removes
        the output directory it made."""
        keys = set(_EDGE_SIZES) | data.draw(st.sets(st.sampled_from(sorted(_EDGES))), label="keys")
        values = {key: data.draw(st.sampled_from(_EDGES[key][0]), label=key) for key in sorted(keys)}
        refused = data.draw(st.none() | st.sampled_from(sorted(values)), label="refused key")
        if refused is not None:
            values[refused] = data.draw(st.sampled_from(_EDGES[refused][1]), label="refused value")
        with tempfile.TemporaryDirectory() as tmp:
            out, cfg = os.path.join(tmp, "out"), os.path.join(tmp, "run.cfg")
            with open(cfg, "w") as fh:
                fh.writelines(f"{key}={value}\n" for key, value in values.items())
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--out", out, "--config", cfg])
            assert code in (0, 1, 2), values
            assert "Traceback" not in err.getvalue(), values
            if code == 2:
                assert not os.path.exists(out), values

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(COMMANDS), data=st.data())
    def test_exit_code_contract(self, command, data):
        keys = set(_SIZES) | data.draw(st.sets(st.sampled_from(sorted(_VALUES))), label="keys")
        values = {key: data.draw(_VALUES[key], label=key) for key in sorted(keys)}
        garbled = data.draw(st.none() | st.sampled_from(sorted(values)), label="garbled key")
        if garbled is not None:
            values[garbled] = data.draw(_GARBLED, label="garbled value")
        # a config file may set any key; a flag exists only for its commands
        own = {"escape": "trials", "minima": "starts"}.get(command)
        flaggable = sorted(key for key in values if key not in ("trials", "starts") or key == own)
        flags = data.draw(st.sets(st.sampled_from(flaggable)), label="as flags")
        with tempfile.TemporaryDirectory() as tmp:
            out, cfg = os.path.join(tmp, "out"), os.path.join(tmp, "run.cfg")
            argv = [command, "--out", out, "--config", cfg]
            argv += [f"--{key.replace('_', '-')}={values[key]}" for key in sorted(flags)]
            with open(cfg, "w") as fh:
                fh.writelines(f"{key}={value}\n" for key, value in values.items() if key not in flags)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects a flag
                    code = exc.code
            assert code in (0, 1, 2), argv
            if code == 2:
                assert not os.path.exists(out), argv

    def test_refused_allocation_exits_2_without_output(self, tmp_path, capsys):
        """A size numpy refuses to allocate (the basis alone would be 71 PiB)
        is a one-line error with exit 2, and the output directory main made
        is removed."""
        out = tmp_path / "out"
        assert main(["verify", "--d", "100000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory") and err.count("\n") == 1
        assert not out.exists()
