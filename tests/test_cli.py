"""End-to-end tests for the experiment harness."""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
        (["decompose", "--iters", "0"], "iterations"),
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

    def test_rejected_run_leaves_no_directory(self, tmp_path, capsys):
        """A command-specific limit fails before the output directory is
        made, so the corrected rerun needs no --overwrite."""
        out = str(tmp_path / "out")
        assert main(["escape", "--d", "1", "--out", out]) == 2
        assert not os.path.exists(out)
        assert main(["escape", "--d", "3", "--trials", "2", "--iters", "50", "--out", out]) == 0
        assert "overwrite" not in capsys.readouterr().err

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("objective=banana\n")
        rc = main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "objective" in capsys.readouterr().err

    def test_trailing_window_stats(self):
        mean, spread = trailing_window_stats([10.0, 10.0, 10.0, 10.0, 2.0, 4.0, 3.0, 3.0, 2.0, 4.0])
        np.testing.assert_allclose(mean, 3.0)
        np.testing.assert_allclose(spread, 2.0)
        mean_one, spread_one = trailing_window_stats([7.0], fraction=0.2)
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
        """Seed 1 produces the same trace whether it runs alone or after seed 0."""
        batch, alone = tmp_path / "batch", tmp_path / "alone"
        assert main(["decompose", "--seed", "0", "--seeds", "2", "--out", str(batch), *FAST]) == 0
        assert main(["decompose", "--seed", "1", "--out", str(alone), *FAST]) == 0
        assert strip_elapsed(batch / "seed1.csv") == strip_elapsed(alone / "seed1.csv")

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
        assert read_manifest(out)["outputs"] == ["verify_report.txt"]

    def test_detects_injected_estimator_fault(self, tmp_path, monkeypatch, capsys):
        """A sign-flipped stochastic gradient must fail the battery."""
        true_grad = ica.ica_stochastic_gradient
        monkeypatch.setattr(ica, "ica_stochastic_gradient", lambda U, y: -true_grad(U, y))
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
    ], ids=["decompose-correlation", "decompose-reconstruction", "decompose-maxeig", "ica", "escape",
            "minima"])
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
