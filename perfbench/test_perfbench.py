"""Tests of the benchmark itself: tracer hygiene, gates and a smoke run.

Run with ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import strictsaddle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY_DECOMPOSE = ["decompose", "--d", "3", "--seeds", "2", "--iters", "300", "--record-every", "50"]


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _spans(rows):
    """rows of (start, end, parent, thread), ids in order."""
    n = len(rows)
    return {
        "id": np.arange(n),
        "name": np.zeros(n, dtype=np.int64),
        "start": np.array([r[0] for r in rows], dtype=float),
        "end": np.array([r[1] for r in rows], dtype=float),
        "parent": np.array([r[2] for r in rows], dtype=np.int64),
        "thread": np.array([r[3] for r in rows], dtype=np.int64),
    }


def test_self_times_share_the_wall_between_threads():
    spans = _spans([
        (0.0, 10.0, -1, 0),  # root, waits for the pool during [4, 9]
        (1.0, 3.0, 0, 0),
        (2.0, 2.5, 1, 0),
        (4.0, 8.0, 0, 1),    # pool threads, children of the root
        (5.0, 9.0, 0, 2),
    ])
    got = tracing.self_times(spans)
    np.testing.assert_allclose(got, [3.0, 1.5, 0.5, 2.5, 2.5])
    assert got.sum() == pytest.approx(10.0)


def _snapshot():
    holders = [m for k, m in sys.modules.items() if k.split(".")[0] == "strictsaddle"]
    holders += [tracing._resolve(strictsaddle, owner) for _, owner, _ in tracing.TARGETS]
    return [(h, dict(vars(h))) for h in holders]


def _run_cli(out_dir, tracer=None):
    argv = [*TINY_DECOMPOSE, "--out", str(out_dir)]
    if tracer is None:
        return strictsaddle.cli.main(argv)
    with tracer:
        return strictsaddle.cli.main(argv)


def test_traced_run_restores_every_attribute_and_keeps_csv_bytes(tmp_path, capsys):
    before = _snapshot()
    assert _run_cli(tmp_path / "plain") == 0
    tracer = tracing.Tracer(strictsaddle)
    assert _run_cli(tmp_path / "traced", tracer) == 0

    for holder, attrs in before:
        now = vars(holder)
        changed = [k for k, v in attrs.items() if now.get(k) is not v]
        assert not changed, f"{holder!r} still has wrapped {changed}"

    names = sorted(os.listdir(tmp_path / "plain"))
    assert names == sorted(os.listdir(tmp_path / "traced"))
    for name in names:
        if name.endswith(".csv"):
            assert (workloads.csv_without_elapsed(tmp_path / "plain" / name)
                    == workloads.csv_without_elapsed(tmp_path / "traced" / name)), name

    metrics = tracing.layer_metrics(tracer.spans(), tracer.counters)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["sgd.projected_noisy_sgd.calls"][0] == 2
    assert metrics["sgd.steps"][0] == 600
    assert metrics["manifold.SphereProduct.project.calls"][0] >= 600
    assert metrics["trace.self_sum_s"][0] == pytest.approx(metrics["trace.wall_s"][0], rel=1e-9)


def test_manifest_gate_catches_unlisted_files(tmp_path):
    (tmp_path / "a.csv").write_text("x\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"outputs": ["a.csv"]}))
    assert workloads.manifest_problem(str(tmp_path)) is None
    (tmp_path / "stray.csv").write_text("y\n")
    assert "stray.csv" in workloads.manifest_problem(str(tmp_path))


def test_decompose_gate_fails_unconverged_seed(tmp_path):
    run_dir = tmp_path / "decompose"
    run_dir.mkdir()
    (run_dir / "summary.csv").write_text(
        "seed,final_f,final_grad_norm,final_recon_error,n_steps,diverged\n"
        "0,0.1,0.1,0.001,10000,0\n"
        "1,0.1,0.1,0.02,10000,0\n"
        "2,0.1,0.1,0.001,10000,1\n")
    score = workloads.get("decompose").score(str(tmp_path), "")
    assert (score.attempted, score.failed) == (4, 3)  # seed 3 is missing


def test_csv_comparison_ignores_elapsed_ms_only(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("iter,f,elapsed_ms\n0,1.5,0.123\n")
    b.write_text("iter,f,elapsed_ms\n0,1.5,9.876\n")
    assert workloads.csv_without_elapsed(a) == workloads.csv_without_elapsed(b)
    b.write_text("iter,f,elapsed_ms\n0,1.25,0.123\n")
    assert workloads.csv_without_elapsed(a) != workloads.csv_without_elapsed(b)


def _bench(*args, cwd):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _checkout(dest, with_program=True):
    """A fresh checkout: the benchmark, BENCHMARK.json and (optionally) src/."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src", ignore=ignore)
    return str(dest)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload_through_the_pipeline(trace, tmp_path):
    spec = _benchmark_spec()
    proc = _bench("--smoke", "--seconds", "0", "--trace", trace, cwd=_checkout(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    for w in spec["workloads"]:
        got = {k.split(".", 1)[1]: v for k, v in result["metrics"].items()
               if k.startswith(w["name"] + ".")}
        assert sorted(got) == sorted(m["name"] for m in wanted)
        for m in wanted:
            assert got[m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _bench("--workload", "ica", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=_checkout(tmp_path, with_program=False))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
