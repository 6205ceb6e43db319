"""The strictsaddle benchmark: CLI workloads timed end to end, or traced.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs in a fresh child process (``child.py``) that imports
the package from ``src/`` of this checkout, builds the workload's inputs
(timed as ``setup_s``) and calls ``strictsaddle.cli.main(argv)``.  Outputs
go to ``.perfbench_work/<workload>/rep<k>/`` and are checked after every
repetition: the workload's failure rules, the manifest listing, and
byte-identical CSVs (minus ``elapsed_ms``) against the first repetition.

``--trace 0`` repeats the workload (at least three times) while the next
repetition should end nearer to ``--seconds`` than the last one did.  It
reports ``setup_s`` and ``peak_rss_mb`` as medians over the repetitions, and
the run times as means: ``wall_s`` and ``cpu_s`` per repetition, and
``steps_per_s`` as all steps over all wall time.  On a shared host each
vCPU's throughput switches between a fast and a slow state every few
seconds, and a mean uses all the time measured where a median picks one
repetition.
``--trace 1`` runs it untraced and traced, twice each and alternating, and
reports the per-layer metrics and the tracing overhead; the two traced runs
must agree on every ``.calls``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed and no operation failed.
"""

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
MIN_REPS = 3
SMOKE_REPS = 2
CHILD_TIMEOUT_S = 150.0
# no repetition starts once a run could overshoot this
RUN_DEADLINE_S = 160.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


class Run:
    """Samples, counts and problems gathered for one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reps = []
        self.notes = set()

    def op(self, failed, what):
        self.attempted += 1
        if failed:
            self.failed += 1
            self.problems.append(what)

    def problem(self, what):
        self.problems.append(what)


def git_sha():
    """HEAD of the checkout read from .git, or None outside a repository."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child(rep_dir, name, seed, mode, smoke):
    """Run child.py once; return its result dict (None if it failed)."""
    os.makedirs(rep_dir, exist_ok=True)
    result_path = os.path.join(rep_dir, "result.json")
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["STRICTSADDLE_OUT"] = rep_dir
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path, name, str(seed), mode]
    if smoke:
        cmd.append("--smoke")
    with open(os.path.join(rep_dir, "stderr.txt"), "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # also on SIGTERM or Ctrl-C: no child outlives the runner
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        return None
    with open(result_path) as fh:
        return json.load(fh)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def check_rep(run, k, rep_dir, res, reference_dir):
    """Apply the workload's gates to repetition k; return True if usable."""
    w = run.workload
    if res is None:
        run.problem(f"rep{k}: child failed: {_read(os.path.join(rep_dir, 'stderr.txt'))[-2000:]}")
        return False
    stdout = _read(os.path.join(rep_dir, "stdout.txt"))
    score = w.score(rep_dir, stdout)
    run.attempted += score.attempted
    run.failed += score.failed
    if score.failed:
        run.problem(f"rep{k}: {score.failed}/{score.attempted} failed {score.detail}")
    if score.info:
        run.notes.add(score.info)
    if res["rc"] != 0 and not score.failed:
        run.problem(f"rep{k}: exit code {res['rc']} with no failed operation")
    if w.writes_files:
        bad = workloads.manifest_problem(w.run_dir(rep_dir))
        if bad:
            run.problem(f"rep{k}: {bad}")
    if reference_dir is not None:
        for path in w.compared_files(reference_dir):
            other = os.path.join(rep_dir, os.path.relpath(path, reference_dir))
            same = (os.path.exists(other)
                    and workloads.csv_without_elapsed(path) == workloads.csv_without_elapsed(other))
            run.op(not same, f"rep{k}: {os.path.relpath(other, rep_dir)} differs from rep0")
    return True


def end_to_end(run):
    reps = run.reps
    wall = sum(r["wall_s"] for r in reps)
    out = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": wall / len(reps),
        "cpu_s": statistics.mean(r["cpu_s"] for r in reps),
        "steps_per_s": sum(r["steps"] for r in reps) / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in reps),
    }
    return {k: (v, E2E_UNITS[k]) for k, v in out.items()}


def per_layer(run, traced, untraced_wall):
    first, second = (r["per_layer"] for r in traced)
    out = {}
    for key, (value, unit) in first.items():
        if key.endswith(".calls"):
            run.op(value != second[key][0], f"{key} differs between traced runs")
            out[key] = (value, unit)
        elif unit == "count" or unit == "bytes":
            out[key] = (value, unit)
        else:
            out[key] = ((value + second[key][0]) / 2.0, unit)
    for r in traced:
        layer = r["per_layer"]
        wall, total = layer["trace.wall_s"][0], layer["trace.self_sum_s"][0]
        if not abs(total - wall) <= 1e-6 * wall + 1e-6:
            run.problem(f"self times sum to {total!r} s, traced wall is {wall!r} s")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def run_workload(name, seed, seconds, trace, smoke):
    w = workloads.get(name, smoke=smoke)
    run = Run(w)
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    env = child(os.path.join(work, "env"), name, seed, "env", smoke)
    if env is None:
        run.problem("could not import strictsaddle from this checkout: "
                    + _read(os.path.join(work, "env", "stderr.txt"))[-2000:])
        return run, {}, {}
    environment = dict(env["env"], git_sha=git_sha(), workload=name, seed=seed,
                       argv=w.argv(seed), smoke=smoke)

    def rep(k, mode, reference):
        rep_dir = os.path.join(work, f"rep{k}")
        res = child(rep_dir, name, seed, mode, smoke)
        if not check_rep(run, k, rep_dir, res, reference):
            return None
        try:
            res["steps"] = w.steps(rep_dir)
        except (OSError, LookupError, ValueError) as exc:
            run.problem(f"rep{k}: no step count in the outputs: {exc!r}")
            return None
        return res

    start = time.perf_counter()
    first = os.path.join(work, "rep0")
    if trace:
        # untraced and traced runs alternate, so drift hits both alike
        done = [rep(k, mode, first if k else None) for k, mode in enumerate("0101")]
        run.reps = [r for r in done if r is not None]
        if None in done:
            return run, environment, {}
        untraced_wall = statistics.median(r["wall_s"] for r in done[0::2])
        metrics = per_layer(run, done[1::2], untraced_wall)
    else:
        # another repetition starts if it should end nearer to --seconds than
        # the run would end without it, so a run lasts --seconds on average
        min_reps = SMOKE_REPS if smoke else MIN_REPS
        for k in itertools.count():
            elapsed = time.perf_counter() - start
            next_end = elapsed + (elapsed / k if k else 0.0)
            if k >= min_reps and (next_end + elapsed) / 2 > seconds or next_end > RUN_DEADLINE_S:
                break
            res = rep(k, "0", first if k else None)
            if res is None:
                break
            run.reps.append(res)
        if not run.reps:
            return run, environment, {}
        metrics = end_to_end(run)
    environment["samples"] = len(run.reps)
    environment["measured_s"] = time.perf_counter() - start
    return run, environment, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configurations, for tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "strictsaddle", "cli.py")):
        print(f"error: no strictsaddle sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run, environment, values = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        ok = bool(values) and not run.problems
        correct = correct and ok
        attempted += run.attempted
        failed += run.failed
        report(run, environment, values, args.trace)
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
        with open(os.path.join(WORK, name, f"result-trace{args.trace}.json"), "w") as fh:
            json.dump({"environment": environment, "metrics": values, "correct": ok,
                       "attempted": run.attempted, "failed": run.failed,
                       "problems": run.problems, "samples": run.reps}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def report(run, environment, values, trace):
    w = run.workload
    n = environment.get("samples", 0)
    kind = ("traced, counts from run 1, times mean of 2" if trace else
            f"{n} runs: run times are means, setup_s and peak_rss_mb medians")
    print(f"== {w.name} ({kind})")
    for key, (value, unit) in values.items():
        if trace and key.endswith((".self_s", ".us_per_call")) and not value:
            continue
        print(f"  {key:<48} {value:>16.6g} {unit}")
    frac = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'fail_frac':<48} {frac:>16.6g} ratio ({run.failed}/{run.attempted})")
    for note in sorted(run.notes):
        print(f"  note: {note}")
    for p in run.problems:
        print(f"  CHECK FAILED: {p}")
    print(f"  env: {json.dumps(environment, sort_keys=True)}")


if __name__ == "__main__":
    sys.exit(main())
