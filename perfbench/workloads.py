"""Workload definitions for the strictsaddle benchmark.

Each workload names one CLI command and knows four things about it:

* ``argv(seed)`` -- the exact flags the program receives;
* ``setup(ss, seed)`` -- the inputs the command builds, rebuilt through
  the public API so that a child process can time import plus set-up;
* ``score(rep_dir, stdout)`` -- the operations the command attempted and
  how many failed, read from its outputs;
* ``steps(rep_dir)`` -- projected-SGD steps executed, for ``steps_per_s``.

This module imports only the standard library; it is shared by the
runner (``run.py``) and the child process (``child.py``).
"""

import csv
import json
import os
from dataclasses import dataclass

# acceptance test 07: a converged decomposition run ends below this error
RECON_ERROR_BOUND = 1e-2
# acceptance test 08 asks, for 8 of 10 seeds, that the constant-step plateau
# range stay below half its mean and that annealing end below the plateau.
# Single seeds miss it as the test allows (seeds 7, 30, 31 of 0-39 and 100
# on the range, 201 on annealing), so one seed's values are reported, not
# gated; a run fails when it diverges
PLATEAU_RANGE_FRACTION = 0.5
# run_checks runs 11 checks; its census is 60 starts x 1200 noisy steps
VERIFY_CHECKS = 11
CENSUS_STEPS = 60 * 1200


@dataclass(frozen=True)
class Score:
    attempted: int
    failed: int
    detail: str = ""
    info: str = ""


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_without_elapsed(path):
    """The CSV's lines with the ``elapsed_ms`` column removed."""
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    if not rows:
        return []
    drop = rows[0].index("elapsed_ms") if "elapsed_ms" in rows[0] else None
    return [",".join(c for k, c in enumerate(r) if k != drop) for r in rows]


def manifest_problem(run_dir):
    """None when manifest.json lists exactly the other files of run_dir."""
    path = os.path.join(run_dir, "manifest.json")
    try:
        with open(path) as fh:
            listed = json.load(fh)["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable manifest in {run_dir}: {exc}"
    present = sorted(n for n in os.listdir(run_dir) if n != "manifest.json")
    if sorted(listed) != present or len(set(listed)) != len(listed):
        return f"manifest lists {sorted(listed)} but {run_dir} holds {present}"
    return None


class Workload:
    name = ""
    command = ""
    why = ""
    writes_files = True

    full = {}
    small = {}

    def __init__(self, smoke=False):
        self.smoke = smoke
        self.params = self.small if smoke else self.full

    def argv(self, seed):
        flags = [item for key, value in self.params.items() for item in (f"--{key}", str(value))]
        return [self.command, *flags, "--seed", str(seed)]

    def run_dir(self, rep_dir):
        return os.path.join(rep_dir, self.command)

    def compared_files(self, rep_dir):
        """Outputs that must be byte-identical across reruns (minus elapsed_ms)."""
        run_dir = self.run_dir(rep_dir)
        return sorted(os.path.join(run_dir, n) for n in os.listdir(run_dir) if n.endswith(".csv"))

    def setup(self, ss, seed):
        raise NotImplementedError

    def score(self, rep_dir, stdout):
        raise NotImplementedError

    def steps(self, rep_dir):
        raise NotImplementedError


class Decompose(Workload):
    name = "decompose"
    command = "decompose"
    why = ("4 seeds of projected SGD through the cli thread pool: the step path "
           "(project, simple sampler, noise) does almost all the work")

    full = {"d": 10, "seeds": 4, "iters": 10000}
    small = {"d": 4, "seeds": 2, "iters": 2000}

    def setup(self, ss, seed):
        rng = ss.sgd.run_rng(seed)
        basis = ss.OrthoBasis.random(self.params["d"], rng)
        T = ss.make_orthogonal_tensor(basis)
        problem = ss.correlation_objective(T, basis=basis, halved=True)
        sampler = ss.SimpleSampler(basis, kind="correlation")
        return problem, sampler, problem.random_feasible(rng)

    def score(self, rep_dir, stdout):
        n_seeds = self.params["seeds"]
        try:
            rows = _read_csv(os.path.join(self.run_dir(rep_dir), "summary.csv"))
        except OSError:
            return Score(n_seeds, n_seeds, "summary.csv missing")
        bad = [r["seed"] for r in rows
               if int(r["diverged"]) or not float(r["final_recon_error"]) < RECON_ERROR_BOUND]
        missing = max(0, n_seeds - len(rows))
        return Score(n_seeds, len(bad) + missing, f"failed seeds {bad}" if bad else "")

    def steps(self, rep_dir):
        rows = _read_csv(os.path.join(self.run_dir(rep_dir), "summary.csv"))
        return sum(int(r["n_steps"]) for r in rows)


class Ica(Workload):
    name = "ica"
    command = "ica"
    why = ("one seed of 100-sample mini-batch SGD: the IcaSampler oracle dominates "
           "and no pool or batching applies")

    full = {"d": 10, "batch": 100, "seeds": 1}
    small = {"d": 4, "batch": 20, "seeds": 1, "iters": 2500}

    def setup(self, ss, seed):
        rng = ss.sgd.run_rng(seed)
        model = ss.IcaModel.random(self.params["d"], rng)
        basis = model.component_basis()
        T = ss.make_orthogonal_tensor(basis)
        problem = ss.correlation_objective(T, basis=basis, halved=True)
        sampler = ss.IcaSampler(model, batch_size=self.params["batch"])
        return problem, sampler, problem.random_feasible(rng)

    def score(self, rep_dir, stdout):
        try:
            rows = _read_csv(os.path.join(self.run_dir(rep_dir), "summary.csv"))
        except OSError:
            return Score(2, 2, "summary.csv missing")
        if len(rows) != 1:
            return Score(2, 2, f"expected one summary row, got {len(rows)}")
        r = rows[0]
        failed = 2 * int(r["diverged"])
        ratio = float(r["plateau_range"]) / float(r["plateau_mean"])
        info = (f"test 08 quantities: plateau range / mean = {ratio:.3f} (want < {PLATEAU_RANGE_FRACTION}),"
                f" improved = {r['improved']} (want 1)")
        return Score(2, failed, f"summary row {r}" if failed else "", info)

    def steps(self, rep_dir):
        total = 0
        run_dir = self.run_dir(rep_dir)
        for name in os.listdir(run_dir):
            if name.startswith("seed") and name.endswith(".csv"):
                total += int(_read_csv(os.path.join(run_dir, name))[-1]["iter"])
        return total


class Certify(Workload):
    name = "certify"
    command = "verify"
    why = ("the verify battery: the d=2 minima census and its polish dominate, "
           "so per-call Python and LAPACK overhead at tiny n sets the time")
    writes_files = False

    full = {"d": 4}
    small = {"d": 2}

    def compared_files(self, rep_dir):
        return [os.path.join(rep_dir, "stdout.txt")]

    def setup(self, ss, seed):
        import numpy as np

        d = self.params["d"]
        basis = ss.OrthoBasis.random(d, np.random.default_rng(seed))
        T = ss.make_orthogonal_tensor(basis)
        return (ss.maxeig_objective(T, basis=basis),
                ss.reconstruction_objective(T, basis=basis),
                ss.correlation_objective(T, basis=basis, halved=True))

    def score(self, rep_dir, stdout):
        lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS ", "FAIL "))]
        failed = sum(ln.startswith("FAIL ") for ln in lines)
        missing = max(0, VERIFY_CHECKS - len(lines))
        bad = [ln for ln in lines if ln.startswith("FAIL ")]
        return Score(max(VERIFY_CHECKS, len(lines)), failed + missing,
                     "; ".join(bad) + (f" {missing} checks missing" if missing else ""))

    def steps(self, rep_dir):
        # the census size is fixed inside run_checks; verify prints no step count
        return CENSUS_STEPS


class Escape(Workload):
    name = "escape"
    command = "escape"
    why = ("1000 early-stopping trials on one 40-dim sphere: its own SGD loop, and "
           "the only set-up with a large dense tensor (40^4) and symmetry check")

    full = {"d": 40, "trials": 1000, "iters": 2000}
    small = {"d": 6, "trials": 20, "iters": 2000}

    def setup(self, ss, seed):
        rng = ss.sgd.run_rng(seed)
        basis = ss.OrthoBasis.random(self.params["d"], rng)
        T = ss.make_orthogonal_tensor(basis)
        return ss.maxeig_objective(T, basis=basis)

    def _rows(self, rep_dir):
        return _read_csv(os.path.join(self.run_dir(rep_dir), "escape.csv"))

    def score(self, rep_dir, stdout):
        trials = self.params["trials"]
        try:
            rows = self._rows(rep_dir)
        except OSError:
            return Score(trials, trials, "escape.csv missing")
        stuck = sum(int(r["steps"]) < 0 for r in rows)
        missing = max(0, trials - len(rows))
        return Score(trials, stuck + missing, f"{stuck} trials never escaped" if stuck else "")

    def steps(self, rep_dir):
        # a trial that never escapes runs the whole budget
        budget = self.params["iters"]
        return sum(budget if int(r["steps"]) < 0 else int(r["steps"]) for r in self._rows(rep_dir))


WORKLOADS = {w.name: w for w in (Decompose, Ica, Certify, Escape)}


def get(name, smoke=False):
    return WORKLOADS[name](smoke=smoke)
