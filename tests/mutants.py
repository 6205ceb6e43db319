"""Mutation check: each listed source edit must make a named test fail.

For every mutant the script copies ``src/`` and ``tests/`` to a temporary
directory, applies the mutant's edit there (an exact text replacement
that must match the source once), and runs the mutant's tests on the
copy, on the hypothesis profile ``mutants`` (``tests/conftest.py``), which
does not shrink a failing example.  A mutant is caught when at least one
of its tests fails.  First the same tests run on an unmutated copy, and
must pass.  The repository itself is never edited.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

Prints one line per mutant, then the caught/total count per module and
overall.  Exits 0 when every mutant is caught, 1 when one is missed, and
2 when an edit no longer matches the source (STALE) or the tests fail
unmutated.  A mutant's tests get twice as long as the unmutated run of
every mutant's tests took, plus a minute; a mutant that makes them run
longer (a loop that never ends) counts as caught, marked ``(timeout)``.
An unmutated run that takes over CONTROL_TIMEOUT_S exits 2.
It runs outside the tier-1 suite: each mutant costs one pytest run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTROL_TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


_DIVERGENCE_TEST = """\
        if not np.einsum("ij,ij->", W, W) <= DIVERGENCE_LIMIT**2:
            bad = ~(row_norms(W) <= DIVERGENCE_LIMIT)
            if bad.any():
                leave(bad, t, lambda i: f"iterate diverged at step {t}")
"""
_PROJECTION = """\
        if constraints is not None:
            try:
                W = constraints.project(W)
            except ValueError:
                bad = ~(constraints.block_norms(W).min(axis=-1) >= manifold.DEGENERATE_BLOCK_NORM)
                leave(bad, t, lambda i: f"degenerate projection at step {t}")
                W = constraints.project(W)
"""
_ORACLE_CALL = "sg = oracle.gradient(W, samples[rows, c])"

MUTANTS = [
    Mutant("divergence-test-after-projection", "src/strictsaddle/sgd.py",
           _DIVERGENCE_TEST + _PROJECTION, _PROJECTION + _DIVERGENCE_TEST,
           ("tests/test_sgd.py::TestNoisySgd::test_overflowing_projected_step_diverges",
            "tests/test_cli.py::TestDivergedRuns")),
    Mutant("flipped-json-margin", "src/strictsaddle/cli.py",
           '"margin": float(r.tolerance - r.value)', '"margin": float(r.value - r.tolerance)',
           ("tests/test_cli.py::TestVerify::test_json_report_holds_every_margin",)),
    Mutant("per-row-oracle-calls", "src/strictsaddle/sgd.py", _ORACLE_CALL,
           "sg = np.concatenate([oracle.gradient(W[i : i + 1], samples[rows, c][i : i + 1])"
           " for i in range(ids.size)])",
           ("tests/test_sgd.py::TestStackedTrials::test_one_oracle_call_per_step_on_the_whole_stack",)),
    Mutant("every-row-draws-from-row-0-sampler", "src/strictsaddle/sgd.py",
           "samplers[i].fill(", "samplers[0].fill(",
           ("tests/test_sgd.py::TestStackedTrials::test_row_equals_single_trial",
            "tests/test_cli.py::TestDecompose::test_seed_trace_same_alone_or_in_batch")),
    Mutant("cross-vectors-sign-flip", "src/strictsaddle/objectives.py",
           'return np.einsum("...ij,jk->...ik", rest * x, self.basis.vectors)',
           'return -np.einsum("...ij,jk->...ik", rest * x, self.basis.vectors)',
           ("tests/test_objectives.py::TestStacks::test_basis_path_matches_dense_oracle",)),
    Mutant("basis-recon-error-coefficient", "src/strictsaddle/tensor4.py",
           "return (d - 2.0 * cross + ss) / d", "return (d - 1.0 * cross + ss) / d",
           ("tests/test_objectives.py::TestStacks::test_basis_path_matches_dense_oracle",
            "tests/test_golden.py")),
    Mutant("matcher-farthest-permutation", "src/strictsaddle/analysis.py",
           "perm = max(itertools.permutations(range(d))", "perm = min(itertools.permutations(range(d))",
           ("tests/test_analysis.py::TestMatchers::test_signed_permutation_matcher_exact",)),
    Mutant("stop-untested-at-start", "src/strictsaddle/sgd.py",
           "if stop is not None or t == config.iterations:", "if stop is not None and t > 0 or t == config.iterations:",
           ("tests/test_analysis.py::TestCatalog::test_polish_matches_loop_oracle",
            "tests/test_sgd.py::TestStackedTrials::test_stop_predicate_ends_a_row_at_its_step")),
    Mutant("held-evaluation-keeps-leaving-rows", "src/strictsaddle/sgd.py",
           "held = tuple(column[keep] for column in held)", "held = tuple(column[: ids.size] for column in held)",
           ("tests/test_sgd.py::TestStackedTrials::test_row_equals_single_trial",)),
    Mutant("quadratic-drops-oracle-bound", "src/strictsaddle/objectives.py",
           "        self.oracle_bound = oracle_bound\n", "",
           ("tests/test_sgd.py::TestNoiseBound::test_violation_raises",)),
    Mutant("noise-blocks-refilled-from-row-0", "src/strictsaddle/sgd.py",
           "rng.standard_normal(out=noise[i])", "rngs[0].standard_normal(out=noise[i])",
           ("tests/test_sgd.py::TestNoise::test_degenerate_draw_gives_zero_noise",
            "tests/test_sgd.py::TestStackedTrials::test_buffered_noise_equals_per_step_draws")),
    # a degenerate draw is divided by its own tiny norm: a unit vector (or
    # nan for an exact zero) instead of zero noise
    Mutant("degenerate-draw-kept", "src/strictsaddle/sgd.py",
           "    x[small[..., 0]] = 0.0\n    norms[small] = 1.0\n", "",
           ("tests/test_sgd.py::TestNoise::test_degenerate_draw_gives_zero_noise",
            "tests/test_sgd.py::TestStackedTrials::test_degenerate_draws_give_zero_noise_in_stream_order",
            "tests/test_analysis.py::TestChecks::test_geometry_check_zeroes_degenerate_directions")),
    Mutant("multipliers-denominator-factor", "src/strictsaddle/manifold.py",
           "/ (2.0 * ss)", "/ ss",
           ("tests/test_manifold.py::TestSphereProductProperties::test_closed_form_multipliers_match_lstsq",
            "tests/test_acceptance.py::test_02_closed_form_multipliers")),
    Mutant("geometry-drift-projections-swapped", "src/strictsaddle/analysis.py",
           'note("tangent_drift", row_norms(constraints.normal_project(w0[kept], v)), dist[kept])',
           'note("tangent_drift", row_norms(constraints.tangent_project(w0[kept], v)), dist[kept])',
           ("tests/test_analysis.py::TestChecks::test_geometry_check_matches_pair_loop",)),
    Mutant("recon-from-row-0-problem", "src/strictsaddle/sgd.py",
           "problems[i].recon_error(W[i])", "problems[0].recon_error(W[i])",
           ("tests/test_sgd.py::TestStackedTrials::test_row_equals_single_trial",
            "tests/test_cli.py::TestDecompose::test_seed_trace_same_alone_or_in_batch")),
    Mutant("tangent-mask-by-entry", "src/strictsaddle/manifold.py",
           "np.arange(constraints.n) // constraints.k", "np.arange(constraints.n) % constraints.k",
           ("tests/test_manifold.py::TestSphereProductProperties::test_tangent_basis_and_curvature",)),
    Mutant("ica-gram-term-coefficient", "src/strictsaddle/ica.py",
           "term2 = 2.0 * (", "term2 = 1.0 * (",
           ("tests/test_ica.py::TestIcaGradient::test_exhaustive_unbiasedness",
            "tests/test_ica.py::TestMinibatch::test_single_sample_batch_is_exact")),
    # a last-bit change: only the byte-for-byte golden comparison sees it
    Mutant("ica-maxeig-cube-by-power", "src/strictsaddle/ica.py",
           "np.float_power(np.vecdot(u, x), 3)", "np.vecdot(u, x) ** 3",
           ("tests/test_golden.py::test_command_reproduces_golden[decompose-maxeig]",)),
    # the raw-word fill of SimpleSampler: the spare 32-bit half is the high
    # half of the word, the fill leaves it in the bit generator, and two
    # steps share one normals call only when the second index takes no new word
    Mutant("ica-spare-half-from-low-bits", "src/strictsaddle/ica.py",
           "u, spare, has = w & 0xFFFFFFFF, w >> 32, 1", "u, spare, has = w & 0xFFFFFFFF, w & 0xFFFFFFFF, 1",
           ("tests/test_ica.py::TestSimpleSampler::test_fill_equals_per_step_pairs",
            "tests/test_golden.py")),
    # both samplers' fills hand the held half back through one helper
    Mutant("ica-spare-flag-not-written-back", "src/strictsaddle/ica.py",
           "        bitgen.state = state\n", "",
           ("tests/test_ica.py::TestSimpleSampler::test_fill_equals_per_step_pairs",
            "tests/test_ica.py::TestIcaSampler::test_fill_equals_per_step_pairs")),
    Mutant("ica-normals-merged-past-a-rejected-spare", "src/strictsaddle/ica.py",
           "if has and j + 1 < h and (spare * d) & 0xFFFFFFFF >= below:", "if has and j + 1 < h:",
           ("tests/test_ica.py::TestSimpleSampler::test_fill_redraws_rejected_halves",)),
    # the raw-word fill of IcaSampler: a sign is bit 31 of a 32-bit half,
    # the held spare half is the first of a step's halves, and the last half
    # a step takes is the one the fill hands back
    Mutant("ica-sign-from-low-bit", "src/strictsaddle/ica.py",
           "(halves[:count] >> 31)", "(halves[:count] & 1)",
           ("tests/test_ica.py::TestIcaSampler::test_fill_equals_per_step_pairs",)),
    Mutant("ica-spare-half-put-last", "src/strictsaddle/ica.py",
           "np.append(np.uint32(spare), words)", "np.append(words, np.uint32(spare))",
           ("tests/test_ica.py::TestIcaSampler::test_fill_equals_per_step_pairs",)),
    Mutant("ica-new-spare-not-written-back", "src/strictsaddle/ica.py",
           "spare, has = int(halves[-1]), halves.size - count", "has = halves.size - count",
           ("tests/test_ica.py::TestIcaSampler::test_fill_equals_per_step_pairs",)),
    # the exit-code contract: an exit 2 removes the output directory it made
    Mutant("refused-run-keeps-its-output", "src/strictsaddle/cli.py",
           "        shutil.rmtree(made, ignore_errors=True)\n", "        pass\n",
           ("tests/test_cli.py::TestBadInput::test_refused_allocation_exits_2_without_output",)),
    # seed s's generator draws the start before the basis
    Mutant("seed-start-drawn-before-basis", "src/strictsaddle/cli.py",
           "        basis = tensor4.OrthoBasis.random(config.d, rng)\n"
           "        problem = build_problem(config, basis)\n"
           "        sampler = build_sampler(config, basis)\n"
           "        return problem.random_feasible(rng), rng, problem, sampler\n",
           "        w0 = build_problem(config, tensor4.OrthoBasis.standard(config.d)).random_feasible(rng)\n"
           "        basis = tensor4.OrthoBasis.random(config.d, rng)\n"
           "        problem = build_problem(config, basis)\n"
           "        sampler = build_sampler(config, basis)\n"
           "        return w0, rng, problem, sampler\n",
           ("tests/test_golden.py::test_command_reproduces_golden[decompose-correlation]",
            "tests/test_golden.py::test_command_reproduces_golden[decompose-maxeig]")),
    # a refused SgdConfig setting is named by its field, not by its flag
    Mutant("sgd-error-names-the-field", "src/strictsaddle/cli.py",
           "{_SGD_NAMES.get(name, name)} {rest}", "{name} {rest}",
           ("tests/test_cli.py::TestConfigHandling::test_validation_errors_exit_2",)),
    # rows with their own problems take G alone one row at a time
    Mutant("per-row-gradient-from-row-0", "src/strictsaddle/sgd.py",
           "problem.gradient(W[i : i + 1]) for i, problem", "problems[0].gradient(W[i : i + 1]) for i, problem",
           ("tests/test_sgd.py::TestStackedTrials::test_row_equals_single_trial",)),
    # a split block: each worker's generators come back, every part refills
    # at the whole block's height and the parts' records keep trial order
    Mutant("split-states-not-written-back", "src/strictsaddle/sgd.py",
           "rng.bit_generator.state = state", "pass",
           ("tests/test_sgd.py::TestSplitBlocks::test_split_equals_unsplit",)),
    Mutant("split-part-own-height", "src/strictsaddle/sgd.py",
           "_part, starts[lo:hi], config, stop, len(starts))", "_part, starts[lo:hi], config, stop, hi - lo)",
           ("tests/test_sgd.py::TestSplitBlocks::test_split_equals_unsplit",)),
    Mutant("split-records-out-of-order", "src/strictsaddle/sgd.py",
           "records += part_records", "records = part_records + records",
           ("tests/test_sgd.py::TestSplitBlocks::test_split_equals_unsplit",)),
    # a producer-drawn run: each row's generator comes back at its state
    # after the last block that row read, not where the producer stopped
    Mutant("producer-states-not-written-back", "src/strictsaddle/sgd.py",
           "self.rngs[i].bit_generator.state = states[self.last[i] - 1][i]", "pass",
           ("tests/test_sgd.py::TestDrawAhead::test_producer_equals_in_process",)),
    Mutant("departed-row-gets-full-budget-state", "src/strictsaddle/sgd.py",
           "states[self.last[i] - 1][i]", "states[-1][i]",
           ("tests/test_sgd.py::TestDrawAhead::test_producer_equals_in_process",)),
    Mutant("csv-float-format", "src/strictsaddle/sgd.py",
           "repr(float(v)) if isinstance(v, float)", 'f"{float(v):.6g}" if isinstance(v, float)',
           ("tests/test_sgd.py::TestCsv::test_write_csv_cells", "tests/test_golden.py")),
]


def _copy(workdir):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(REPO, name), os.path.join(workdir, name), ignore=ignore)
    shutil.copy(os.path.join(REPO, "pyproject.toml"), workdir)


def _pytest(tests, mutant=None, timeout=CONTROL_TIMEOUT_S):
    """Run ``tests`` on a copy with ``mutant`` applied: "passed", "failed" or
    "timeout" (still running after ``timeout`` seconds), or None when the
    mutant's edit does not match the source once."""
    with tempfile.TemporaryDirectory() as workdir:
        _copy(workdir)
        if mutant is not None:
            path = os.path.join(workdir, mutant.path)
            with open(path) as fh:
                text = fh.read()
            if text.count(mutant.old) != 1:
                return None
            with open(path, "w") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"))
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                                   "--hypothesis-profile=mutants", *tests],
                                  cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout"
    # pytest exits 1 when a test failed; any other code means the run itself broke
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode} on {tests}\n{proc.stdout}{proc.stderr}")
    return "passed" if proc.returncode == 0 else "failed"


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    control = sorted({test for m in chosen for test in m.tests})
    began = time.perf_counter()
    unmutated = _pytest(control)
    if unmutated != "passed":
        print(f"the named tests {'fail' if unmutated == 'failed' else 'time out'} without any mutant;"
              " nothing can be checked", file=sys.stderr)
        return 2
    timeout = 2 * (time.perf_counter() - began) + 60
    outcomes = []
    for mutant in chosen:
        ran = _pytest(mutant.tests, mutant, timeout)
        outcomes.append({None: "STALE", "passed": "MISSED", "failed": "caught", "timeout": "caught"}[ran])
        print(f"{outcomes[-1]:7} {mutant.name}{' (timeout)' if ran == 'timeout' else ''}", flush=True)
    for path in sorted({m.path for m in chosen}):
        mine = [outcome for m, outcome in zip(chosen, outcomes) if m.path == path]
        print(f"{mine.count('caught')}/{len(mine)} caught in {os.path.basename(path)}")
    print(f"{outcomes.count('caught')}/{len(chosen)} mutants caught")
    if "STALE" in outcomes:
        return 2
    return 0 if outcomes.count("caught") == len(chosen) else 1

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
