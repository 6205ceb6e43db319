"""Acceptance battery.

Each test verifies one headline guarantee of the library end to end, at
its stated tolerance, and prints a single PASS/FAIL line (visible with
pytest -s or on failure).  Tolerances and budgets are asserted exactly
as documented in the README; nothing here is tuned per machine.
"""

import itertools
import os
import time

import numpy as np

from strictsaddle.analysis import (
    SignedPermutationMatcher,
    coupling_check,
    derivative_check,
    enumerate_minima,
    escape_statistics,
    geometry_check,
    ica_unbiasedness_check,
    multiplier_check,
    pairing_expectation_check,
)
from strictsaddle.cli import ExperimentConfig, main, seed_start
from strictsaddle.manifold import SphereProduct, min_tangent_eig
from strictsaddle.objectives import (
    correlation_multipliers_coords,
    correlation_objective,
    maxeig_multiplier_coords,
    maxeig_objective,
)
from strictsaddle.sgd import SgdConfig, projected_noisy_sgd, projected_trials
from strictsaddle.tensor4 import OrthoBasis


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def make_problems(d, rng):
    basis = OrthoBasis.random(d, rng)
    return basis, maxeig_objective(basis=basis), correlation_objective(basis=basis, halved=True)


def test_01_derivatives_match_finite_differences():
    """Tangent gradient and Lagrangian Hessian vs finite differences,
    50 random feasible points per problem, d in {2,3,5}, rel err <= 1e-5."""
    t0 = time.time()
    worst = 0.0
    for d in (2, 3, 5):
        rng = np.random.default_rng(100 + d)
        _, maxeig, corr = make_problems(d, rng)
        for prob in (maxeig, corr):
            chi_err, m_err = derivative_check(prob, 50, rng)
            worst = max(worst, chi_err, m_err)
    elapsed = time.time() - t0
    report("analytic-derivatives", worst <= 1e-5 and elapsed < 10.0,
           f"worst rel err {worst:.2e} (tol 1e-5), {elapsed:.1f}s (budget 10s)")


def test_02_closed_form_multipliers():
    """Closed-form Lagrange multipliers vs the pseudo-inverse solve,
    100 random feasible points per problem, abs err <= 1e-8."""
    worst = 0.0
    for d in (3, 5):
        rng = np.random.default_rng(200 + d)
        basis, maxeig, corr = make_problems(d, rng)
        err_me = multiplier_check(
            maxeig, lambda w: maxeig_multiplier_coords(basis.vectors @ w), 100, rng)
        err_co = multiplier_check(
            corr, lambda w: correlation_multipliers_coords(w.reshape(d, d) @ basis.vectors.T),
            100, rng)
        worst = max(worst, err_me, err_co)
    report("closed-form-multipliers", worst <= 1e-8, f"worst abs err {worst:.2e} (tol 1e-8)")


def test_03_sign_pairing_expectation_exact():
    """Exhaustive mean of the pairing form over all sign vectors equals
    the orthogonal tensor's form, d in {1,2,3,4}, err <= 1e-12."""
    worst = 0.0
    for d in (1, 2, 3, 4):
        worst = max(worst, pairing_expectation_check(d, 5, np.random.default_rng(300 + d)))
    report("pairing-expectation", worst <= 1e-12, f"worst err {worst:.2e} (tol 1e-12)")


def test_04_ica_gradient_unbiased():
    """Exhaustive mean of the stochastic mixing-recovery gradient equals
    the analytic correlation gradient, d in {2,3}, err <= 1e-10."""
    worst = 0.0
    for d in (2, 3):
        worst = max(worst, ica_unbiasedness_check(d, 5, np.random.default_rng(400 + d)))
    report("ica-unbiasedness", worst <= 1e-10, f"worst err {worst:.2e} (tol 1e-10)")


def test_05_saddle_curvature_constants():
    """Every balanced p-support stationary point (p >= 2) for d in
    {2..10} has tangent curvature <= -7/d, and every signed basis vector
    has tangent curvature >= 3.  Tolerance 1e-9 on exact eigensolves,
    one stacked eigensolve for the saddles of each d and one for its
    signed basis vectors."""
    worst_saddle, worst_min, n_saddles = 0.0, np.inf, 0
    for d in range(2, 11):
        basis = OrthoBasis.standard(d)
        prob = maxeig_objective(basis=basis)
        saddles = []
        for p in range(2, d + 1):
            for support in itertools.combinations(range(d), p):
                for signs in itertools.product((1.0, -1.0), repeat=p):
                    w = np.zeros(d)
                    w[list(support)] = np.array(signs) / np.sqrt(p)
                    saddles.append(w)
        eigs, _ = min_tangent_eig(prob, np.array(saddles))
        worst_saddle = max(worst_saddle, float(np.max(eigs + 7.0 / d)))
        n_saddles += len(saddles)
        eigs, _ = min_tangent_eig(prob, np.concatenate([basis.vectors, -basis.vectors]))
        worst_min = min(worst_min, float(np.min(eigs)))
    ok = worst_saddle <= 1e-9 and worst_min >= 3.0 - 1e-9
    report("saddle-curvature", ok,
           f"{n_saddles} saddles, worst eig+7/d {worst_saddle:.2e} (<= 0), "
           f"min eig at minima {worst_min:.6f} (>= 3)")


def test_06_census_finds_all_eight_minima():
    """200 multi-starts on the d=2 pairwise-correlation problem find
    exactly 8 distinct minima, all within 1e-4 of signed permutations,
    each with tangent curvature >= 1."""
    basis = OrthoBasis.standard(2)
    prob = correlation_objective(basis=basis, halved=True)
    config = SgdConfig(eta=0.05, iterations=1200, noise_scale=0.5, seed=0, record_every=1200)
    catalog = enumerate_minima(prob, 200, config)
    matcher = SignedPermutationMatcher(basis)
    dists = [matcher.nearest(e.point)[1] for e in catalog.entries]
    eigs = [e.min_eig for e in catalog.entries]
    ok = len(catalog) == 8 and max(dists) <= 1e-4 and min(eigs) >= 1.0
    report("minima-census", ok,
           f"{len(catalog)} minima (want 8), max dist {max(dists):.2e} (tol 1e-4), "
           f"min eig {min(eigs):.3f} (>= 1)")


def test_07_decomposition_converges_across_seeds():
    """d=10 correlation objective with the simple sampler: normalized
    reconstruction error < 1e-2 within 1e4 iterations for >= 9 of 10
    seeds, under 2 minutes total."""
    t0 = time.time()
    cfg = ExperimentConfig(d=10, n_seeds=10, iters=10_000, eta=0.01, noise=1.0, record_every=10_000)
    records = projected_trials(10, seed_start(cfg), cfg.sgd_config())
    errs = [float(rec.recon_errors[-1]) for rec in records]
    elapsed = time.time() - t0
    n_ok = sum(e < 1e-2 for e in errs)
    report("decomposition-convergence", n_ok >= 9 and elapsed < 120.0,
           f"{n_ok}/10 seeds below 1e-2 (worst {max(errs):.2e}), {elapsed:.1f}s (budget 120s)")


def test_08_annealing_beats_constant_plateau(tmp_path):
    """Mixing-matrix recovery, mini-batch 100: the constant-step trace
    plateaus (trailing-window range < 50% of its mean) and the decaying
    schedule ends strictly below that plateau for >= 8 of 10 seeds."""
    out = tmp_path / "ica"
    rc = main(["ica", "--d", "10", "--iters", "10000", "--eta", "0.01",
               "--batch", "100", "--seeds", "10", "--out", str(out)])
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    joint = 0
    for row in rows:
        _, pm, pr, _, _, improved, _ = row.split(",")
        joint += int(improved == "1" and float(pr) < 0.5 * float(pm))
    report("annealing-improvement", rc == 0 and len(rows) == 10 and joint >= 8,
           f"{joint}/10 seeds plateau and improve (need 8)")


def test_09_saddle_stasis_and_noisy_escape():
    """From the exact two-component saddle at d=10, noiseless descent
    does not move (1e-12 over 1e3 steps) while noisy SGD decreases f by
    >= 0.05 within 1e4 steps in >= 95 of 100 trials."""
    basis = OrthoBasis.standard(10)
    prob = maxeig_objective(basis=basis)
    saddle = (basis.vectors[0] + basis.vectors[1]) / np.sqrt(2.0)

    still = SgdConfig(eta=0.01, iterations=1000, noise_scale=0.0, seed=0, record_every=1)
    rec = projected_noisy_sgd(prob, None, saddle, still)
    drift = float(np.linalg.norm(rec.final_point - saddle))

    noisy = SgdConfig(eta=0.01, iterations=10_000, noise_scale=1.0, seed=0, record_every=10_000)
    stats = escape_statistics(prob, saddle, 100, noisy, threshold=0.05)
    ok = drift <= 1e-12 and stats["escape_fraction"] >= 0.95
    report("saddle-escape", ok,
           f"noiseless drift {drift:.1e} (tol 1e-12), "
           f"escaped {100 * stats['escape_fraction']:.0f}/100 (need 95), "
           f"median steps {stats['median_steps']}")


def test_10_coupling_closed_form_exact():
    """Closed-form quadratic-SGD gradient and displacement vs the step
    simulation with a shared noise stream: 20 instances, d=5, t=500,
    componentwise err <= 1e-10."""
    worst = coupling_check(20, 5, 500, 0.01, seed=0)
    report("coupling-exactness", worst <= 1e-10, f"worst err {worst:.2e} (tol 1e-10)")


def test_11_geometry_bounds_hold():
    """Sphere-product geometry inequalities over 1e4 random feasible
    pairs and directions with steps {1e-1, 1e-2, 1e-3}: zero violations."""
    res = geometry_check(SphereProduct(3, 6), 10_000, (1e-1, 1e-2, 1e-3),
                         np.random.default_rng(1100))
    worst = max(res["margins"].values())
    report("geometry-bounds", res["total_violations"] == 0,
           f"{res['total_violations']} violations over 10000 pairs, "
           f"worst margin {worst:.2e} (<= 0 when slack remains)")
