"""Tests for the verification engine: oracles, census, escape, coupling."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import AxisMatcher
from test_sgd import single_run
from strictsaddle.analysis import (
    CheckResult,
    MinimaCatalog,
    SignedPermutationMatcher,
    coupling_check,
    coupling_closed_form,
    derivative_check,
    enumerate_minima,
    escape_statistics,
    exhaustive_sign_vectors,
    fd_gradient,
    fd_hessian,
    geometry_check,
    ica_unbiasedness_check,
    pairing_expectation_check,
    polish,
    run_checks,
    simple_sampler_check,
)
from strictsaddle import analysis, ica, objectives, sgd, tensor4
from strictsaddle.manifold import SphereProduct, tangent_gradient
from strictsaddle.objectives import (
    ConstrainedProblem,
    correlation_objective,
    maxeig_objective,
    reconstruction_objective,
)
from strictsaddle.sgd import (
    RecordedPerturbations,
    SgdConfig,
    projected_trials,
    row_norms,
    trial_rng,
    unit_sphere_noise,
)
from strictsaddle.objectives import QuadraticObjective
from strictsaddle.tensor4 import OrthoBasis, basis_coords


def standard_maxeig(d):
    basis = OrthoBasis.standard(d)
    return maxeig_objective(basis=basis), basis


def standard_correlation(d):
    basis = OrthoBasis.standard(d)
    return correlation_objective(basis=basis, halved=True), basis


FACTORIES = {
    "maxeig": lambda basis: maxeig_objective(basis=basis),
    "reconstruction": lambda basis: reconstruction_objective(basis=basis),
    "correlation": lambda basis: correlation_objective(basis=basis, halved=True),
}


def min_pairwise_distance(catalog):
    return min(np.linalg.norm(a.point - b.point) for a, b in itertools.combinations(catalog.entries, 2))


# ------------------------------------------------------------------ #
# Finite differences                                                   #
# ------------------------------------------------------------------ #


def loop_fd_gradient(f, w):
    """One-point-at-a-time oracle for the stacked fd_gradient."""
    h = 1e-5 * max(1.0, float(np.linalg.norm(w)))
    g = np.empty(w.size)
    for i in range(w.size):
        e = np.zeros(w.size)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def loop_fd_hessian(f, w):
    """One-point-at-a-time oracle for the stacked fd_hessian."""
    h = 1e-4 * max(1.0, float(np.linalg.norm(w)))
    n = w.size
    H = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            val = (f(w + ei + ej) - f(w + ei - ej) - f(w - ei + ej) + f(w - ei - ej)) / (4.0 * h * h)
            H[i, j] = val
            H[j, i] = val
    return 0.5 * (H + H.T)


class TestFiniteDifferences:
    def test_gradient_of_squared_norm(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(5)
        got = fd_gradient(lambda v: np.einsum("...i,...i->...", v, v), w)
        np.testing.assert_allclose(got, 2.0 * w, atol=1e-8)

    def test_hessian_of_linear_function(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4)
        w = rng.standard_normal(4)
        got = fd_hessian(lambda v: np.einsum("...i,i->...", v, a), w)
        np.testing.assert_allclose(got, np.zeros((4, 4)), atol=1e-8)

    def test_hessian_of_quadratic(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        H = A + A.T
        got = fd_hessian(lambda v: 0.5 * np.einsum("...i,ij,...j->...", v, H, v), rng.standard_normal(3))
        np.testing.assert_allclose(got, H, atol=1e-5)

    @pytest.mark.parametrize("fd", [fd_gradient, fd_hessian])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_differences_raise(self, fd, bad):
        # inf - inf in the stencil is the nan the check must catch
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite values in finite"):
            fd(lambda v: np.where(v[..., 0] > 0.5, bad, 0.0), np.full(3, 0.5))

    @pytest.mark.parametrize("build", [maxeig_objective, reconstruction_objective, correlation_objective])
    def test_stacked_equal_loop(self, build):
        """Stacked finite differences equal the one-point loop bit for bit;
        d=12 gives the gradient more points than one stack holds."""
        for d in (1, 2, 3, 4, 12):
            basis = OrthoBasis.random(d, np.random.default_rng(d))
            prob = build(basis=basis)
            w = prob.random_feasible(np.random.default_rng(50 + d))
            np.testing.assert_array_equal(fd_gradient(prob.value, w), loop_fd_gradient(prob.value, w))
            if d <= 4:
                np.testing.assert_array_equal(fd_hessian(prob.value, w), loop_fd_hessian(prob.value, w))


# ------------------------------------------------------------------ #
# Matchers                                                             #
# ------------------------------------------------------------------ #


class TestMatchers:
    def test_axis_matcher(self):
        basis = OrthoBasis.standard(3)
        matcher = AxisMatcher(basis)
        cand, dist = matcher.nearest(np.array([0.1, -0.99, 0.05]))
        np.testing.assert_array_equal(cand, [0.0, -1.0, 0.0])
        assert dist == np.linalg.norm(np.array([0.1, 0.01, 0.05]))

    def test_signed_permutation_matcher_exact(self):
        basis = OrthoBasis.random(4, np.random.default_rng(3))
        matcher = SignedPermutationMatcher(basis)
        target = (basis.vectors[[2, 0, 3, 1]] * np.array([[1.0], [-1.0], [-1.0], [1.0]])).ravel()
        cand, dist = matcher.nearest(target)
        assert dist == 0.0
        np.testing.assert_array_equal(cand, target)

    def test_signed_permutation_matcher_perturbed(self):
        basis = OrthoBasis.standard(2)
        matcher = SignedPermutationMatcher(basis)
        target = np.array([[0.0, 1.0], [-1.0, 0.0]])
        w = (target + 1e-3 * np.array([[0.2, 0.1], [-0.3, 0.4]])).ravel()
        cand, dist = matcher.nearest(w)
        np.testing.assert_array_equal(cand, target.ravel())
        assert dist <= 1e-2

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           noise=st.one_of(st.none(), st.sampled_from([0.0, 1e-8, 1e-3, 0.1, 0.5, 2.0])))
    def test_signed_permutation_matcher_matches_assignment_oracle(self, d, seed, noise):
        """The d! enumeration agrees with the Hungarian method it replaced,
        on random feasible points (noise None) and on perturbed signed
        permutations of the basis: the same distance, and the same nearest
        point wherever the best permutation is unique."""
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = np.random.default_rng(seed)
        basis = OrthoBasis.random(d, rng)
        problem = correlation_objective(basis=basis, halved=True)
        if noise is None:
            w = problem.random_feasible(rng)
        else:
            signs = rng.choice([-1.0, 1.0], size=(d, 1))
            U = signs * basis.vectors[rng.permutation(d)] + noise * rng.standard_normal((d, d))
            w = problem.constraints.project(U.ravel())
        corr = w.reshape(d, d) @ basis.vectors.T
        rows, cols = linear_sum_assignment(-np.abs(corr))
        want = (np.copysign(1.0, corr[rows, cols])[:, None] * basis.vectors[cols]).ravel()

        cand, dist = SignedPermutationMatcher(basis).nearest(w)
        assert dist == pytest.approx(float(np.linalg.norm(w - want)), rel=1e-12, abs=1e-12)
        scores = sorted(np.abs(corr[np.arange(d), p]).sum() for p in itertools.permutations(range(d)))
        if d == 1 or scores[-1] - scores[-2] > 1e-9:
            np.testing.assert_array_equal(cand, want)


# ------------------------------------------------------------------ #
# Catalog and polish                                                   #
# ------------------------------------------------------------------ #


def loop_polish(problem, w):
    """Oracle for polish: a plain loop of projected descent steps of 0.02,
    at most 500, each row stopping before a step once ||chi|| <= 1e-11."""
    W = np.array(w, dtype=float)
    rows = W.reshape(-1, W.shape[-1])
    active = np.arange(rows.shape[0])
    for _ in range(500):
        V = rows[active]
        moving = ~(row_norms(tangent_gradient(problem, V)) <= 1e-11)
        active, V = active[moving], V[moving]
        if not active.size:
            break
        rows[active] = problem.constraints.project(V - 0.02 * problem.gradient(V))
    return W


class TestCatalog:
    def test_add_merges_within_threshold(self):
        catalog = MinimaCatalog()
        catalog.add(np.array([1.0, 0.0]), min_eig=4.0)
        entry = catalog.add(np.array([1.0, 1e-4]), min_eig=4.0)
        assert len(catalog) == 1
        assert entry.hits == 2
        catalog.add(np.array([0.0, 1.0]), min_eig=4.0)
        assert len(catalog) == 2
        assert min_pairwise_distance(catalog) > 1e-3

    def test_csv_output(self, tmp_path):
        catalog = MinimaCatalog()
        catalog.add(np.array([0.0, 1.0]), min_eig=4.0)
        catalog.add(np.array([1.0, 0.0]), min_eig=3.0)
        path = tmp_path / "minima.csv"
        catalog.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "min_eig,hits,w0,w1"
        assert len(lines) == 3
        # sorted lexicographically by coordinates
        assert lines[1].split(",")[2:] == ["0.0", "1.0"]

    def test_polish_sharpens_endpoint(self):
        prob, basis = standard_maxeig(3)
        rough = prob.constraints.project(basis.vectors[0] + 0.05 * np.array([0.0, 1.0, -1.0]))
        polished = polish(prob, rough)
        assert np.linalg.norm(tangent_gradient(prob, polished)) <= 1e-9
        assert np.linalg.norm(polished - basis.vectors[0]) <= 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(FACTORIES)), st.integers(2, 4),
           st.lists(st.sampled_from(("random", "near", "polished")), min_size=1, max_size=8),
           st.integers(0, 2**32 - 1))
    def test_polish_matches_loop_oracle(self, objective, d, kinds, seed):
        """Bit for bit the per-row-stop loop, on stacks that mix random
        points, points near a minimum and points the loop already polished
        (mostly at ||chi|| <= 1e-11, which polish must leave as they are)."""
        rng = np.random.default_rng(seed)
        basis = OrthoBasis.random(d, rng)
        problem = FACTORIES[objective](basis)

        def near(scale):
            """A minimum (a signed permutation of the basis rows, or one
            signed row for maxeig) moved by ``scale`` off it."""
            rows = rng.choice([-1.0, 1.0], size=(d, 1)) * basis.vectors[rng.permutation(d)]
            minimum = rows[0] if objective == "maxeig" else rows.ravel()
            return problem.constraints.project(minimum + scale * rng.standard_normal(problem.dim))

        W = np.array([problem.random_feasible(rng) if kind == "random" else near(0.05 if kind == "near" else 1e-4)
                      for kind in kinds])
        done = np.array(kinds) == "polished"
        W[done] = loop_polish(problem, W[done])
        np.testing.assert_array_equal(polish(problem, W), loop_polish(problem, W))
        np.testing.assert_array_equal(polish(problem, W[0]), loop_polish(problem, W[0]))


class TestEnumerate:
    def test_correlation_d2_census(self):
        """Multi-start search finds all eight signed permutations and the
        same set for two unrelated seed batches."""
        prob, basis = standard_correlation(2)
        matcher = SignedPermutationMatcher(basis)
        catalogs = []
        for seed in (0, 123):
            config = SgdConfig(eta=0.05, iterations=1200, noise_scale=0.5,
                               seed=seed, record_every=1200)
            catalog = enumerate_minima(prob, 60, config)
            assert len(catalog) == 8
            assert min_pairwise_distance(catalog) > 1e-3
            for entry in catalog.entries:
                assert matcher.nearest(entry.point)[1] <= 1e-4
                assert entry.min_eig >= 1.0
            catalogs.append(catalog)
        a = np.array([e.point for e in catalogs[0].sorted_points()])
        b = np.array([e.point for e in catalogs[1].sorted_points()])
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_maxeig_d3_census(self):
        """Single-component search lands only on signed basis vectors."""
        prob, basis = standard_maxeig(3)
        config = SgdConfig(eta=0.05, iterations=1200, noise_scale=0.5,
                           seed=0, record_every=1200)
        catalog = enumerate_minima(prob, 100, config)
        assert len(catalog) == 6
        matcher = AxisMatcher(basis)
        for entry in catalog.entries:
            assert matcher.nearest(entry.point)[1] <= 1e-6
            assert entry.min_eig >= 3.0

    def test_diverged_starts_are_counted(self):
        prob, _ = standard_maxeig(3)
        config = SgdConfig(eta=0.05, iterations=50, noise_scale=1e308, seed=0, record_every=50)
        catalog = enumerate_minima(prob, 4, config)
        assert len(catalog) == 0 and catalog.diverged == 4


# ------------------------------------------------------------------ #
# Coupling                                                             #
# ------------------------------------------------------------------ #


class TestCoupling:
    def test_t0_returns_gradient_and_zero(self):
        g = np.array([1.0, -2.0])
        grad, disp = coupling_closed_form(g, np.eye(2), [], eta=0.1, t=0)
        np.testing.assert_array_equal(grad, g)
        np.testing.assert_array_equal(disp, np.zeros(2))

    def test_identity_hessian_noise_free(self):
        g = np.array([1.0, 0.0, 0.0])
        eta, t = 0.1, 25
        stream = [np.zeros(3)] * t
        grad, disp = coupling_closed_form(g, np.eye(3), stream, eta, t)
        np.testing.assert_allclose(grad, (1.0 - eta) ** t * g, rtol=1e-12)
        want_disp = -eta * sum((1.0 - eta) ** k for k in range(t)) * g
        np.testing.assert_allclose(disp, want_disp, rtol=1e-12)

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="symmetric"):
            coupling_closed_form(np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]), [], 0.1, 0)
        with pytest.raises(ValueError, match="stream"):
            coupling_closed_form(np.zeros(2), np.eye(2), [np.zeros(2)], 0.1, 5)
        with pytest.raises(ValueError, match="t must be >= 0"):
            coupling_closed_form(np.zeros(2), np.eye(2), [], 0.1, -1)

    def test_matches_step_simulation(self):
        """Replaying the same perturbation stream step by step reproduces
        the closed form to round-off."""
        rng = np.random.default_rng(5)
        d, t, eta = 4, 300, 0.01
        w0 = rng.standard_normal(d)
        g = rng.standard_normal(d)
        A = rng.standard_normal((d, d))
        H = 0.5 * (A + A.T)
        stream = [rng.standard_normal(d) for _ in range(t)]
        obj = QuadraticObjective(w0, g, H)
        config = SgdConfig(eta=eta, iterations=t, noise_scale=0.0, record_every=t)
        rec = single_run(obj, RecordedPerturbations(obj, stream), w0, config)
        grad, disp = coupling_closed_form(g, H, stream, eta, t)
        np.testing.assert_allclose(rec.final_point - w0, disp, atol=1e-10)
        np.testing.assert_allclose(obj.gradient(rec.final_point), grad, atol=1e-10)

    def test_coupling_check_bound(self):
        assert coupling_check(3, 5, 200, 0.01, seed=0) <= 1e-10


# ------------------------------------------------------------------ #
# Escape statistics                                                    #
# ------------------------------------------------------------------ #


class TestEscape:
    def test_zero_noise_never_escapes(self):
        prob, _ = standard_maxeig(6)
        saddle = np.zeros(6)
        saddle[:2] = 1.0 / np.sqrt(2.0)
        config = SgdConfig(eta=0.01, iterations=500, noise_scale=0.0, seed=0, record_every=500)
        stats = escape_statistics(prob, saddle, 5, config)
        assert stats["escape_fraction"] == 0.0
        assert stats["median_steps"] is None
        np.testing.assert_allclose(stats["mean_f_decrease"], 0.0, atol=1e-12)

    def test_sharper_saddle_escapes_no_slower(self):
        """The balanced 2-support saddle (curvature -4) escapes at least as
        fast in median as the balanced d-support saddle (curvature -8/d)."""
        prob, _ = standard_maxeig(6)
        two = np.zeros(6)
        two[:2] = 1.0 / np.sqrt(2.0)
        flat = np.ones(6) / np.sqrt(6.0)
        config = SgdConfig(eta=0.01, iterations=10_000, noise_scale=1.0, seed=0,
                           record_every=10_000)
        stats_two = escape_statistics(prob, two, 50, config)
        stats_flat = escape_statistics(prob, flat, 50, config)
        assert stats_two["escape_fraction"] == 1.0
        assert stats_flat["escape_fraction"] == 1.0
        assert stats_two["median_steps"] <= stats_flat["median_steps"]

    def test_infeasible_saddle_rejected(self):
        prob, _ = standard_maxeig(6)
        off = np.zeros(6)
        off[:2] = 1.0 / np.sqrt(2.0) + 1e-6
        config = SgdConfig(eta=0.01, iterations=10, noise_scale=1.0, seed=0, record_every=10)
        with pytest.raises(ValueError, match="feasible starting point"):
            escape_statistics(prob, off, 3, config)

    def test_diverged_trial_has_not_escaped(self):
        """A trial whose step overflows is counted, with no steps and a nan f decrease."""
        prob, _ = standard_maxeig(4)
        saddle = np.zeros(4)
        saddle[:2] = 1.0 / np.sqrt(2.0)
        config = SgdConfig(eta=0.01, iterations=20, noise_scale=1e308, seed=0, record_every=10)
        stats = escape_statistics(prob, saddle, 3, config)
        assert stats["diverged"] == 3 and stats["escape_fraction"] == 0.0
        assert stats["per_trial_steps"] == [None] * 3
        assert np.isnan(stats["per_trial_decrease"]).all()

    def test_escape_read_from_final_point(self):
        """Trial k's steps and f decrease are those of trial k run alone with
        the same stop, read from f at its final point."""
        prob, _ = standard_maxeig(6)
        saddle = np.zeros(6)
        saddle[:2] = 1.0 / np.sqrt(2.0)
        config = SgdConfig(eta=0.01, iterations=100, noise_scale=1.0, seed=3, record_every=50)
        stats = escape_statistics(prob, saddle, 8, config, threshold=0.05)
        f0 = prob.value(saddle)
        for k in range(8):
            rec = projected_trials(1, lambda _: (saddle, trial_rng(3, k), prob, None), config,
                                   stop=lambda W, f, G: f <= f0 - 0.05)[0]
            f = prob.value(rec.final_point)
            assert stats["per_trial_steps"][k] == (rec.n_steps if f <= f0 - 0.05 else None)
            assert stats["per_trial_decrease"][k] == f0 - f
        assert 0.0 < stats["escape_fraction"] < 1.0


class TestEvaluationCounts:
    """The run loop evaluates each point once, whatever reads it there."""

    def test_escape_maps_coordinates_once_per_step(self):
        """An escape stack over T steps that never escapes maps its points
        to coordinates once per loop step (t = 0..T, recorded steps
        included), after the one map of the saddle's value."""
        basis = OrthoBasis.random(6, np.random.default_rng(1))
        prob = maxeig_objective(basis=basis)
        saddle = (basis.vectors[0] + basis.vectors[1]) / np.sqrt(2.0)
        iters, trials = 40, 5
        config = SgdConfig(eta=0.01, iterations=iters, noise_scale=1.0, seed=2, record_every=10)
        shapes = []

        def counted(basis, u):
            shapes.append(np.shape(u))
            return basis_coords(basis, u)

        with (mock.patch.object(objectives, "basis_coords", counted),
              mock.patch.object(tensor4, "basis_coords", counted)):
            stats = escape_statistics(prob, saddle, trials, config, threshold=10.0)
        assert stats["per_trial_steps"] == [None] * trials
        assert shapes == [(6,)] + [(trials, 6)] * (iters + 1)

    @pytest.mark.parametrize("stride", [1, 7, 100])
    def test_census_reads_the_value_only_where_a_record_does(self, stride):
        """A noise-only stack with no stop, as the census runs, evaluates
        (f, G) on its record steps and its last point and G alone on every
        other step; with a stop, as escape runs, it evaluates (f, G) once
        per point and never G alone."""
        rng = np.random.default_rng(4)
        problem = correlation_objective(basis=OrthoBasis.random(2, rng), halved=True)
        iters = 30
        config = SgdConfig(eta=0.05, iterations=iters, noise_scale=0.5, seed=4, record_every=stride)
        calls = []

        def counting(name):
            method = getattr(ConstrainedProblem, name)

            def counted(self, w):
                calls.append(name)
                return method(self, w)
            return counted

        def start(k):
            rng = trial_rng(config.seed, k)
            return problem.random_feasible(rng), rng, problem, None

        with (mock.patch.object(ConstrainedProblem, "gradient", counting("gradient")),
              mock.patch.object(ConstrainedProblem, "value_and_gradient", counting("value_and_gradient"))):
            projected_trials(6, start, config)
            census, calls[:] = calls[:], []
            projected_trials(6, start, config, stop=lambda W, f, G: np.zeros(len(W), bool))
        assert census == ["value_and_gradient" if t % stride == 0 or t == iters else "gradient"
                          for t in range(iters + 1)]
        assert calls == ["value_and_gradient"] * (iters + 1)

    def test_polish_evaluates_the_gradient_once_per_step(self):
        """Polish's stop reads chi from the gradient its step takes: one
        evaluation per loop step and no separate gradient call."""
        rng = np.random.default_rng(3)
        problem = correlation_objective(basis=OrthoBasis.random(3, rng), halved=True)
        W = np.array([problem.random_feasible(rng) for _ in range(4)])
        records, calls = [], []
        run = analysis.projected_trials

        def spied(*args, **kwargs):
            records.extend(run(*args, **kwargs))
            return records

        def counting(name):
            method = getattr(ConstrainedProblem, name)

            def counted(self, w):
                calls.append(name)
                return method(self, w)
            return counted

        with (mock.patch.object(analysis, "projected_trials", spied),
              mock.patch.object(ConstrainedProblem, "gradient", counting("gradient")),
              mock.patch.object(ConstrainedProblem, "value_and_gradient", counting("value_and_gradient"))):
            polish(problem, W)
        steps = max(record.n_steps for record in records)
        assert steps > 0
        assert calls == ["value_and_gradient"] * (steps + 1)


# ------------------------------------------------------------------ #
# Check battery                                                        #
# ------------------------------------------------------------------ #


def loop_geometry_check(constraints, n_pairs, etas, rng):
    """The per-pair geometry audit that ``geometry_check`` stacks: the test oracle."""
    n = constraints.n
    margins = {k: -np.inf for k in ("normal_quadratic", "normal_by_tangent", "tangent_drift", "normal_drift", "projection_step")}
    violations = {k: 0 for k in margins}

    def note(key, lhs, rhs):
        margins[key] = max(margins[key], lhs - rhs)
        if lhs > rhs + 1e-12:
            violations[key] += 1

    for _ in range(n_pairs):
        w0 = constraints.random_point(rng)
        w = constraints.random_point(rng)
        delta = w - w0
        dist = np.linalg.norm(delta)
        normal_part = np.linalg.norm(constraints.normal_project(w0, delta))
        note("normal_quadratic", normal_part, 0.5 * dist**2)
        if dist < 1.0:
            tangent_part = np.linalg.norm(constraints.tangent_project(w0, delta))
            note("normal_by_tangent", normal_part, tangent_part**2)

        v = constraints.tangent_project(w, rng.standard_normal(n))
        nrm = np.linalg.norm(v)
        if nrm > 1e-12:
            v /= nrm
            note("tangent_drift", np.linalg.norm(constraints.normal_project(w0, v)), dist)

        u = constraints.normal_project(w, rng.standard_normal(n))
        nrm = np.linalg.norm(u)
        if nrm > 1e-12:
            u /= nrm
            note("normal_drift", np.linalg.norm(constraints.tangent_project(w0, u)), dist)

        direction = unit_sphere_noise(n, rng)
        for eta in etas:
            stepped = constraints.project(w0 + eta * direction)
            surrogate = w0 + eta * constraints.tangent_project(w0, direction)
            note("projection_step", np.linalg.norm(stepped - surrogate), 4.0 * eta**2)

    return {"violations": violations, "margins": margins, "total_violations": int(sum(violations.values()))}


class TestChecks:
    def test_sign_vectors_enumeration(self):
        signs = exhaustive_sign_vectors(3)
        assert signs.shape == (8, 3)
        assert len({tuple(s) for s in signs}) == 8
        assert set(np.unique(signs)) == {-1.0, 1.0}

    def test_derivative_check(self):
        prob, _ = standard_maxeig(3)
        chi_err, m_err = derivative_check(prob, 3, np.random.default_rng(6))
        assert chi_err <= 1e-5
        assert m_err <= 1e-5

    def test_geometry_check_no_violations(self):
        geo = geometry_check(SphereProduct(2, 3), 200, (1e-1, 1e-2), np.random.default_rng(7))
        assert geo["total_violations"] == 0
        assert set(geo["violations"]) == {
            "normal_quadratic", "normal_by_tangent", "tangent_drift",
            "normal_drift", "projection_step",
        }

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 3), k=st.integers(2, 6), n_pairs=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
    def test_geometry_check_matches_pair_loop(self, m, k, n_pairs, seed):
        """The stacked audit draws the loop's stream and leaves the generator
        where the loop does, with the same violation counts.  Margins are
        differences of O(1) sides whose norms are now last-axis reductions,
        not BLAS dots, so they agree to 1e-12 relative, or to 1e-15 where a
        bound is tight and the margin is round-off (for one sphere (a) is an
        identity)."""
        constraints = SphereProduct(m, k)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = geometry_check(constraints, n_pairs, (1e-1, 1e-2, 1e-3), got_rng)
        want = loop_geometry_check(constraints, n_pairs, (1e-1, 1e-2, 1e-3), want_rng)
        assert got["violations"] == want["violations"]
        assert got["total_violations"] == want["total_violations"]
        for key, margin in want["margins"].items():
            np.testing.assert_allclose(got["margins"][key], margin, rtol=1e-12, atol=1e-15, err_msg=key)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_geometry_check_zeroes_degenerate_directions(self, seed):
        """A direction of norm at most NOISE_NORM_FLOOR (raised here so about
        8% of directions at n = 2 are) is zero, and the generator draws
        nothing after its one (n_pairs, 5, n) call: the projection-step
        points are w0 + eta times each unit direction or zero, and the
        generator's state afterwards is that call's."""
        constraints, n_pairs, etas, floor = SphereProduct(1, 2), 60, (1e-1, 1e-2), 0.4
        calls = []
        project = SphereProduct.project

        def spy(self, W):
            calls.append(np.array(W, copy=True))
            return project(self, W)

        rng = np.random.default_rng(seed)
        with mock.patch.object(SphereProduct, "project", spy), mock.patch.object(sgd, "NOISE_NORM_FLOOR", floor):
            geometry_check(constraints, n_pairs, etas, rng)

        want = np.random.default_rng(seed)
        draws = want.standard_normal((n_pairs, 5, 2))
        w0, direction = constraints.project(draws[:, 0]), draws[:, 4]
        norms = row_norms(direction, keepdims=True)
        degenerate = norms[:, 0] <= floor
        assert degenerate.any()
        unit = np.where(norms > floor, direction / norms, 0.0)
        assert len(calls) == 2 + len(etas)
        for eta, call in zip(etas, calls[2:]):
            np.testing.assert_array_equal(call, w0 + eta * unit)
            np.testing.assert_array_equal(call[degenerate], w0[degenerate])
        assert rng.bit_generator.state == want.bit_generator.state

    def test_pairing_and_sampler_checks(self):
        rng = np.random.default_rng(8)
        assert pairing_expectation_check(3, 3, rng) <= 1e-12
        assert ica_unbiasedness_check(2, 3, rng) <= 1e-10
        assert simple_sampler_check(3, 3, rng) <= 1e-12

    def test_unbiasedness_check_catches_sign_fault(self, monkeypatch):
        """An estimator with a sign-flipped sample term must fail the check."""
        true_grad = ica.minibatch_gradient

        def broken(U, Y):
            gram_terms = true_grad(U, np.zeros_like(Y))  # y = 0 leaves only these
            return 2.0 * gram_terms - true_grad(U, Y)

        monkeypatch.setattr(ica, "minibatch_gradient", broken)
        err = ica_unbiasedness_check(2, 3, np.random.default_rng(9))
        assert err > 1e-3

    def test_check_result_line_format(self):
        line = CheckResult("demo", True, 1e-12, 1e-10, "ok").to_line()
        assert line.startswith("PASS demo:")
        assert CheckResult("demo", False, 1.0, 1e-10).to_line().startswith("FAIL demo:")

    def test_run_checks_all_pass(self):
        results = run_checks(d=3, seed=7)
        for res in results:
            assert res.passed, res.to_line()
        names = [r.name for r in results]
        assert "minima-census-d2" in names
        assert "coupling-closed-form" in names

    def test_run_checks_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            run_checks(d=1)
