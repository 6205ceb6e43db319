"""Tests for the verification engine: oracles, classifier, census, coupling."""

import numpy as np
import pytest

from strictsaddle.analysis import (
    AxisMatcher,
    CheckResult,
    MinimaCatalog,
    SignedPermutationMatcher,
    classify_point,
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
from strictsaddle.ica import ica_stochastic_gradient
from strictsaddle.manifold import SaddleParams, SphereProduct, tangent_gradient
from strictsaddle.objectives import correlation_objective, maxeig_objective
from strictsaddle.sgd import RecordedPerturbations, SgdConfig, noisy_sgd, projected_trials, trial_rng
from strictsaddle.objectives import QuadraticObjective
from strictsaddle.tensor4 import OrthoBasis, make_orthogonal_tensor


def single_sphere_params(d):
    """The quantitative strict-saddle constants for the one-component
    problem: gamma=7/d, alpha=3, epsilon and delta from the same proof."""
    eps0 = (10.0 * d) ** -4
    return SaddleParams(alpha=3.0, gamma=7.0 / d, epsilon=4.0 * eps0**2, delta=2.0 * d * eps0)


def standard_maxeig(d):
    basis = OrthoBasis.standard(d)
    return maxeig_objective(make_orthogonal_tensor(basis), basis=basis), basis


def standard_correlation(d):
    basis = OrthoBasis.standard(d)
    return correlation_objective(make_orthogonal_tensor(basis), basis=basis, halved=True), basis


# ------------------------------------------------------------------ #
# Finite differences                                                   #
# ------------------------------------------------------------------ #


class TestFiniteDifferences:
    def test_gradient_of_squared_norm(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(5)
        got = fd_gradient(lambda v: float(v @ v), w)
        np.testing.assert_allclose(got, 2.0 * w, atol=1e-8)

    def test_hessian_of_linear_function(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4)
        w = rng.standard_normal(4)
        got = fd_hessian(lambda v: float(a @ v), w)
        np.testing.assert_allclose(got, np.zeros((4, 4)), atol=1e-8)

    def test_hessian_of_quadratic(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        H = A + A.T
        got = fd_hessian(lambda v: 0.5 * float(v @ H @ v), rng.standard_normal(3))
        np.testing.assert_allclose(got, H, atol=1e-5)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda v: 0.0, np.zeros(2), h=0.0)
        with pytest.raises(ValueError):
            fd_hessian(lambda v: 0.0, np.zeros(2), h=-1e-5)


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


# ------------------------------------------------------------------ #
# Classifier                                                           #
# ------------------------------------------------------------------ #


class TestClassifier:
    def test_minimum_is_near_local_minimum(self):
        prob, basis = standard_maxeig(4)
        report = classify_point(prob, np.eye(4)[0], single_sphere_params(4),
                                matcher=AxisMatcher(basis))
        assert report.classification == "NearLocalMinimum"
        assert report.match_distance == 0.0
        assert report.neighborhood_min_eig >= 3.0

    def test_balanced_saddle_is_negative_curvature(self):
        prob, _ = standard_maxeig(4)
        w = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        report = classify_point(prob, w, single_sphere_params(4))
        assert report.classification == "NegativeCurvature"
        assert report.min_eig <= -7.0 / 4.0

    def test_generic_point_is_large_gradient(self):
        prob, _ = standard_maxeig(4)
        w = np.array([0.9, 0.436, 0.0, 0.0])
        w /= np.linalg.norm(w)
        report = classify_point(prob, w, single_sphere_params(4))
        assert report.classification == "LargeGradient"
        assert report.chi_norm >= single_sphere_params(4).epsilon

    def test_near_minimum_without_matcher_is_unclassified(self):
        prob, _ = standard_maxeig(3)
        report = classify_point(prob, np.eye(3)[0], single_sphere_params(3))
        assert report.classification == "Unclassified"

    def test_neighborhood_veto(self):
        """A matched candidate whose neighborhood curvature dips below alpha
        is rejected rather than certified."""
        prob, _ = standard_maxeig(3)
        saddle = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)

        class SaddleMatcher:
            def nearest(self, w):
                return saddle, float(np.linalg.norm(w - saddle))

        params = SaddleParams(alpha=3.0, gamma=100.0, epsilon=1.0, delta=0.1)
        report = classify_point(prob, saddle, params, matcher=SaddleMatcher())
        assert report.classification == "Unclassified"

    def test_circle_grid_is_fully_classified(self):
        """At d=2 the trichotomy covers a dense grid of the whole sphere."""
        prob, basis = standard_maxeig(2)
        params = single_sphere_params(2)
        matcher = AxisMatcher(basis)
        rng = np.random.default_rng(4)
        thetas = 2.0 * np.pi * np.arange(10_000) / 10_000
        seen = set()
        for th in thetas:
            w = np.array([np.cos(th), np.sin(th)])
            w /= np.linalg.norm(w)
            report = classify_point(prob, w, params, matcher=matcher, rng=rng)
            seen.add(report.classification)
            assert report.classification != "Unclassified"
        assert seen == {"LargeGradient", "NegativeCurvature", "NearLocalMinimum"}


# ------------------------------------------------------------------ #
# Catalog and polish                                                   #
# ------------------------------------------------------------------ #


class TestCatalog:
    def test_add_merges_within_threshold(self):
        catalog = MinimaCatalog(dedup=1e-3)
        catalog.add(np.array([1.0, 0.0]), min_eig=4.0)
        entry = catalog.add(np.array([1.0, 1e-4]), min_eig=4.0)
        assert len(catalog) == 1
        assert entry.hits == 2
        catalog.add(np.array([0.0, 1.0]), min_eig=4.0)
        assert len(catalog) == 2
        assert catalog.min_pairwise_distance() > 1e-3

    def test_min_pairwise_with_single_entry(self):
        catalog = MinimaCatalog()
        assert catalog.min_pairwise_distance() == np.inf

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
            assert catalog.min_pairwise_distance() > 1e-3
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
        rec = noisy_sgd(obj, RecordedPerturbations(stream), w0, config)
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
            rec = projected_trials(prob, None, 1, lambda _: (saddle, trial_rng(3, k)), config,
                                   stop=lambda W: prob.value(W) <= f0 - 0.05)[0]
            f = prob.value(rec.final_point)
            assert stats["per_trial_steps"][k] == (rec.n_steps if f <= f0 - 0.05 else None)
            assert stats["per_trial_decrease"][k] == f0 - f
        assert 0.0 < stats["escape_fraction"] < 1.0


# ------------------------------------------------------------------ #
# Check battery                                                        #
# ------------------------------------------------------------------ #


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
        geo = geometry_check(SphereProduct.spheres(2, 3), 200, (1e-1, 1e-2), np.random.default_rng(7))
        assert geo["total_violations"] == 0
        assert set(geo["violations"]) == {
            "normal_quadratic", "normal_by_tangent", "tangent_drift",
            "normal_drift", "projection_step",
        }

    def test_pairing_and_sampler_checks(self):
        rng = np.random.default_rng(8)
        assert pairing_expectation_check(3, 3, rng) <= 1e-12
        assert ica_unbiasedness_check(2, 3, rng) <= 1e-10
        assert simple_sampler_check(3, 3, rng) <= 1e-12

    def test_unbiasedness_check_catches_sign_fault(self):
        """An estimator with a corrupted sample term must fail the check."""

        def broken(U, y):
            U = np.asarray(U, dtype=float)
            p = U.reshape(-1, y.size) @ y
            smudge = np.outer(((p**2).sum() - p**2) * p, y)
            return ica_stochastic_gradient(U, y) + smudge.reshape(U.shape)

        err = ica_unbiasedness_check(2, 3, np.random.default_rng(9), gradient_fn=broken)
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
