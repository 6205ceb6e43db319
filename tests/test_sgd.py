"""Tests for the two SGD runners, schedules, noise, and trace records."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictsaddle import sgd
from strictsaddle.ica import SimpleSampler
from strictsaddle.manifold import tangent_gradient
from strictsaddle.objectives import (
    correlation_objective,
    maxeig_objective,
    QuadraticObjective,
    reconstruction_objective,
)
from strictsaddle.sgd import (
    RecordedPerturbations,
    SgdConfig,
    lr_schedule,
    noisy_sgd,
    projected_noisy_sgd,
    projected_trials,
    run_rng,
    trial_rng,
    unit_sphere_noise,
    write_run_csv,
)
from strictsaddle.tensor4 import OrthoBasis, make_orthogonal_tensor


def standard_maxeig(d):
    return maxeig_objective(make_orthogonal_tensor(OrthoBasis.standard(d)))


# ------------------------------------------------------------------ #
# Config and schedules                                                 #
# ------------------------------------------------------------------ #


class TestConfig:
    def test_defaults_are_valid(self):
        config = SgdConfig()
        assert config.eta == 0.01
        assert config.iterations == 10_000
        assert config.schedule == "constant"

    def test_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(eta=0.0)
        with pytest.raises(ValueError):
            SgdConfig(eta=0.5, eta_max=0.1)
        with pytest.raises(ValueError):
            SgdConfig(iterations=0)
        with pytest.raises(ValueError):
            SgdConfig(schedule="cosine")
        with pytest.raises(ValueError):
            SgdConfig(noise_scale=-1.0)
        with pytest.raises(ValueError):
            SgdConfig(record_every=0)
        with pytest.raises(ValueError, match="finite"):
            SgdConfig(eta=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            SgdConfig(noise_scale=float("inf"))

    def test_lr_schedule(self):
        const = SgdConfig(eta=0.02, schedule="constant")
        decay = SgdConfig(eta=0.02, schedule="inverse_t")
        assert lr_schedule(const, 999) == 0.02
        assert lr_schedule(decay, 0) == 0.02
        np.testing.assert_allclose(lr_schedule(decay, 9), 0.002, rtol=1e-15)


# ------------------------------------------------------------------ #
# Noise                                                                #
# ------------------------------------------------------------------ #


class TestNoise:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 5, 50):
            for _ in range(20):
                assert abs(np.linalg.norm(unit_sphere_noise(dim, rng)) - 1.0) <= 1e-12

    def test_dim1_is_fair_coin(self):
        rng = np.random.default_rng(1)
        draws = np.array([unit_sphere_noise(1, rng)[0] for _ in range(10_000)])
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(np.mean(draws > 0) - 0.5) <= 0.05

    def test_dim3_coordinate_means_vanish(self):
        rng = np.random.default_rng(2)
        total = np.zeros(3)
        n = 100_000
        for _ in range(n):
            total += unit_sphere_noise(3, rng)
        assert np.max(np.abs(total / n)) <= 0.01

    def test_degenerate_draw_is_redrawn(self):
        """A draw of norm <= 1e-12 is replaced by the generator's next draw."""

        class ZeroFirst:
            def __init__(self):
                self.calls = 0

            def standard_normal(self, out):
                self.calls += 1
                out[:] = 0.0 if self.calls == 1 else np.arange(1.0, out.size + 1.0)

        rng = ZeroFirst()
        v = unit_sphere_noise(3, rng)
        assert rng.calls == 2
        np.testing.assert_allclose(v, np.arange(1.0, 4.0) / np.sqrt(14.0), rtol=1e-15)

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            unit_sphere_noise(0, np.random.default_rng(3))

    def test_recorded_perturbations_replay_and_exhaust(self):
        stream = [np.array([1.0, 0.0]), np.array([0.0, -1.0])]
        pert = RecordedPerturbations(stream)
        rng = np.random.default_rng(5)
        np.testing.assert_array_equal(pert.draw(rng), stream[0])
        np.testing.assert_array_equal(pert.draw(rng), stream[1])
        with pytest.raises(RuntimeError, match="exhausted"):
            pert.draw(rng)


# ------------------------------------------------------------------ #
# Unconstrained runner                                                 #
# ------------------------------------------------------------------ #


class TestNoisySgd:
    def test_zero_objective_zero_noise_is_fixed(self):
        obj = QuadraticObjective(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        w0 = np.array([1.0, -2.0, 0.5])
        config = SgdConfig(eta=0.05, iterations=50, noise_scale=0.0, record_every=10)
        rec = noisy_sgd(obj, None, w0, config)
        np.testing.assert_array_equal(rec.final_point, w0)
        np.testing.assert_array_equal(rec.f_values, np.zeros(rec.f_values.size))

    def test_isotropic_quadratic_contracts_geometrically(self):
        """f = ||w||^2/2 with exact gradient gives w_t = (1-eta)^t w0 exactly."""
        obj = QuadraticObjective(np.zeros(2), np.zeros(2), np.eye(2))
        w0 = np.array([1.0, -3.0])
        eta, t = 0.125, 20  # power-of-two eta keeps the recursion exact
        config = SgdConfig(eta=eta, eta_max=0.5, iterations=t, noise_scale=0.0, record_every=1)
        rec = noisy_sgd(obj, None, w0, config)
        np.testing.assert_array_equal(rec.final_point, (1.0 - eta) ** t * w0)

    def test_bit_identical_determinism(self):
        obj = QuadraticObjective(np.zeros(3), np.ones(3), np.eye(3))
        config = SgdConfig(eta=0.01, iterations=200, noise_scale=1.0, seed=42, record_every=25)
        w0 = np.array([0.3, -0.7, 1.1])
        a = noisy_sgd(obj, None, w0, config)
        b = noisy_sgd(obj, None, w0, config)
        np.testing.assert_array_equal(a.final_point, b.final_point)
        np.testing.assert_array_equal(a.f_values, b.f_values)
        np.testing.assert_array_equal(a.grad_norms, b.grad_norms)
        np.testing.assert_array_equal(a.iters, b.iters)

    def test_trial_substreams_differ_and_reproduce(self):
        a = trial_rng(7, 0).standard_normal(4)
        b = trial_rng(7, 1).standard_normal(4)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(trial_rng(7, 1).standard_normal(4), b)
        np.testing.assert_array_equal(run_rng(7).standard_normal(4), run_rng(7).standard_normal(4))

    def test_divergence_aborts_with_diagnostic(self):
        # gradient ascent on a concave quadratic blows up past the guard
        obj = QuadraticObjective(np.zeros(2), np.zeros(2), -np.eye(2))
        config = SgdConfig(eta=0.05, iterations=5000, noise_scale=0.0, record_every=100)
        rec = noisy_sgd(obj, None, np.array([1.0, 1.0]), config)
        assert rec.diverged
        assert "diverged" in rec.message
        assert rec.n_steps < 5000

    def test_record_stride_and_lengths(self):
        obj = QuadraticObjective(np.zeros(2), np.zeros(2), np.eye(2))
        config = SgdConfig(eta=0.01, iterations=100, noise_scale=0.0, record_every=30)
        rec = noisy_sgd(obj, None, np.ones(2), config)
        np.testing.assert_array_equal(rec.iters, [0, 30, 60, 90, 100])
        for arr in (rec.f_values, rec.grad_norms, rec.recon_errors, rec.elapsed_ms):
            assert arr.shape == rec.iters.shape
        assert np.all(np.isfinite(rec.f_values))
        assert rec.n_steps == 100


# ------------------------------------------------------------------ #
# Projected runner                                                     #
# ------------------------------------------------------------------ #


class TestProjectedSgd:
    def test_requires_feasible_start(self):
        prob = standard_maxeig(3)
        config = SgdConfig(iterations=10)
        with pytest.raises(ValueError, match="feasible"):
            projected_noisy_sgd(prob, None, 2.0 * np.eye(3)[0], config)

    def test_stays_at_exact_minimum_without_noise(self):
        basis = OrthoBasis.standard(3)
        prob = correlation_objective(make_orthogonal_tensor(basis), halved=True)
        w0 = (basis.vectors[[1, 2, 0]] * np.array([[-1.0], [1.0], [1.0]])).ravel()
        config = SgdConfig(eta=0.01, iterations=200, noise_scale=0.0, record_every=50)
        rec = projected_noisy_sgd(prob, None, w0, config)
        assert np.max(np.abs(rec.final_point - w0)) <= 1e-12

    def test_every_recorded_iterate_is_feasible(self):
        """grad_norm evaluation enforces feasibility at every recorded step,
        so a finished noisy run certifies the invariant."""
        prob = standard_maxeig(4)
        rng = np.random.default_rng(6)
        w0 = prob.random_feasible(rng)
        config = SgdConfig(eta=0.02, iterations=500, noise_scale=1.0, seed=8, record_every=1)
        rec = projected_noisy_sgd(prob, None, w0, config)
        assert not rec.diverged
        assert abs(np.linalg.norm(rec.final_point) - 1.0) <= 1e-10

    def test_reported_gradient_is_tangent_norm(self):
        prob = standard_maxeig(4)
        rng = np.random.default_rng(7)
        w0 = prob.random_feasible(rng)
        config = SgdConfig(eta=0.01, iterations=1, noise_scale=0.0, record_every=1)
        rec = projected_noisy_sgd(prob, None, w0, config)
        np.testing.assert_allclose(
            rec.grad_norms[0], np.linalg.norm(tangent_gradient(prob, w0)), rtol=1e-12
        )

    def test_single_step_mean_decrease_at_large_gradient(self):
        """From a point with ||chi|| >= sqrt(eta), one noisy projected step
        decreases f on average."""
        prob = standard_maxeig(4)
        w0 = np.array([0.9, 0.436, 0.0, 0.0])
        w0 /= np.linalg.norm(w0)
        eta = 0.01
        assert np.linalg.norm(tangent_gradient(prob, w0)) >= np.sqrt(eta)
        f0 = prob.value(w0)
        config = SgdConfig(eta=eta, iterations=1, noise_scale=1.0, record_every=1)
        total = 0.0
        n = 10_000
        for k in range(n):
            rec = projected_noisy_sgd(prob, None, w0, config, rng=trial_rng(0, k))
            total += f0 - rec.final_f
        assert total / n > 0.0


# ------------------------------------------------------------------ #
# Stacked trials                                                       #
# ------------------------------------------------------------------ #

PROBLEMS = {
    "maxeig": maxeig_objective,
    "reconstruction": reconstruction_objective,
    "correlation": lambda T=None, basis=None: correlation_objective(T, basis=basis, halved=True),
}


def assert_same_run(got, want):
    """Equal records, bit for bit, apart from the wall-clock fields."""
    for name in ("iters", "f_values", "grad_norms", "recon_errors", "final_point"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    np.testing.assert_array_equal(got.final_f, want.final_f)
    assert (got.n_steps, got.diverged, got.message) == (want.n_steps, want.diverged, want.message)


class TestStackedTrials:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(PROBLEMS)), source=st.sampled_from(["dense", "both", "basis"]),
           sampled=st.booleans(), d=st.integers(2, 3), k=st.integers(1, 8), block=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([0.0, 1.0]),
           stopping=st.booleans(), iters=st.integers(1, 80), stride=st.integers(1, 30))
    def test_row_equals_single_trial(self, kind, source, sampled, d, k, block, seed, noise,
                                     stopping, iters, stride):
        """Trial k of a stack (in blocks of any height) equals its run alone."""
        basis = OrthoBasis.random(d, np.random.default_rng(seed))
        T = None if source == "basis" else make_orthogonal_tensor(basis)
        prob = PROBLEMS[kind](T, basis=None if source == "dense" else basis)
        sampler = SimpleSampler(basis, kind=kind) if sampled else None
        config = SgdConfig(eta=0.02, iterations=iters, noise_scale=noise, seed=seed, record_every=stride)

        def start(j):
            rng = trial_rng(seed, j)
            return prob.random_feasible(rng), rng

        # stop once f falls below the median start value: some rows stop, some run on
        target = float(np.median([prob.value(start(j)[0]) for j in range(k)]))
        stop = (lambda W: prob.value(W) <= target) if stopping else None
        with mock.patch.object(sgd, "STACK_ROWS", block):
            stacked = projected_trials(prob, sampler, k, start, config, stop=stop)
        assert len(stacked) == k
        for j in range(k):
            alone = projected_trials(prob, sampler, 1, lambda _: start(j), config, stop=stop)[0]
            assert_same_run(stacked[j], alone)
            if not stopping:
                w0, rng = start(j)
                assert_same_run(stacked[j], projected_noisy_sgd(prob, sampler, w0, config, rng=rng))

    def test_stop_predicate_ends_a_row_at_its_step(self):
        prob = standard_maxeig(4)
        saddle = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        target = prob.value(saddle) - 0.05
        config = SgdConfig(eta=0.02, iterations=3000, noise_scale=1.0, seed=4, record_every=500)
        records = projected_trials(prob, None, 6, lambda j: (saddle, trial_rng(4, j)), config,
                                   stop=lambda W: prob.value(W) <= target)
        for rec in records:
            assert rec.final_f <= target < rec.f_values[-2]
            assert rec.iters[-1] == rec.n_steps < 3000
            assert prob.value(rec.final_point) == rec.final_f

    def test_diverged_row_leaves_others_running(self):
        """A row that diverges is closed at its step; the others finish."""
        obj = QuadraticObjective(np.zeros(2), np.zeros(2), -np.eye(2))
        config = SgdConfig(eta=0.05, iterations=800, noise_scale=0.0, record_every=100)
        starts = [(np.array([1.0, 1.0]), run_rng(0)), (np.zeros(2), run_rng(1))]
        grow, rest = sgd._run_loop(obj, None, starts, config, None,
                                   lambda W: sgd.row_norms(obj.gradient(W)), lambda W: [np.nan] * len(W))
        assert grow.diverged and "diverged" in grow.message and grow.n_steps < 800
        assert not rest.diverged and rest.n_steps == 800
        np.testing.assert_array_equal(rest.final_point, np.zeros(2))


# ------------------------------------------------------------------ #
# Perturbation bound                                                   #
# ------------------------------------------------------------------ #


class TestNoiseBound:
    def test_bounded_oracle_passes(self):
        obj = QuadraticObjective(np.zeros(3), np.ones(3), np.eye(3), oracle_bound=0.5)
        rng = np.random.default_rng(9)
        sampler = RecordedPerturbations(
            0.5 * rng.random() * unit_sphere_noise(3, rng) for _ in range(100))
        config = SgdConfig(eta=0.01, iterations=100, noise_scale=1.0, seed=9, record_every=1)
        rec = noisy_sgd(obj, sampler, np.ones(3), config)
        assert not rec.diverged

    def test_violation_raises(self):
        obj = QuadraticObjective(np.zeros(2), np.zeros(2), np.eye(2), oracle_bound=0.1)
        sampler = RecordedPerturbations([np.array([5.0, 0.0])])  # ||xi|| >> Q + 1
        config = SgdConfig(eta=0.01, iterations=1, noise_scale=1.0, record_every=1)
        with pytest.raises(RuntimeError, match="bound violated"):
            noisy_sgd(obj, sampler, np.ones(2), config)


# ------------------------------------------------------------------ #
# CSV traces                                                           #
# ------------------------------------------------------------------ #


class TestCsv:
    def run_once(self, seed):
        obj = QuadraticObjective(np.zeros(2), np.ones(2), np.eye(2))
        config = SgdConfig(eta=0.01, iterations=50, noise_scale=1.0, seed=seed, record_every=10)
        return noisy_sgd(obj, None, np.array([1.0, 2.0]), config)

    def test_header_and_round_trip(self, tmp_path):
        rec = self.run_once(11)
        path = tmp_path / "trace.csv"
        write_run_csv(rec, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,f,grad_norm,recon_error,elapsed_ms"
        assert len(lines) == 1 + rec.iters.size
        fs = np.array([float(line.split(",")[1]) for line in lines[1:]])
        np.testing.assert_array_equal(fs, rec.f_values)

    def test_byte_identical_except_elapsed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_csv(self.run_once(12), a)
        write_run_csv(self.run_once(12), b)

        def strip_elapsed(path):
            rows = path.read_text().strip().split("\n")
            return ["\t".join(r.split(",")[:-1]) for r in rows]

        assert strip_elapsed(a) == strip_elapsed(b)
