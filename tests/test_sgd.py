"""Tests for the SGD runner, schedules, noise, and trace records."""

import contextlib
import itertools
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strictsaddle import cli, sgd
from strictsaddle.ica import IcaModel, IcaSampler, SimpleSampler
from strictsaddle.manifold import SphereProduct, chi_from_gradient, tangent_gradient
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
    projected_trials,
    run_rng,
    trial_rng,
    unit_sphere_noise,
    write_csv,
    write_run_csv,
)
from strictsaddle.tensor4 import OrthoBasis


def standard_maxeig(d):
    return maxeig_objective(basis=OrthoBasis.standard(d))


def single_run(problem, sampler, w0, config, rng=None):
    """One trial of projected_trials on ``rng``, by default run_rng(config.seed)."""
    rng = run_rng(config.seed) if rng is None else rng
    return projected_trials(1, lambda _: (w0, rng, problem, sampler), config)[0]


def fill_steps(draw, rng, samples, noise):
    """The per-step oracle of a sampler's ``fill``: ``samples`` (h, ...) and
    ``noise`` (h, n) or None filled one step at a time, in stream order,
    step j's sample ``draw(rng)`` and then its n Gaussian draws from
    ``rng``.  These are the values of h (draw, normals) pairs, and the
    generator ends where those pairs leave it."""
    for j in range(len(samples)):
        samples[j] = draw(rng)
        if noise is not None:
            rng.standard_normal(out=noise[j])


def step_draw(sampler):
    """One step's sample of ``sampler`` from a generator: its ``draw``, or
    for a RecordedPerturbations its stream's next entry."""
    if isinstance(sampler, RecordedPerturbations):
        entries = iter(sampler.stream)
        return lambda rng: next(entries)
    return sampler.draw


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
            SgdConfig(eta=-0.5)
        assert SgdConfig(eta=0.5).eta == 0.5  # no ceiling on the step
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            SgdConfig(iterations=0)
        # a budget t == iterations never reaches would never end a run
        with pytest.raises(ValueError, match="iterations must be an integer"):
            SgdConfig(iterations=2.5)
        with pytest.raises(ValueError, match="iterations must be an integer"):
            SgdConfig(iterations=float("inf"))
        assert SgdConfig(iterations=np.int64(3)).iterations == 3
        with pytest.raises(ValueError):
            SgdConfig(schedule="cosine")
        with pytest.raises(ValueError):
            SgdConfig(noise_scale=-1.0)
        with pytest.raises(ValueError):
            SgdConfig(record_every=0)
        # a fractional or nan stride skips the t=0 record and the divergence test
        for stride in (2.5, float("nan")):
            with pytest.raises(ValueError, match="record_every must be an integer"):
                SgdConfig(record_every=stride)
        assert SgdConfig(record_every=np.int64(5)).record_every == 5
        for seed in (1.5, -1, float("nan")):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                SgdConfig(seed=seed)
        assert SgdConfig(seed=np.int64(7)).seed == 7
        with pytest.raises(ValueError, match="finite"):
            SgdConfig(eta=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            SgdConfig(eta=float("inf"))
        with pytest.raises(ValueError, match="finite"):
            SgdConfig(noise_scale=float("inf"))

    def test_lr_schedule(self):
        const = SgdConfig(eta=0.02, schedule="constant")
        decay = SgdConfig(eta=0.02, schedule="inv-t")
        assert lr_schedule(const, 999) == 0.02
        assert lr_schedule(decay, 0) == 0.02
        np.testing.assert_allclose(lr_schedule(decay, 9), 0.002, rtol=1e-15)


# ------------------------------------------------------------------ #
# Noise                                                                #
# ------------------------------------------------------------------ #


class ZeroDrawStream:
    """A generator whose Gaussian stream is ``default_rng(seed)``'s with the
    n values of each draw in ``zeros`` (0 the first) set to zero, read in
    whatever sizes the caller asks."""

    def __init__(self, n, seed, zeros=(0,)):
        self.n, self.zeros, self.read = n, tuple(zeros), 0
        self.rng = np.random.default_rng(seed)

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        flat = out.reshape(-1)  # a view: ``out`` is contiguous
        self.rng.standard_normal(out=flat)
        for draw in self.zeros:
            flat[max(draw * self.n - self.read, 0) : max((draw + 1) * self.n - self.read, 0)] = 0.0
        self.read += flat.size
        return out


def per_step_run(w0, rng, problem, config, stop=None, sampler=None):
    """Projected noisy SGD on one trial, one sample draw (with a sampler)
    and one noise draw per step: the test oracle for the run loop's
    buffered draws.  A noise draw of norm <= sgd.NOISE_NORM_FLOOR gives
    zero noise."""
    constraints = problem.constraints
    draw = None if sampler is None else step_draw(sampler)
    w = np.array(w0, dtype=float)[None]
    n = w.shape[1]
    trace = []
    t = 0
    while True:
        f, G = problem.value_and_gradient(w)
        ends = t == config.iterations or (stop is not None and bool(stop(w, f, G)[0]))
        if ends or t % config.record_every == 0:
            recon = problem.recon_error(w[0])
            trace.append((t, f[0], sgd.row_norms(chi_from_gradient(constraints, w, G))[0],
                          np.nan if recon is None else recon))
        if ends:
            break
        if sampler is not None:
            G = sampler.gradient(w, draw(rng)[None])
        if config.noise_scale > 0:
            z = rng.standard_normal(n)
            norm = sgd.row_norms(z)
            G = G + config.noise_scale * (z / norm if norm > sgd.NOISE_NORM_FLOOR else np.zeros(n))
        w = constraints.project(w - lr_schedule(config, t) * G)
        t += 1
    iters, fs, gnorms, recons = (np.array(column) for column in zip(*trace))
    return sgd.RunRecord(iters=iters, f_values=fs, grad_norms=gnorms, recon_errors=recons,
                         elapsed_ms=np.zeros(iters.size), final_point=w[0], final_f=fs[-1], n_steps=t)


def assert_same_place(got, want):
    """Two generators stand at the same place in their streams: equal state,
    or for a ZeroDrawStream equal counts of values read and equal state."""
    if isinstance(want, ZeroDrawStream):
        assert got.read == want.read
        got, want = got.rng, want.rng
    assert got.bit_generator.state == want.bit_generator.state


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

    def test_degenerate_draw_gives_zero_noise(self):
        """A draw of norm <= NOISE_NORM_FLOOR gives zero noise, and the
        generator draws nothing more for it."""

        class ZeroFirst:
            def __init__(self):
                self.calls = 0

            def standard_normal(self, out):
                self.calls += 1
                out[:] = 0.0 if self.calls == 1 else np.arange(1.0, out.size + 1.0)

        rng = ZeroFirst()
        np.testing.assert_array_equal(unit_sphere_noise(3, rng), np.zeros(3))
        assert rng.calls == 1
        np.testing.assert_allclose(unit_sphere_noise(3, rng), np.arange(1.0, 4.0) / np.sqrt(14.0), rtol=1e-15)

        # the run loop reads its draws from blocks, here of NOISE_BLOCK
        # steps: a zero draw on a block's first step, on its last, or on a
        # refilled block's first gives zero noise at its step, and the steps
        # after it follow the stream, as one draw per step does, with no
        # sampler and with one (a replayed stream, so the noise is the
        # generator's only draw); each row leaves its generator where the
        # per-step draws do
        prob = standard_maxeig(2)
        w0 = prob.random_feasible(np.random.default_rng(0))
        iters = 3 * sgd.NOISE_BLOCK
        config = SgdConfig(eta=0.05, iterations=iters, noise_scale=1.0, record_every=1)
        zeros = [(0,), (sgd.NOISE_BLOCK - 1, 2 * sgd.NOISE_BLOCK), (sgd.NOISE_BLOCK,)]
        stream = 0.1 * np.random.default_rng(1).standard_normal((iters, 2))
        for sampler in (lambda: None, lambda: RecordedPerturbations(prob, stream)):
            rngs = [ZeroDrawStream(2, j, zeros[j]) for j in range(len(zeros))]
            with mock.patch.object(sgd, "NOISE_BYTES", 0):
                stacked = projected_trials(len(zeros), lambda j: (w0, rngs[j], prob, sampler()), config)
            for j, got in enumerate(stacked):
                twin = ZeroDrawStream(2, j, zeros[j])
                assert_same_run(got, per_step_run(w0, twin, prob, config, sampler=sampler()))
                assert_same_place(rngs[j], twin)

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            unit_sphere_noise(0, np.random.default_rng(3))

    def test_recorded_perturbations_replay_and_exhaust(self):
        """Each fill takes the stream's next entries and draws its noise in
        one call, the values of per-step (entry, normals) pairs, on PCG64
        and on Philox; a fill that needs more entries than are left raises
        before it writes or draws."""
        stream = 0.1 * np.random.default_rng(4).standard_normal((7, 2))
        for bitgen in (np.random.PCG64, np.random.Philox):
            pert, draw = RecordedPerturbations(None, stream), step_draw(RecordedPerturbations(None, stream))
            rng, other = np.random.Generator(bitgen(5)), np.random.Generator(bitgen(5))
            for h, n in ((3, 4), (1, None), (2, 1)):
                samples, noise = np.empty((h, 2)), None if n is None else np.empty((h, n))
                want, want_noise = np.empty((h, 2)), None if n is None else np.empty((h, n))
                assert pert.fill(rng, samples, noise) is None
                fill_steps(draw, other, want, want_noise)
                np.testing.assert_array_equal(samples, want)
                if n is not None:
                    np.testing.assert_array_equal(noise, want_noise)
            np.testing.assert_array_equal(samples, stream[4:6])
            np.testing.assert_equal(rng.bit_generator.state, other.bit_generator.state)
            samples = np.full((2, 2), np.nan)
            with pytest.raises(RuntimeError, match="^perturbation stream exhausted$"):
                pert.fill(rng, samples, np.empty((2, 3)))
            assert np.isnan(samples).all()
            np.testing.assert_equal(rng.bit_generator.state, other.bit_generator.state)
            pert.fill(rng, samples[:1], None)
            np.testing.assert_array_equal(samples[0], stream[6])

    def test_recorded_perturbations_add_sample_to_gradient(self):
        obj = QuadraticObjective(np.zeros(2), np.ones(2), np.eye(2))
        W = np.array([[1.0, 2.0], [0.5, -1.0]])
        xi = np.array([[0.1, -0.2], [0.3, 0.0]])
        got = RecordedPerturbations(obj, []).gradient(W, xi)
        np.testing.assert_array_equal(got, obj.gradient(W) + xi)


# ------------------------------------------------------------------ #
# Unconstrained problems                                                #
# ------------------------------------------------------------------ #


class TestNoisySgd:
    def test_zero_objective_zero_noise_is_fixed(self):
        obj = QuadraticObjective(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        w0 = np.array([1.0, -2.0, 0.5])
        config = SgdConfig(eta=0.05, iterations=50, noise_scale=0.0, record_every=10)
        rec = single_run(obj, None, w0, config)
        np.testing.assert_array_equal(rec.final_point, w0)
        np.testing.assert_array_equal(rec.f_values, np.zeros(rec.f_values.size))

    def test_isotropic_quadratic_contracts_geometrically(self):
        """f = ||w||^2/2 with exact gradient gives w_t = (1-eta)^t w0 exactly."""
        obj = QuadraticObjective(np.zeros(2), np.zeros(2), np.eye(2))
        w0 = np.array([1.0, -3.0])
        eta, t = 0.125, 20  # power-of-two eta keeps the recursion exact
        config = SgdConfig(eta=eta, iterations=t, noise_scale=0.0, record_every=1)
        rec = single_run(obj, None, w0, config)
        np.testing.assert_array_equal(rec.final_point, (1.0 - eta) ** t * w0)

    def test_bit_identical_determinism(self):
        obj = QuadraticObjective(np.zeros(3), np.ones(3), np.eye(3))
        config = SgdConfig(eta=0.01, iterations=200, noise_scale=1.0, seed=42, record_every=25)
        w0 = np.array([0.3, -0.7, 1.1])
        a = single_run(obj, None, w0, config)
        b = single_run(obj, None, w0, config)
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
        rec = single_run(obj, None, np.array([1.0, 1.0]), config)
        assert rec.diverged
        assert "diverged" in rec.message
        assert rec.n_steps < 5000

    def test_overflowing_projected_step_diverges(self):
        """A step that overflows ends the run as diverged at that step; the
        projection would otherwise rescale the overflowed row to zeros."""
        basis = OrthoBasis.standard(3)
        config = SgdConfig(eta=0.01, iterations=20, noise_scale=1e308, record_every=10)
        rec = single_run(maxeig_objective(basis=basis), None, basis.vectors[0], config)
        assert rec.diverged and rec.n_steps == 0
        assert rec.message == "iterate diverged at step 0"

    def test_degenerate_projection_diverges_its_row(self):
        """A row stepped onto a block's centre has no projection: it
        diverges at that step and the other rows run on."""
        prob = correlation_objective(basis=OrthoBasis.standard(1), halved=True)  # f = 0: only noise moves w
        config = SgdConfig(eta=1.0, iterations=2, noise_scale=1.0, seed=5, record_every=1)
        records = projected_trials(8, lambda j: (np.ones(1), trial_rng(5, j), prob, None), config)
        stuck = [r for r in records if r.diverged]
        assert 0 < len(stuck) < len(records)
        for r in records:
            if r.diverged:
                assert r.message == f"degenerate projection at step {r.n_steps}"
                np.testing.assert_array_equal(r.final_point, [0.0])
            else:
                assert r.n_steps == 2 and abs(r.final_point[0]) == 1.0

    def test_record_stride_and_lengths(self):
        obj = QuadraticObjective(np.zeros(2), np.zeros(2), np.eye(2))
        config = SgdConfig(eta=0.01, iterations=100, noise_scale=0.0, record_every=30)
        rec = single_run(obj, None, np.ones(2), config)
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
            single_run(prob, None, 2.0 * np.eye(3)[0], config)

    def test_stays_at_exact_minimum_without_noise(self):
        basis = OrthoBasis.standard(3)
        prob = correlation_objective(basis=basis, halved=True)
        w0 = (basis.vectors[[1, 2, 0]] * np.array([[-1.0], [1.0], [1.0]])).ravel()
        config = SgdConfig(eta=0.01, iterations=200, noise_scale=0.0, record_every=50)
        rec = single_run(prob, None, w0, config)
        assert np.max(np.abs(rec.final_point - w0)) <= 1e-12

    def test_every_recorded_iterate_is_feasible(self):
        """grad_norm evaluation enforces feasibility at every recorded step,
        so a finished noisy run certifies the invariant."""
        prob = standard_maxeig(4)
        rng = np.random.default_rng(6)
        w0 = prob.random_feasible(rng)
        config = SgdConfig(eta=0.02, iterations=500, noise_scale=1.0, seed=8, record_every=1)
        rec = single_run(prob, None, w0, config)
        assert not rec.diverged
        assert abs(np.linalg.norm(rec.final_point) - 1.0) <= 1e-10

    def test_reported_gradient_is_tangent_norm(self):
        prob = standard_maxeig(4)
        rng = np.random.default_rng(7)
        w0 = prob.random_feasible(rng)
        config = SgdConfig(eta=0.01, iterations=1, noise_scale=0.0, record_every=1)
        rec = single_run(prob, None, w0, config)
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
            rec = single_run(prob, None, w0, config, rng=trial_rng(0, k))
            total += f0 - rec.final_f
        assert total / n > 0.0


# ------------------------------------------------------------------ #
# Stacked trials                                                       #
# ------------------------------------------------------------------ #

PROBLEMS = {
    "maxeig": maxeig_objective,
    "reconstruction": reconstruction_objective,
    "correlation": lambda basis: correlation_objective(basis=basis, halved=True),
}


def assert_same_run(got, want):
    """Equal records, bit for bit, apart from the wall-clock fields."""
    for name in ("iters", "f_values", "grad_norms", "recon_errors", "final_point"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    np.testing.assert_array_equal(got.final_f, want.final_f)
    assert (got.n_steps, got.diverged, got.message) == (want.n_steps, want.diverged, want.message)


class TestStackedTrials:
    @settings(max_examples=60, deadline=None)
    # rows with their own problems and no sampler take G alone, one
    # gradient call per row, on the steps where nothing read the point
    @example(kind="maxeig", source="per-row", sampler_kind=None, d=2, k=3, block=3, seed=7, noise=1.0,
             stopping="none", iters=12, stride=5)
    @given(kind=st.sampled_from(sorted(PROBLEMS)), source=st.sampled_from(["shared", "per-row"]),
           sampler_kind=st.sampled_from([None, "simple", "ica"]), d=st.integers(1, 3),
           k=st.integers(1, 8), block=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from([0.0, 1.0]), stopping=st.sampled_from(["none", "coordinate", "value"]),
           iters=st.integers(1, 80), stride=st.integers(1, 30))
    def test_row_equals_single_trial(self, kind, source, sampler_kind, d, k, block, seed, noise,
                                     stopping, iters, stride):
        """Trial k of a stack (in blocks of any height) equals its run alone,
        with exact gradients and with either sampler, whether the trials
        share one problem or each draws its own basis, problem and sampler
        (``per-row``, as the seeds of the cli do), and whether rows leave
        early on a stop that reads the point or the held value."""
        if sampler_kind == "ica":
            kind = "correlation"  # the only gradient the ica sampler estimates

        def trial(rng):
            basis = OrthoBasis.random(d, rng)
            prob = PROBLEMS[kind](basis=basis)
            sampler = {None: None,
                       "simple": SimpleSampler(basis, kind=kind),
                       "ica": IcaSampler(IcaModel(basis.vectors.T), batch_size=3)}[sampler_kind]
            return prob, sampler

        shared = trial(np.random.default_rng(seed))
        config = SgdConfig(eta=0.02, iterations=iters, noise_scale=noise, seed=seed, record_every=stride)

        def start(j):
            rng = trial_rng(seed, j)
            prob, sampler = trial(rng) if source == "per-row" else shared
            return prob.random_feasible(rng), rng, prob, sampler

        # stop once the first coordinate passes the starts' median, or once
        # f falls below the median of f at the starts: rows leave at
        # different steps, and the held evaluation must leave with them
        starts = [start(j) for j in range(k)]
        coordinate = float(np.median([w0[0] for w0, *_ in starts]))
        value = float(np.median([prob.value(w0) for w0, _, prob, _ in starts]))
        stop = {"none": None,
                "coordinate": lambda W, f, G: W[:, 0] >= coordinate,
                "value": lambda W, f, G: f <= value}[stopping]
        with mock.patch.object(sgd, "STACK_ROWS", block):
            stacked = projected_trials(k, start, config, stop=stop)
        assert len(stacked) == k
        for j in range(k):
            assert_same_run(stacked[j], projected_trials(1, lambda _: start(j), config, stop=stop)[0])

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(PROBLEMS)), d=st.integers(1, 5), k=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([0.5, 1.0]),
           stopping=st.sampled_from(["none", "coordinate", "value"]), iters=st.integers(1, 40),
           stride=st.integers(1, 30), floor=st.integers(1, sgd.NOISE_BLOCK), steps=st.integers(0, 48),
           zero_rows=st.sets(st.integers(0, 7)), zeros=st.sets(st.integers(0, 17), min_size=1, max_size=3))
    def test_buffered_noise_equals_per_step_draws(self, kind, d, k, seed, noise, stopping, iters, stride,
                                                  floor, steps, zero_rows, zeros):
        """Rows with no sampler take a block of steps of noise per generator
        call, and their records equal, bit for bit, a loop that draws once
        per step: with blocks of any height (the budget NOISE_BYTES holds
        ``steps`` steps of the stack, the floor NOISE_BLOCK is ``floor``),
        so that runs refill often, sometimes or never; with rows ending at
        different steps (their blocks left unread); and with generators
        some of whose draws are zero, at any step of a block.  A row that
        runs its whole budget leaves its generator where the loop does."""
        prob = PROBLEMS[kind](basis=OrthoBasis.random(d, np.random.default_rng(seed)))
        n = prob.constraints.n
        config = SgdConfig(eta=0.02, iterations=iters, noise_scale=noise, seed=seed, record_every=stride)
        w0s = [prob.random_feasible(trial_rng(seed, j)) for j in range(k)]

        def rng(j):
            return ZeroDrawStream(n, seed + j, sorted(zeros)) if j in zero_rows else trial_rng(seed, j)

        coordinate = float(np.median([w0[0] for w0 in w0s]))
        value = float(np.median([prob.value(w0) for w0 in w0s]))
        stop = {"none": None,
                "coordinate": lambda W, f, G: W[:, 0] >= coordinate,
                "value": lambda W, f, G: f <= value}[stopping]
        rngs = [rng(j) for j in range(k)]
        with mock.patch.object(sgd, "NOISE_BLOCK", floor), mock.patch.object(sgd, "NOISE_BYTES", steps * 8 * k * n):
            stacked = projected_trials(k, lambda j: (w0s[j], rngs[j], prob, None), config, stop=stop)
        for j in range(k):
            twin = rng(j)
            assert_same_run(stacked[j], per_step_run(w0s[j], twin, prob, config, stop=stop))
            if stacked[j].n_steps == iters:
                assert_same_place(rngs[j], twin)

    @pytest.mark.parametrize("k, n, iters, height", [(60, 4, 1200, 341), (256, 40, 2000, 8), (60, 4, 5, 5),
                                                     (1, 4, 20_000, 20_000)])
    def test_noise_block_height(self, k, n, iters, height):
        """A noise-only stack of k rows of n refills each row with ``height``
        steps per generator call: the most that fit in NOISE_BYTES, never
        fewer than NOISE_BLOCK and never more than the step budget."""
        prob = standard_maxeig(n)
        shapes = []

        class Spy:
            def __init__(self, j):
                self.rng = trial_rng(0, j)

            def standard_normal(self, size=None, out=None):
                shapes.append(np.shape(out))
                return self.rng.standard_normal(size, out=out)

        # one step: the stop holds from its second test on
        config = SgdConfig(eta=0.01, iterations=iters, noise_scale=1.0, record_every=iters)
        tests = itertools.count()
        projected_trials(k, lambda j: (np.eye(n)[0], Spy(j), prob, None), config,
                         stop=lambda W, f, G: np.full(len(W), next(tests) > 0))
        assert shapes == [(height, n)] * k

    @settings(max_examples=40, deadline=None)
    # raw-word fills with degenerate draws in 1-, 7- and 30-step blocks
    @example(kind="maxeig", sampler_kind="simple", generator="pcg64", d=2, k=3, seed=5, iters=40, stride=3, steps=7)
    @example(kind="correlation", sampler_kind="simple", generator="pcg64", d=3, k=2, seed=1, iters=30, stride=4,
             steps=0)
    @example(kind="reconstruction", sampler_kind="simple", generator="pcg64", d=1, k=4, seed=2, iters=60, stride=7,
             steps=30)
    @given(kind=st.sampled_from(sorted(PROBLEMS)), sampler_kind=st.sampled_from([None, "simple", "ica"]),
           generator=st.sampled_from(["pcg64", "philox"]), d=st.integers(1, 3), k=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), iters=st.integers(1, 60), stride=st.integers(1, 20),
           steps=st.integers(0, 30))
    def test_degenerate_draws_give_zero_noise_in_stream_order(self, kind, sampler_kind, generator, d, k, seed,
                                                              iters, stride, steps):
        """With the floor NOISE_NORM_FLOOR raised so that about 8% of noise
        draws are degenerate, every row still equals one (sample, noise)
        draw per step with the same floor, a degenerate draw giving zero
        noise at its step.  Sampler rows are filled from raw PCG64 words,
        and refused before any draw on another generator; noise-only rows
        run on any numpy generator.  Every row runs its whole budget and
        leaves its generator where the per-step draws do.  Blocks of 1 to
        30 steps, capped by the budget left."""
        if sampler_kind == "ica":
            kind = "correlation"
        basis = OrthoBasis.random(d, np.random.default_rng(seed))
        prob = PROBLEMS[kind](basis=basis)
        sampler = {None: None, "simple": SimpleSampler(basis, kind=kind),
                   "ica": IcaSampler(IcaModel(basis.vectors.T), batch_size=2)}[sampler_kind]
        n = prob.constraints.n
        floor = float(np.quantile(sgd.row_norms(np.random.default_rng(n).standard_normal((4000, n))), 0.08))
        config = SgdConfig(eta=0.02, iterations=iters, noise_scale=1.0, seed=seed, record_every=stride)
        w0s = [prob.random_feasible(trial_rng(seed, j)) for j in range(k)]
        sample_size = 0 if sampler is None else int(np.prod(sampler.sample_shape))

        def rng(j):
            if generator == "pcg64":
                return trial_rng(seed, j)
            return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(j,))))

        rngs = [rng(j) for j in range(k)]
        with (mock.patch.object(sgd, "NOISE_NORM_FLOOR", floor), mock.patch.object(sgd, "NOISE_BLOCK", 1),
              mock.patch.object(sgd, "NOISE_BYTES", steps * 8 * k * (n + sample_size))):
            if sampler is not None and generator == "philox":
                with pytest.raises(ValueError, match="PCG64"):
                    projected_trials(k, lambda j: (w0s[j], rngs[j], prob, sampler), config)
                for j in range(k):
                    np.testing.assert_equal(rngs[j].bit_generator.state, rng(j).bit_generator.state)
                return
            stacked = projected_trials(k, lambda j: (w0s[j], rngs[j], prob, sampler), config)
            for j in range(k):
                twin = rng(j)
                assert_same_run(stacked[j], per_step_run(w0s[j], twin, prob, config, sampler=sampler))
                assert stacked[j].n_steps == iters
                if generator == "pcg64":
                    assert_same_place(rngs[j], twin)
                np.testing.assert_array_equal(rngs[j].standard_normal(4), twin.standard_normal(4))
                np.testing.assert_array_equal(rngs[j].integers(2**32, size=3), twin.integers(2**32, size=3))

    @pytest.mark.parametrize("sampler_kind", ["simple", "ica", "recorded", "recorded-philox"])
    def test_full_budget_sampler_row_leaves_generator_where_per_step_draws_do(self, sampler_kind):
        """A sampler row's blocks never reach past its budget, so after a
        full run its generator stands where one (sample, noise) pair per
        step leaves it, and continuing it (as ica's annealed phase does)
        continues the stream.  Replayed streams run on any numpy
        generator, Philox too."""
        d, k, iters = 4, 3, 101
        basis = OrthoBasis.random(d, np.random.default_rng(8))
        prob = PROBLEMS["correlation"](basis=basis)
        stream = 0.1 * np.random.default_rng(9).standard_normal((iters, d * d))
        sampler = {"simple": lambda: SimpleSampler(basis), "recorded": lambda: RecordedPerturbations(prob, stream),
                   "ica": lambda: IcaSampler(IcaModel(basis.vectors.T), batch_size=3)}[sampler_kind.split("-")[0]]

        def rng(j):
            if sampler_kind == "recorded-philox":
                return np.random.Generator(np.random.Philox(np.random.SeedSequence(3, spawn_key=(j,))))
            return trial_rng(3, j)

        config = SgdConfig(eta=0.02, iterations=iters, noise_scale=1.0, seed=3, record_every=10)
        w0s = [prob.random_feasible(trial_rng(3, j)) for j in range(k)]
        rngs = [rng(j) for j in range(k)]
        # blocks of 12 steps: 8 full ones, then one capped at the 5 left
        with mock.patch.object(sgd, "NOISE_BYTES", 12 * 8 * k * (d * d + int(np.prod(sampler().sample_shape)))):
            stacked = projected_trials(k, lambda j: (w0s[j], rngs[j], prob, sampler()), config)
        for j in range(k):
            twin = rng(j)
            assert_same_run(stacked[j], per_step_run(w0s[j], twin, prob, config, sampler=sampler()))
            np.testing.assert_equal(rngs[j].bit_generator.state, twin.bit_generator.state)

    def test_sampler_block_height(self, tmp_path):
        """A stack with a sampler fills the most steps whose samples and
        noise fit in NOISE_BYTES, at most the budget left: 186 steps at 4
        rows of n=100 with samples of 10, the last block of 400 steps 28,
        whether a forked producer draws the blocks after the first or this
        process draws them all.  The fills log to a file, which both
        processes reach."""
        d, log = 10, tmp_path / "heights"
        fill = SimpleSampler.fill

        def spy(self, rng, samples, noise):
            with open(log, "a") as fh:
                fh.write(f"{len(samples)} {None if noise is None else noise.shape}\n")
            return fill(self, rng, samples, noise)

        basis = OrthoBasis.random(d, np.random.default_rng(0))
        prob, sampler = PROBLEMS["correlation"](basis=basis), SimpleSampler(basis)
        config = SgdConfig(eta=0.01, iterations=400, noise_scale=1.0, record_every=400)
        for ahead in (True, False):
            log.write_text("")
            with mock.patch.object(SimpleSampler, "fill", spy), drawn_ahead(ahead) as forks:
                projected_trials(4, lambda j: (prob.random_feasible(trial_rng(0, j)), trial_rng(0, j), prob,
                                               sampler), config)
            assert log.read_text().splitlines() == [f"{h} {(h, d * d)}" for h in (186, 186, 28) for _ in range(4)]
            assert len(forks) == ahead

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("sampler_kind, per_row", [("simple", False), ("ica", False),
                                                       ("simple", True), ("ica", True)],
                             ids=["simple", "ica", "simple-per-row", "ica-per-row"])
    def test_one_oracle_call_per_step_on_the_whole_stack(self, sampler_kind, per_row, k):
        """One oracle call per step for the whole stack, whether its rows
        share one problem or each has its own basis."""
        d, iters, batch = 3, 25, 4
        cls = SimpleSampler if sampler_kind == "simple" else IcaSampler
        calls = []
        oracle = cls.gradient

        def counted(self, W, samples):
            calls.append((W.shape, samples.shape))
            return oracle(self, W, samples)

        def trial(rng):
            basis = OrthoBasis.random(d, rng)
            sampler = (SimpleSampler(basis) if sampler_kind == "simple"
                       else IcaSampler(IcaModel(basis.vectors.T), batch_size=batch))
            return PROBLEMS["correlation"](basis=basis), sampler

        shared = trial(np.random.default_rng(k))
        config = SgdConfig(eta=0.02, iterations=iters, noise_scale=1.0, seed=k, record_every=10)

        def start(j):
            rng = trial_rng(k, j)
            prob, sampler = trial(rng) if per_row else shared
            return prob.random_feasible(rng), rng, prob, sampler

        with mock.patch.object(cls, "gradient", counted):
            records = projected_trials(k, start, config)
        assert all(r.n_steps == iters and not r.diverged for r in records)
        sample_shape = (k, d) if sampler_kind == "simple" else (k, batch, d)
        assert calls == [((k, d * d), sample_shape)] * iters

    def test_stop_predicate_ends_a_row_at_its_step(self):
        """A row ends at the first point where stop holds: after some step,
        at its start (with no step taken) or at the budget's last point (with
        one trace row there); the other rows run as they do alone."""
        prob = standard_maxeig(4)
        saddle = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        target = prob.value(saddle) - 0.05
        config = SgdConfig(eta=0.02, iterations=3000, noise_scale=1.0, seed=4, record_every=500)

        def escaped(W, f, G):
            return f <= target

        records = projected_trials(6, lambda j: (saddle, trial_rng(4, j), prob, None), config, stop=escaped)
        for rec in records:
            assert rec.final_f <= target < rec.f_values[-2]
            assert rec.iters[-1] == rec.n_steps < 3000
            assert prob.value(rec.final_point) == rec.final_f

        minimum = np.array([1.0, 0.0, 0.0, 0.0])

        def start(j):
            return (minimum if j == 2 else saddle), trial_rng(4, j), prob, None

        mixed = projected_trials(4, start, config, stop=escaped)
        assert (mixed[2].n_steps, mixed[2].iters.tolist()) == (0, [0])
        np.testing.assert_array_equal(mixed[2].final_point, minimum)
        for j in (0, 1, 3):
            assert_same_run(mixed[j], projected_trials(1, lambda _: start(j), config, stop=escaped)[0])

        short = SgdConfig(eta=0.02, iterations=200, noise_scale=1.0, seed=5, record_every=50)
        plain = projected_trials(3, lambda j: (saddle, trial_rng(5, j), prob, None), short)
        end = plain[1].final_point
        stopped = projected_trials(3, lambda j: (saddle, trial_rng(5, j), prob, None), short,
                                   stop=lambda W, f, G: np.all(W == end, axis=1))
        for got, want in zip(stopped, plain):
            assert_same_run(got, want)
        assert stopped[1].iters.tolist().count(200) == 1

    def test_diverged_row_leaves_others_running(self):
        """A row that diverges is closed at its step; the others finish."""
        obj = QuadraticObjective(np.zeros(2), np.zeros(2), -np.eye(2))
        config = SgdConfig(eta=0.05, iterations=800, noise_scale=0.0, record_every=100)
        starts = [(np.array([1.0, 1.0]), run_rng(0), obj, None), (np.zeros(2), run_rng(1), obj, None)]
        grow, rest = sgd._run_loop(starts, config)
        assert grow.diverged and "diverged" in grow.message and grow.n_steps < 800
        assert not rest.diverged and rest.n_steps == 800
        np.testing.assert_array_equal(rest.final_point, np.zeros(2))


@contextlib.contextmanager
def counted_forks():
    """Yields the list that counts the forks made inside the block."""
    forks, fork = [], os.fork

    def counted():
        forks.append(None)
        return fork()

    with mock.patch.object(sgd.os, "fork", counted):
        yield forks


@contextlib.contextmanager
def split(parts):
    """Blocks of any size split into ``parts`` parts, as on a host with
    ``parts`` usable CPUs; yields the list that counts the forks."""
    with (mock.patch.object(sgd, "SPLIT_MIN_WORK", 1),
          mock.patch.object(sgd.os, "sched_getaffinity", lambda pid: set(range(parts))),
          counted_forks() as forks):
        yield forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitBlocks:
    """A block of rows with no sampler, each with a numpy Generator, runs as
    contiguous parts, each after the first in a forked worker."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(PROBLEMS)), d=st.integers(1, 4), k=st.integers(2, 9),
           block=st.integers(2, 9), parts=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
           stopping=st.sampled_from(["none", "coordinate", "value"]), iters=st.integers(1, 60),
           stride=st.integers(1, 30), steps=st.integers(0, 30))
    def test_split_equals_unsplit(self, kind, d, k, block, parts, seed, stopping, iters, stride, steps):
        """Records and every generator's final state equal the block run in
        one process, for rows that run their whole budget and rows that
        stop early (whose generators stand up to a refill past their last
        step, so every part must refill at the whole block's height)."""
        prob = PROBLEMS[kind](basis=OrthoBasis.random(d, np.random.default_rng(seed)))
        n = prob.constraints.n
        config = SgdConfig(eta=0.02, iterations=iters, noise_scale=1.0, seed=seed, record_every=stride)
        w0s = [prob.random_feasible(trial_rng(seed, j)) for j in range(k)]
        coordinate = float(np.median([w0[0] for w0 in w0s]))
        value = float(np.median([prob.value(w0) for w0 in w0s]))
        stop = {"none": None,
                "coordinate": lambda W, f, G: W[:, 0] >= coordinate,
                "value": lambda W, f, G: f <= value}[stopping]

        def run(context):
            rngs = [trial_rng(seed, j) for j in range(k)]
            with (context as forks, mock.patch.object(sgd, "STACK_ROWS", block),
                  mock.patch.object(sgd, "NOISE_BLOCK", 1), mock.patch.object(sgd, "NOISE_BYTES", steps * 8 * block * n)):
                return projected_trials(k, lambda j: (w0s[j], rngs[j], prob, None), config, stop=stop), rngs, forks

        got, got_rngs, forks = run(split(parts))
        want, want_rngs, _ = run(contextlib.nullcontext())
        sizes = [min(block, k - lo) for lo in range(0, k, block)]
        assert len(forks) == sum(min(parts, size) - 1 for size in sizes)
        for j in range(k):
            assert_same_run(got[j], want[j])
            assert got_rngs[j].bit_generator.state == want_rngs[j].bit_generator.state
        assert_no_child_left()

    def test_worker_row_that_stops_early_refills_at_the_block_height(self):
        """A fixed case of the property above: the worker's one row stops
        early, where a refill at its part's own height (2 steps for 1 row)
        would leave its generator past where the block's (1 step) does."""
        self.test_split_equals_unsplit.hypothesis.inner_test(
            self, kind="correlation", d=3, k=2, block=2, parts=2, seed=1, stopping="value", iters=4, stride=1, steps=1)

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_infeasible_iterate_raises_wherever_its_row_runs(self, parts):
        """``_chi_norms``' RuntimeError on an iterate off the feasible set,
        raised here with its message when a worker's row meets it, and no
        worker left behind."""
        prob, here = standard_maxeig(4), os.getpid()
        feasible = SphereProduct.feasible
        checks = []  # the feasibility checks made here, the first of the starts

        def off_in_workers(self, W):
            """Feasible here, where the starts are checked; off in the workers
            or, unsplit, once the run has started."""
            if os.getpid() != here:
                return False
            checks.append(None)
            return feasible(self, W) and (parts > 1 or len(checks) == 1)

        config = SgdConfig(eta=0.01, iterations=30, noise_scale=1.0, record_every=10)
        with split(parts) as forks, mock.patch.object(SphereProduct, "feasible", off_in_workers):
            with pytest.raises(RuntimeError, match="^iterate left the feasible set beyond tolerance$"):
                projected_trials(6, lambda j: (np.eye(4)[0], trial_rng(0, j), prob, None), config)
        assert len(forks) == parts - 1
        assert_no_child_left()

    @pytest.mark.parametrize("bad", [0, 3, 6])
    def test_infeasible_start_anywhere_in_a_block_raises_before_any_fork_or_draw(self, bad):
        """One check of a block's stacked starts: an infeasible first, middle
        or last row raises before the block forks or draws, every generator
        untouched.  Rows with no constraints are not checked."""
        prob, k = standard_maxeig(4), 7
        w0s = [2.0 * np.eye(4)[0] if j == bad else np.eye(4)[0] for j in range(k)]
        config = SgdConfig(eta=0.01, iterations=30, noise_scale=1.0, record_every=10)
        rngs = [trial_rng(0, j) for j in range(k)]
        with split(2) as forks, pytest.raises(ValueError, match="^projected run requires a feasible starting point$"):
            projected_trials(k, lambda j: (w0s[j], rngs[j], prob, None), config)
        assert forks == []
        for j in range(k):
            assert rngs[j].bit_generator.state == trial_rng(0, j).bit_generator.state
        free = QuadraticObjective(np.zeros(4), np.ones(4), np.eye(4))
        with split(2) as forks:
            records = projected_trials(k, lambda j: (w0s[j], trial_rng(0, j), free, None), config)
        assert len(forks) == 1 and all(r.n_steps == 30 and not r.diverged for r in records)

    def test_error_in_this_process_kills_the_workers(self):
        prob, here = standard_maxeig(4), os.getpid()

        def stop(W, f, G):
            if os.getpid() == here:
                raise ValueError("stop failed here")
            return np.zeros(len(W), bool)

        config = SgdConfig(eta=0.01, iterations=10**6, noise_scale=1.0, record_every=10**6)
        with split(2) as forks, pytest.raises(ValueError, match="stop failed here"):
            projected_trials(4, lambda j: (np.eye(4)[0], trial_rng(0, j), prob, None), config, stop=stop)
        assert len(forks) == 1
        assert_no_child_left()

    def test_cli_run_whose_worker_raises_leaves_no_process(self, tmp_path):
        here = os.getpid()
        feasible = SphereProduct.feasible
        with (split(2) as forks, mock.patch.object(SphereProduct, "feasible",
                                                   lambda self, W: feasible(self, W) and os.getpid() == here),
              pytest.raises(RuntimeError, match="feasible set")):
            cli.main(["escape", "--d", "4", "--trials", "6", "--iters", "50", "--out", str(tmp_path / "out")])
        assert len(forks) == 1
        assert_no_child_left()

    def test_escape_blocks_split_on_two_cpus_and_small_stacks_do_not(self):
        """On 2 CPUs escape's one block of 1000 trials splits in two at n=40
        and at n=10; the census's 60 rows of n=4 and 256 rows of n=10 do not."""
        def parts(k, n):
            return sgd._parts([(np.eye(n)[0], trial_rng(0, j), None, None) for j in range(k)])

        with mock.patch.object(sgd.os, "sched_getaffinity", lambda pid: {0, 1}):
            assert (parts(1000, 40), parts(1000, 10), parts(60, 4), parts(256, 10)) == (2, 2, 1, 1)
        with mock.patch.object(sgd.os, "sched_getaffinity", lambda pid: {0}):
            assert parts(1000, 40) == 1

    def test_escape_forks_one_worker_on_two_cpus(self, tmp_path):
        """escape's 1000 trials are one block: one worker, forked once."""
        with mock.patch.object(sgd.os, "sched_getaffinity", lambda pid: {0, 1}), counted_forks() as forks:
            assert cli.main(["escape", "--d", "40", "--trials", "1000", "--iters", "200",
                             "--out", str(tmp_path / "out")]) == 0
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("rows", ["sampler", "recorded", "spy", "none"])
    def test_rows_that_cannot_split_never_fork(self, rows):
        """Sampler rows (a shared RecordedPerturbations keeps one cursor for
        every row), generators other than numpy's (their state cannot come
        back) and rows with no generator run in this process."""
        d, k = 3, 6
        basis = OrthoBasis.random(d, np.random.default_rng(0))
        prob = PROBLEMS["correlation"](basis=basis)
        stream = 0.1 * np.random.default_rng(1).standard_normal((k * 20, d * d))
        shared = RecordedPerturbations(prob, stream)

        def start(j):
            rng = {"spy": ZeroDrawStream(d * d, j), "none": None}.get(rows, trial_rng(0, j))
            sampler = {"sampler": SimpleSampler(basis), "recorded": shared}.get(rows)
            return prob.random_feasible(trial_rng(0, j)), rng, prob, sampler

        noise = 0.0 if rows == "none" else 1.0
        config = SgdConfig(eta=0.01, iterations=20, noise_scale=noise, record_every=5)
        with split(2) as forks:
            records = projected_trials(k, start, config)
        assert forks == [] and all(r.n_steps == 20 for r in records)


@contextlib.contextmanager
def drawn_ahead(ahead):
    """Sampler stacks draw their blocks after the first in a forked
    producer (``ahead``) or all in this process, whatever the host; yields
    the list that counts the forks."""
    with mock.patch.object(sgd, "_draws_ahead", lambda starts: ahead), counted_forks() as forks:
        yield forks


class Exits:
    """Ends trial j of ``k`` at step ``plan[j] = (how, step)``: ``stop``
    through the stop predicate, ``diverge`` through an oracle gradient so
    large that the row's iterate diverges at that step.  The predicate is
    called once before every step, so it counts the steps; it also tracks
    which trials are still in the stack."""

    def __init__(self, plan, k):
        self.plan, self.t, self.active = plan, -1, list(range(k))

    def stop(self, W, f, G):
        self.t += 1
        self.active = [j for j in self.active if self.plan.get(j) != ("diverge", self.t - 1)]
        assert len(self.active) == len(W)
        ends = np.array([self.plan.get(j) == ("stop", self.t) for j in self.active], dtype=bool)
        self.active = [j for j, end in zip(self.active, ends) if not end]
        return ends

    def steer(self, G):
        G[np.array([self.plan.get(j) == ("diverge", self.t) for j in self.active], dtype=bool)] = 1e300
        return G


def steered(cls, exits):
    """A ``cls`` sampler whose gradient makes the rows ``exits`` plans to diverge do so."""
    class Steered(cls):
        def gradient(self, W, samples):
            return exits.steer(super().gradient(W, samples))

    return Steered


class TestDrawAhead:
    """A stack whose rows all have samplers draws its blocks after the first
    in one forked producer, one block ahead, and gets back every
    generator's state after each block."""

    @settings(max_examples=50, deadline=None)
    # rows that run their whole budget past block 0, and a row that stops
    # after reading block 2 of 4 while the other runs on
    @example(sampler_kind="simple", d=2, k=2, height=3, blocks=3, last=2, seed=1, noise=1.0, stride=4,
             exits=[(None, 0, 0)] * 4)
    @example(sampler_kind="ica", d=2, k=2, height=2, blocks=4, last=2, seed=2, noise=1.0, stride=3,
             exits=[("stop", 2, 1)] + [(None, 0, 0)] * 3)
    @given(sampler_kind=st.sampled_from(["simple", "ica"]), d=st.integers(1, 3), k=st.integers(1, 4),
           height=st.integers(1, 6), blocks=st.integers(1, 4), last=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([0.0, 1.0]), stride=st.integers(1, 10),
           exits=st.lists(st.tuples(st.sampled_from([None, "stop", "diverge"]), st.integers(0, 4),
                                    st.integers(-1, 1)), min_size=4, max_size=4))
    def test_producer_equals_in_process(self, sampler_kind, d, k, height, blocks, last, seed, noise, stride,
                                        exits):
        """Records, bit for bit, and every generator's final state equal the
        run drawn in this process, for 1 to 4 blocks: rows that run their
        whole budget, and rows that leave through the stop predicate or by
        divergence at, just before or just after a block boundary.  A
        one-block run and one whose rows all stop at the start fork
        nothing; any other forks one producer."""
        iters = (blocks - 1) * height + min(last, height)
        basis = OrthoBasis.random(d, np.random.default_rng(seed))
        prob = PROBLEMS["correlation"](basis=basis)
        n = prob.constraints.n
        plan = {j: (how, b * height + offset) for j, (how, b, offset) in enumerate(exits[:k])
                if how is not None and b * height + offset >= 0}
        config = SgdConfig(eta=0.02, iterations=iters, noise_scale=noise, seed=seed, record_every=stride)
        w0s = [prob.random_feasible(trial_rng(seed, j)) for j in range(k)]

        def run(ahead):
            exits = Exits(plan, k)
            sampler = (steered(SimpleSampler, exits)(basis) if sampler_kind == "simple"
                       else steered(IcaSampler, exits)(IcaModel(basis.vectors.T), batch_size=2))
            size = n * (noise > 0) + int(np.prod(sampler.sample_shape))
            rngs = [trial_rng(seed, j) for j in range(k)]
            with (drawn_ahead(ahead) as forks, mock.patch.object(sgd, "NOISE_BLOCK", 1),
                  mock.patch.object(sgd, "NOISE_BYTES", height * 8 * k * size)):
                records = projected_trials(k, lambda j: (w0s[j], rngs[j], prob, sampler), config, stop=exits.stop)
            return records, rngs, forks

        got, got_rngs, forks = run(True)
        want, want_rngs, none = run(False)
        for j in range(k):
            assert_same_run(got[j], want[j])
            np.testing.assert_equal(got_rngs[j].bit_generator.state, want_rngs[j].bit_generator.state)
        drawing = any(plan.get(j) != ("stop", 0) for j in range(k))
        assert (len(forks), none) == (int(blocks > 1 and drawing), [])
        assert_no_child_left()

    @pytest.mark.parametrize("ahead", [True, False])
    @pytest.mark.parametrize("sampler_kind", ["simple", "ica"])
    def test_sampler_rows_refuse_other_generators(self, sampler_kind, ahead):
        """A sampler row on a generator that is not PCG64 fails the run at
        its first fill, with a ValueError naming PCG64, before any step or
        producer fork: its generator and those of the rows after it are
        untouched."""
        basis = OrthoBasis.random(3, np.random.default_rng(0))
        prob = PROBLEMS["correlation"](basis=basis)
        sampler = SimpleSampler(basis) if sampler_kind == "simple" else IcaSampler(IcaModel(basis.vectors.T), 2)
        config = SgdConfig(eta=0.01, iterations=50, noise_scale=1.0, record_every=10)

        def rng(j):
            if j == 1:
                return np.random.Generator(np.random.Philox(np.random.SeedSequence(0, spawn_key=(j,))))
            return trial_rng(0, j)

        rngs = [rng(j) for j in range(3)]
        with (drawn_ahead(ahead) as forks, mock.patch.object(sgd, "NOISE_BLOCK", 1),
              mock.patch.object(sgd, "NOISE_BYTES", 10 * 8 * 3 * (9 + int(np.prod(sampler.sample_shape))))):
            with pytest.raises(ValueError, match="^samplers fill from raw PCG64 words, not from Philox$"):
                projected_trials(3, lambda j: (prob.random_feasible(trial_rng(0, j)), rngs[j], prob, sampler),
                                 config)
        assert forks == []
        for j in (1, 2):
            np.testing.assert_equal(rngs[j].bit_generator.state, rng(j).bit_generator.state)

    def producer_run(self, sampler, stop=None, iters=50):
        """A forced-producer run of 3 rows in blocks of 10 steps."""
        basis = sampler.basis
        prob = PROBLEMS["correlation"](basis=basis)
        config = SgdConfig(eta=0.01, iterations=iters, noise_scale=1.0, record_every=10)
        with (mock.patch.object(sgd, "NOISE_BLOCK", 1),
              mock.patch.object(sgd, "NOISE_BYTES", 10 * 8 * 3 * (basis.d**2 + basis.d))):
            return projected_trials(3, lambda j: (prob.random_feasible(trial_rng(0, j)), trial_rng(0, j), prob,
                                                  sampler), config, stop=stop)

    def test_producer_error_is_raised_here(self):
        """A sampler that raises in the producer: its exception is raised
        here with its type and message, and no child is left behind."""
        here = os.getpid()

        class FailsAway(SimpleSampler):
            def fill(self, rng, samples, noise):
                if os.getpid() != here:
                    raise ValueError("fill failed in the producer")
                super().fill(rng, samples, noise)

        basis = OrthoBasis.random(3, np.random.default_rng(0))
        with drawn_ahead(True) as forks, pytest.raises(ValueError, match="^fill failed in the producer$"):
            self.producer_run(FailsAway(basis))
        assert len(forks) == 1
        assert_no_child_left()

    def test_error_here_kills_the_producer(self):
        """An error raised here mid-run, while the producer waits for a free
        slot, is the one raised, and the producer does not outlive the call."""
        steps = []

        def stop(W, f, G):
            steps.append(None)
            if len(steps) == 25:
                raise RuntimeError("stop failed at step 24")
            return np.zeros(len(W), bool)

        basis = OrthoBasis.random(3, np.random.default_rng(0))
        with drawn_ahead(True) as forks, pytest.raises(RuntimeError, match="^stop failed at step 24$"):
            self.producer_run(SimpleSampler(basis), stop=stop, iters=10**6)
        assert len(forks) == 1
        assert_no_child_left()

    def test_only_sampler_rows_with_numpy_generators_draw_ahead_on_two_cpus(self):
        """Rows with samplers (a RecordedPerturbations keeps its cursor in
        this process) and numpy generators (whose state can come back) draw
        ahead, given a second usable CPU."""
        basis = OrthoBasis.random(3, np.random.default_rng(0))
        prob = PROBLEMS["correlation"](basis=basis)
        recorded = RecordedPerturbations(prob, np.zeros((10, 9)))

        def draws_ahead(sampler, rng=None):
            return sgd._draws_ahead([(np.eye(9)[0], rng or trial_rng(0, j), prob, sampler) for j in range(3)])

        with mock.patch.object(sgd.os, "sched_getaffinity", lambda pid: {0, 1}):
            assert draws_ahead(SimpleSampler(basis)) and draws_ahead(IcaSampler(IcaModel(basis.vectors.T)))
            assert not (draws_ahead(None) or draws_ahead(recorded)
                        or draws_ahead(SimpleSampler(basis), ZeroDrawStream(9, 0)))
        with mock.patch.object(sgd.os, "sched_getaffinity", lambda pid: {0}):
            assert not draws_ahead(SimpleSampler(basis))

    @pytest.mark.parametrize("iters, forked", [(50, 0), (1000, 1)])
    def test_decompose_forks_one_producer_past_one_block(self, iters, forked, tmp_path):
        """decompose's 4 × (100 + 10) stack draws 186 steps a block: on two
        CPUs a 1000-step run forks one producer, a 50-step run none."""
        with mock.patch.object(sgd.os, "sched_getaffinity", lambda pid: {0, 1}), counted_forks() as forks:
            assert cli.main(["decompose", "--d", "10", "--seeds", "4", "--iters", str(iters),
                             "--out", str(tmp_path / "out")]) == 0
        assert len(forks) == forked
        assert_no_child_left()


# ------------------------------------------------------------------ #
# Perturbation bound                                                   #
# ------------------------------------------------------------------ #


class TestNoiseBound:
    def test_bounded_oracle_passes(self):
        obj = QuadraticObjective(np.zeros(3), np.ones(3), np.eye(3), oracle_bound=0.5)
        rng = np.random.default_rng(9)
        sampler = RecordedPerturbations(
            obj, (0.5 * rng.random() * unit_sphere_noise(3, rng) for _ in range(100)))
        config = SgdConfig(eta=0.01, iterations=100, noise_scale=1.0, seed=9, record_every=1)
        rec = single_run(obj, sampler, np.ones(3), config)
        assert not rec.diverged

    def test_violation_raises(self):
        obj = QuadraticObjective(np.zeros(2), np.zeros(2), np.eye(2), oracle_bound=0.1)
        sampler = RecordedPerturbations(obj, [np.array([5.0, 0.0])])  # ||xi|| >> Q + 1
        config = SgdConfig(eta=0.01, iterations=1, noise_scale=1.0, record_every=1)
        with pytest.raises(RuntimeError, match="bound violated"):
            single_run(obj, sampler, np.ones(2), config)


# ------------------------------------------------------------------ #
# CSV traces                                                           #
# ------------------------------------------------------------------ #


class TestCsv:
    def run_once(self, seed):
        obj = QuadraticObjective(np.zeros(2), np.ones(2), np.eye(2))
        config = SgdConfig(eta=0.01, iterations=50, noise_scale=1.0, seed=seed, record_every=10)
        return single_run(obj, None, np.array([1.0, 2.0]), config)

    def test_header_and_round_trip(self, tmp_path):
        rec = self.run_once(11)
        path = tmp_path / "trace.csv"
        write_run_csv(rec, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,f,grad_norm,recon_error,elapsed_ms"
        assert len(lines) == 1 + rec.iters.size
        fs = np.array([float(line.split(",")[1]) for line in lines[1:]])
        np.testing.assert_array_equal(fs, rec.f_values)

    def test_write_csv_cells(self, tmp_path):
        """Floats, np.float64 too, round-trip as repr; other cells are str."""
        path = tmp_path / "cells.csv"
        third = np.float64(1.0) / 3.0
        write_csv(path, ("a", "b", "c", "d", "e"),
                  [(third, float("nan"), np.inf, 7, "1.500"), (-0.0, np.float64(-np.inf), 1e-300, np.int64(3), "x")])
        assert path.read_text() == "a,b,c,d,e\n0.3333333333333333,nan,inf,7,1.500\n-0.0,-inf,1e-300,3,x\n"
        assert float(path.read_text().split("\n")[1].split(",")[0]) == third

    def test_byte_identical_except_elapsed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_csv(self.run_once(12), a)
        write_run_csv(self.run_once(12), b)

        def strip_elapsed(path):
            rows = path.read_text().strip().split("\n")
            return ["\t".join(r.split(",")[:-1]) for r in rows]

        assert strip_elapsed(a) == strip_elapsed(b)
